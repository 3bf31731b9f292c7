"""The public calling convention, and the README example that documents it."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import numpy as np
import pytest

import eigensens
from eigensens import influence, subspace_diag, switching

from conftest import COR_N, COV_N
from reference import (
    eif_covariance,
    eif_eigenvalue,
    mean_vector,
    sci,
    sif_b,
    sif_eigenvalue,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted((ROOT / "src" / "eigensens").glob("*.py"))

# the one-row functions that moved to tests/reference.py
MOVED = [
    "sif_eigenvalue",
    "eif_eigenvalue",
    "eif_covariance",
    "component_score",
    "eigenvalue_gradient_check",
    "sif_b",
    "sci",
    "subspace_alignment",
    "projector",
    "canonical_correlations",
    "mean_vector",
]

# the leave-one-out sweeps: each takes a LooEngine as its one data argument
SWEEPS = [
    "loo_eigenvalue_table",
    "eigen_influence",
    "eif_b_series",
    "scia_series",
    "influence_records",
    "scan_events",
    "verify_exact",
    "recommend_L",
    "hybrid_influence",
    "build_switch_report",
]


def _public_parameters():
    for module in (influence, subspace_diag, switching):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield name, list(inspect.signature(obj).parameters)


def test_no_function_takes_both_data_and_an_engine():
    both = [name for name, params in _public_parameters()
            if "X" in params and "engine" in params]
    assert both == []


@pytest.mark.parametrize("name", SWEEPS)
def test_sweeps_take_the_engine_first(name):
    params = dict(_public_parameters())[name]
    assert "X" not in params and "spec" not in params
    # verify_exact takes the events it checks ahead of everything else
    assert [p for p in params if p != "events"][0] == "engine"


def test_verify_exact_reads_its_threshold_from_the_events():
    # the near-switch delta is the one the scan flagged with, not a keyword
    assert list(inspect.signature(switching.verify_exact).parameters) == ["events", "engine"]


@pytest.mark.parametrize("name", SWEEPS)
def test_sweeps_take_no_bool_switches(name):
    # a stage that a caller may skip is a separate call, not a flag
    signature = inspect.signature(getattr(eigensens, name), eval_str=True)
    assert [p for p, v in signature.parameters.items() if v.annotation is bool] == []


def _key_operations():
    """Backticked names in the first column of the README's API table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("Key operations", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]


def test_readme_api_table_names_resolve():
    names = _key_operations()
    assert "eigen_influence" in names
    assert [n for n in names if not hasattr(eigensens, n)] == []


def test_every_public_function_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    missing = [name for name, _ in _public_parameters()
               if not re.search(rf"`{name}[`(]", text)]
    assert missing == []


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[0] == "[42, 57, 58, 59, 60, 91, 93]"
    assert printed[1].startswith("3 - ")


def _imports(path: Path) -> list[tuple[str, str]]:
    """``(module, bound name)`` of every import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module or "", a.asname or a.name) for a in node.names]
    return found


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"],
                         ids=lambda m: m.name)
def test_every_import_is_used(path):
    # every CLI start compiles and runs each import, so none may be dead;
    # a name read only in an annotation counts as used
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for module, name in _imports(path)
              if module != "__future__" and name not in used]
    assert unused == []


def test_the_cli_imports_no_private_name():
    # the command line is built on the package's public names alone
    cli = ROOT / "src" / "eigensens" / "cli.py"
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    private = [(node.module, a.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "eigensens")
               for a in node.names
               if a.name.startswith("_") and not a.name.startswith("__")]
    assert private == []


def test_the_sweeps_share_the_engine_thread_and_its_private_names():
    # the helper thread of the leave-one-out sweeps lives in the engine alone
    def threads(path: Path) -> int:
        return sum(isinstance(node, ast.Call) and ast.unparse(node.func) in (
            "threading.Thread", "Thread")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))

    assert {m.name: threads(m) for m in MODULES if threads(m)} == {"influence.py": 1}
    switching_path = ROOT / "src" / "eigensens" / "switching.py"
    assert [name for module, name in _imports(switching_path)
            if module == "influence" and name.startswith("_")] == []
    # the exact pass is one function, which owns its measures
    assert [name for module, name in _imports(switching_path)
            if module == "subspace_diag" and name.startswith("_")] == ["_exact"]


def _attribute_uses(path: Path) -> tuple[set[str], set[str]]:
    """``(read, called)``: the names read as ``.name``, and those called as
    ``.name(...)``, in a source file, leaving out attributes of a module
    bound by ``import`` (``np.trace`` is not a method of ours)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}
    called = {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr in read}
    return read, called


def test_every_public_method_has_a_caller_outside_the_tests():
    # a public method or property of an exported class that only tests use
    # is dead weight that every CLI start compiles
    uses = [_attribute_uses(path)
            for path in [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]]
    read = set().union(*(r for r, _ in uses))
    called = set().union(*(c for _, c in uses))
    unused = []
    for path in MODULES:
        module = importlib.import_module(f"eigensens.{path.stem}")
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if not inspect.isclass(cls):
                continue
            for attr, value in vars(cls).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, property) and attr not in read:
                    unused.append(f"{name}.{attr}")
                elif inspect.isfunction(value) and attr not in called:
                    unused.append(f"{name}.{attr}")
    assert unused == []


def test_the_per_row_references_left_the_package():
    modules = [importlib.import_module(f"eigensens.{m.stem}")
               for m in MODULES if m.name != "__init__.py"]
    assert [n for n in MOVED if hasattr(eigensens, n)] == []
    assert [(m.__name__, n) for m in modules for n in MOVED if hasattr(m, n)] == []
    assert [(m.__name__, n) for m in modules
            for n in getattr(m, "__all__", ()) if n in MOVED] == []
    assert [(m.name, module) for m in MODULES for module, _ in _imports(m)
            if "reference" in module.split(".")] == []


# the README's one-row recipes, checked against tests/reference.py
RECIPE_ROWS = (1, 57, 96)
SPECS = pytest.mark.parametrize("spec", [COV_N, COR_N], ids=["cov", "cor"])


@SPECS
def test_readme_recipe_for_sif_b_and_sci(oils, spec):
    engine = eigensens.LooEngine(oils, spec)
    for L in (1, 2, oils.p - 1):
        for i in RECIPE_ROWS:
            r = eigensens.influence_records(engine, L, exact=[i])[i - 1]
            assert r.sif_b == sif_b(oils, spec, L, i), f"L={L} obs {i}"
            assert r.sci == sci(oils, spec, L, i), f"L={L} obs {i}"


@SPECS
def test_readme_recipe_for_sif_eigenvalue(oils, spec):
    engine = eigensens.LooEngine(oils, spec)
    for i in RECIPE_ROWS:
        r = eigensens.influence_records(engine, 2, exact=[i])[i - 1]
        for j in range(1, oils.p + 1):
            assert r.sif_eigen[j - 1] == sif_eigenvalue(oils, spec, j, i), \
                f"obs {i} j={j}"


def test_readme_recipe_for_eif_eigenvalue(oils):
    eif = eigensens.eigen_influence(eigensens.LooEngine(oils, COV_N))[0]
    for i in RECIPE_ROWS:
        for j in range(1, oils.p + 1):
            assert eif[i - 1, j - 1] == pytest.approx(
                eif_eigenvalue(oils, j, i, COV_N), rel=1e-12), f"obs {i} j={j}"


def test_readme_recipe_for_mean_vector_and_eif_covariance(oils):
    engine = eigensens.LooEngine(oils, COV_N)
    assert np.array_equal(engine.mean, mean_vector(oils))
    for i in RECIPE_ROWS:
        d = oils.values[i - 1] - engine.mean
        assert np.array_equal(np.outer(d, d) - eigensens.estimate(oils).matrix,
                              eif_covariance(oils, i))

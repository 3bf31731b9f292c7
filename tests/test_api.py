"""The public calling convention, and the README example that documents it."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import pytest

import eigensens
from eigensens import influence, subspace_diag, switching

README = Path(__file__).resolve().parents[1] / "README.md"

# the leave-one-out sweeps: each takes a LooEngine as its one data argument
SWEEPS = [
    "loo_eigenvalue_table",
    "eigen_influence",
    "eif_b_series",
    "scia_series",
    "influence_records",
    "detect_switching",
    "detect_near_switch",
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

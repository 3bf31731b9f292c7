"""Workload definitions: seeded inputs, CLI invocations and defining properties.

Every workload is a fixed list of ``eigensens`` CLI invocations over inputs
that are generated from the benchmark seed.  The program only ever sees the
generated CSV files; the seed never reaches it.

Synthetic inputs are drawn from a pool of ``POOL`` seeded datasets
(``seed % POOL``) so that every report can be checked byte for byte against
the digests recorded in ``golden.json``.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 16

DENSE_N, DENSE_P = 1000, 30
SPARSE_N, SPARSE_P = 4000, 30
# 1-based index of the planted leverage row in the sparse workload
SPARSE_PLANTED = SPARSE_N // 2
SPARSE_PAIRS = "1:2,2:3,3:4"

# the (2,3) switch set of the bundled oils data, as in the README
OILS_SWITCH_23 = [42, 57, 58, 59, 60, 91, 93]
# 1-based ranks j whose pair (j, j+1) the dense spectrum ties to within
# DENSE_TIE_GAP < the default delta of 0.1, so every row is near_switch
DENSE_TIED = (5, 12, 20, 27)
DENSE_TIE_GAP = 0.05
# fixed, not drawn from the benchmark seed: it sets the correlation spectrum
DENSE_ROTATION_SEED = 20220217


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``eigensens <args> --out <dir>/<out>``."""

    name: str
    args: tuple[str, ...]
    out: str

    @property
    def command(self) -> str:
        return self.args[0]

    def argv(self, input_csv: Path, out_dir: Path) -> list[str]:
        return [*self.args, "--input", str(input_csv), "--out", str(out_dir / self.out)]


def _whitened(seed: int, n: int, p: int) -> np.ndarray:
    """Seeded Gaussian rows whose columns are centred and orthonormal."""
    z = np.random.default_rng(seed).standard_normal((n, p))
    q, _ = np.linalg.qr(z - z.mean(axis=0))
    return q


def dense_matrix(seed: int) -> np.ndarray:
    """1000 x 30 Gaussian rows with a fixed spectrum that flags every row.

    The covariance has the eigenvalues of column scales 3 down to 1, except
    that each pair in ``DENSE_TIED`` is pulled to within ``DENSE_TIE_GAP``,
    and a fixed rotation.  The raw draw ``standard_normal * linspace(3, 1)``
    leaves the flags to its sampled gaps: the hybrid ``--L 20`` run then pays
    1000 exact rows on some seeds and a handful on others.  Here every seed
    flags every row, and the seed changes only the rows.
    """
    n, p = DENSE_N, DENSE_P
    variances = np.linspace(3.0, 1.0, p) ** 2
    for j in DENSE_TIED:
        variances[j] = variances[j - 1] - DENSE_TIE_GAP
    rotation, _ = np.linalg.qr(
        np.random.default_rng(DENSE_ROTATION_SEED).standard_normal((p, p)))
    return (_whitened(seed, n, p) * np.sqrt(n * variances)) @ rotation.T


def sparse_matrix(seed: int) -> np.ndarray:
    """4000 x 30 with an exactly separated spectrum and one planted row.

    The Gaussian draw is whitened so its covariance is exactly
    diag(20, 10, 9.3, 5 .. 0.5); the spectrum is then the same for every
    seed, and only the rows vary.  Row ``SPARSE_PLANTED`` is replaced by
    sqrt(1.2 n) e_3, which lifts the third direction above the second, so
    removing that row alone reverses pair (2,3).
    """
    n, p = SPARSE_N, SPARSE_P
    variances = np.concatenate([[20.0, 10.0, 9.3], np.linspace(5.0, 0.5, p - 3)])
    x = _whitened(seed, n, p) * np.sqrt(n * variances)
    x[SPARSE_PLANTED - 1] = 0.0
    x[SPARSE_PLANTED - 1, 2] = np.sqrt(1.2 * n)
    return x


def _oils_property(inv: Invocation, doc: dict, fact: dict) -> list[str]:
    switch23 = sorted({ev["obs"] for ev in doc["events"]
                       if ev["pair"] == [2, 3] and ev["kind"] == "switch"})
    fact["switch_23"] = switch23
    # the README's set is a covariance result
    if "cor" not in inv.args and switch23 != OILS_SWITCH_23:
        return [f"(2,3) switch set {switch23} != {OILS_SWITCH_23}"]
    return []


def _dense_property(inv: Invocation, doc: dict, fact: dict) -> list[str]:
    if fact["flagged_share"] != 1.0:
        return [f"flagged share {fact['flagged_share']} != 1"]
    return []


def _sparse_property(inv: Invocation, doc: dict, fact: dict) -> list[str]:
    events = [(ev["obs"], ev["pair"]) for ev in doc["events"]]
    fact["events"] = events
    problems = []
    if events != [(SPARSE_PLANTED, [2, 3])]:
        problems.append(f"events {events} are not the planted row on (2,3)")
    if fact["recommended_L"] != 3:
        problems.append(f"recommended_L {fact['recommended_L']} != 3")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # rows whose exact values the traced run compares with the reference path
    sample_rows: tuple[int, ...]
    # asserted on every JSON switching report: (inv, doc, fact) -> problems
    prop: Callable[[Invocation, dict, dict], list[str]]
    # seeded input generator; None reads the bundled oils data
    make: Callable[[int], np.ndarray] | None = None

    def pool_index(self, seed: int) -> int:
        return seed % POOL if self.make else 0


def _inv(name: str, *args: str, fmt: str = "json") -> Invocation:
    return Invocation(name, tuple(args), f"{name}.{fmt}")


_OILS = ("--label-col", "oil_type")
_SP = ("--pairs", SPARSE_PAIRS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oils-cli",
            (
                _inv("analyze", "analyze", *_OILS),
                _inv("analyze-csv", "analyze", "--format", "csv", *_OILS, fmt="csv"),
                _inv("switching-approx", "switching", "--mode", "approx", *_OILS),
                _inv("switching-hybrid", "switching", "--mode", "hybrid", *_OILS),
                _inv("switching-exact", "switching", "--mode", "exact", *_OILS),
                _inv("influence-approx", "influence", "--mode", "approx", *_OILS),
                _inv("influence-hybrid", "influence", "--mode", "hybrid", *_OILS),
                _inv("influence-exact", "influence", "--mode", "exact", *_OILS),
                _inv("switching-exact-cor", "switching", "--mode", "exact",
                     "--estimator", "cor", *_OILS),
                _inv("influence-hybrid-cor", "influence", "--mode", "hybrid",
                     "--estimator", "cor", *_OILS),
                _inv("switching-csv", "switching", "--format", "csv", *_OILS,
                     fmt="csv"),
                _inv("switching-hybrid-csv", "switching", "--mode", "hybrid",
                     "--format", "csv", *_OILS, fmt="csv"),
            ),
            (1, 24, 42, 48, 57, 58, 72, 96),
            _oils_property,
        ),
        Workload(
            "exact-dense-1000x30",
            (
                _inv("analyze", "analyze"),
                _inv("analyze-csv", "analyze", "--format", "csv", fmt="csv"),
                _inv("influence-exact", "influence", "--mode", "exact"),
                _inv("influence-exact-cor", "influence", "--mode", "exact",
                     "--estimator", "cor"),
                _inv("switching-exact", "switching", "--mode", "exact"),
                _inv("switching-exact-cor", "switching", "--mode", "exact",
                     "--estimator", "cor"),
                _inv("switching-hybrid-L20", "switching", "--mode", "hybrid",
                     "--L", "20"),
            ),
            (1, 125, 250, 375, 500, 625, 750, 875, 1000),
            _dense_property,
            dense_matrix,
        ),
        Workload(
            "approx-sparse-4000x30",
            (
                _inv("analyze", "analyze"),
                _inv("analyze-csv", "analyze", "--format", "csv", fmt="csv"),
                _inv("switching-approx", "switching", "--mode", "approx", *_SP),
                _inv("switching-hybrid-csv", "switching", "--mode", "hybrid",
                     "--format", "csv", *_SP, fmt="csv"),
                _inv("switching-exact", "switching", "--mode", "exact", *_SP),
                _inv("influence-approx", "influence", "--mode", "approx"),
            ),
            (1, 1000, SPARSE_PLANTED, 3000, SPARSE_N),
            _sparse_property,
            sparse_matrix,
        ),
    )
}


def write_input(workload: Workload, seed: int, work: Path, root: Path) -> Path:
    """Write the workload's input CSV under ``work`` and return its path."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / "input.csv"
    if workload.make is None:
        shutil.copyfile(root / "src" / "eigensens" / "data" / "oils.csv", path)
        return path
    x = workload.make(workload.pool_index(seed))
    header = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")
    return path


def check_properties(workload: Workload, out_dir: Path) -> dict:
    """Check the property that makes the workload what it claims to be.

    Reads the JSON switching reports of one pass.  Returns the measured
    facts with an ``ok`` flag; a failing property is never hidden by
    re-seeding.
    """
    facts: dict = {}
    problems: list[str] = []
    for inv in workload.invocations:
        if inv.command != "switching" or not inv.out.endswith(".json"):
            continue
        try:
            doc = json.loads((out_dir / inv.name / inv.out).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{inv.name}: unreadable report ({exc})")
            continue
        fact = {"flagged_share": len({ev["obs"] for ev in doc["events"]}) / doc["n"],
                "recommended_L": doc["recommended_L"]["L"]}
        problems += [f"{inv.name}: {p}" for p in workload.prop(inv, doc, fact)]
        facts[inv.name] = fact
    return {"ok": not problems, "problems": problems, "reports": facts}

"""The shared leave-one-out engine against the per-observation reference paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigensens

from conftest import COR_N, COV_N, COV_N1, gaussian_data
from eigensens import (
    DataMatrix,
    EstimatorSpec,
    LooEngine,
    SwitchEvent,
    approx_eigenvalues_loo,
    build_switch_report,
    bundled_oils_path,
    count_decompositions,
    detect_near_switch,
    detect_switching,
    eif_b,
    eif_b_series,
    eif_eigenvalue,
    eigen_influence,
    eigh,
    eigh_stack,
    estimate,
    estimate_loo,
    hif_eigenvalue,
    hybrid_influence,
    influence_records,
    load_oils,
    loo_eigenvalue_table,
    recommend_L,
    sci,
    scia,
    scia_series,
    sif_b,
    sif_eigenvalue,
    verify_exact,
)
from eigensens.cli import main
from eigensens.errors import DataError, ZeroVarianceError
from eigensens.influence import _chunk_rows

COR_N1 = EstimatorSpec("correlation", "n-1")
SPECS = [COV_N, COV_N1, COR_N, COR_N1]

# 400 rows of 30 columns: blocks of _chunk_rows(30) rows leave a partial one
SEEDED = gaussian_data(3, 400, np.linspace(3.0, 1.0, 30))


# every function that takes engine=, called on (X, spec) with that engine
ENGINE_TAKERS = {
    "loo_eigenvalue_table":
        lambda X, spec, engine: loo_eigenvalue_table(X, spec, engine=engine),
    "eif_b_series": lambda X, spec, engine: eif_b_series(X, 2, spec, engine=engine),
    "scia_series": lambda X, spec, engine: scia_series(X, 2, spec, engine=engine),
    "detect_switching":
        lambda X, spec, engine: detect_switching(X, spec, engine=engine),
    "detect_near_switch":
        lambda X, spec, engine: detect_near_switch(X, spec, engine=engine),
    "recommend_L": lambda X, spec, engine: recommend_L(X, spec, 2, engine=engine),
    "influence_records":
        lambda X, spec, engine: influence_records(X, spec, 2, engine=engine),
    "verify_exact": lambda X, spec, engine: verify_exact(
        [SwitchEvent(1, X.row_labels[0], (2, 3), 0.0, 0.0, "switch")], X, spec,
        engine=engine),
    "hybrid_influence":
        lambda X, spec, engine: hybrid_influence(X, spec, 2, [1], engine=engine),
    "build_switch_report": lambda X, spec, engine: build_switch_report(
        X, spec, candidate_L=2, engine=engine),
}

# every per-observation reference, on observation 58 of oils under COV_N, with
# the decompositions it costs: its own full-data one, and for the sample
# influences the reduced one as well
PER_ROW_COST = {
    "approx_eigenvalues_loo": (lambda X: approx_eigenvalues_loo(X, COV_N, 58), 1),
    "hif_eigenvalue": (lambda X: hif_eigenvalue(X, COV_N, 2, 58), 1),
    "eigen_influence": (lambda X: eigen_influence(X, COV_N, 58), 1),
    "eif_eigenvalue": (lambda X: eif_eigenvalue(X, 2, 58), 1),
    "eif_b": (lambda X: eif_b(X, 2, 58), 1),
    "scia": (lambda X: scia(X, 2, 58), 1),
    "sif_eigenvalue": (lambda X: sif_eigenvalue(X, COV_N, 2, 58), 2),
    "sif_b": (lambda X: sif_b(X, COV_N, 2, 58), 2),
    "sci": (lambda X: sci(X, COV_N, 2, 58), 2),
}


def _datasets():
    return [pytest.param(load_oils(), id="oils"), pytest.param(SEEDED, id="seeded")]


def test_seeded_rows_are_not_a_multiple_of_the_block():
    assert SEEDED.n % _chunk_rows(SEEDED.p) != 0
    assert SEEDED.n > _chunk_rows(SEEDED.p)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.divisor}")
@pytest.mark.parametrize("X", _datasets())
class TestAgainstReference:
    def test_table_rows_equal_per_row_approximation(self, X, spec):
        table = loo_eigenvalue_table(X, spec)
        for i in range(1, X.n + 1):
            ref = approx_eigenvalues_loo(X, spec, i)
            assert np.array_equal(table[i - 1], ref), f"row {i}"

    def test_reduced_systems_equal_reference_decompositions(self, X, spec):
        engine = LooEngine(X, spec)
        seen = []
        for i, system in engine.reduced(range(1, X.n + 1)):
            ref = eigh(estimate_loo(X, spec, i))
            assert np.array_equal(system.values, ref.values), f"obs {i}"
            assert np.array_equal(system.vectors, ref.vectors), f"obs {i}"
            assert system.gap_warnings == ref.gap_warnings
            seen.append(i)
        assert seen == list(range(1, X.n + 1))


class TestEngine:
    def test_stacked_call_counts_every_matrix(self):
        mats = np.stack([estimate(SEEDED, COV_N).matrix] * 5)
        with count_decompositions() as window:
            systems = eigh_stack(mats)
        assert window.total == 5
        assert len(systems) == 5

    def test_reduced_costs_one_decomposition_per_row(self, oils):
        engine = LooEngine(oils, COV_N)
        with count_decompositions() as window:
            rows = [i for i, _ in engine.reduced([58, 3, 42])]
        assert window.total == 3
        assert rows == [58, 3, 42]

    def test_table_is_computed_once(self, oils):
        engine = LooEngine(oils, COV_N)
        assert engine.table is engine.table

    def test_reduced_rejects_out_of_range_rows(self, oils):
        with pytest.raises(DataError, match="out of range"):
            list(LooEngine(oils, COV_N).reduced([97]))

    @pytest.mark.parametrize("call", ENGINE_TAKERS.values(), ids=ENGINE_TAKERS.keys())
    def test_engine_for_other_data_is_refused(self, oils, call):
        with pytest.raises(ValueError, match="engine"):
            call(oils, COV_N, LooEngine(SEEDED, COV_N))
        # another estimator's state must not reach a sweep: on oils, the
        # correlation decomposition hides all seven covariance (2,3) switches
        with pytest.raises(ValueError, match="engine"):
            call(oils, COV_N, LooEngine(oils, COR_N))

    @pytest.mark.parametrize("call, cost", PER_ROW_COST.values(), ids=PER_ROW_COST.keys())
    def test_per_row_reference_decomposes_its_own_input(self, oils, call, cost):
        with count_decompositions() as window:
            call(oils)
        assert window.total == cost

    def test_table_reports_zero_variance_after_removal(self):
        X = DataMatrix(
            np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 9.0]]),
            col_labels=["a", "b"],
        )
        with pytest.raises(ZeroVarianceError, match="'b'"):
            loo_eigenvalue_table(X, COR_N)

    def test_records_take_exact_columns_for_chosen_rows(self, oils):
        every = influence_records(oils, COV_N, 2, exact=True)
        some = influence_records(oils, COV_N, 2, exact=[58, 42])
        for a, b in zip(every, some):
            if a.obs_index in (42, 58):
                assert (a.sif_b, a.sci) == (b.sif_b, b.sci)
                assert np.array_equal(a.sif_eigen, b.sif_eigen)
            else:
                assert b.sif_b is None and b.sci is None and b.sif_eigen is None


class TestCliCost:
    @staticmethod
    def _spent(tmp_path, mode):
        with count_decompositions() as window:
            assert main(["influence", "--input", str(bundled_oils_path()),
                         "--label-col", "oil_type", "--mode", mode,
                         "--out", str(tmp_path / f"{mode}.json")]) == 0
        return window.total

    def test_exact_mode_is_one_reduced_decomposition_per_row(self, tmp_path):
        assert self._spent(tmp_path, "exact") == 96 + 1

    def test_hybrid_mode_decomposes_only_flagged_rows(self, tmp_path):
        # the (2,3) boundary flags 7 switches and 4 near switches
        assert self._spent(tmp_path, "hybrid") == 1 + 11


# Runs in a fresh interpreter: the report of an exact switching run needs
# rank alignment, which must not pull scipy in.
_SCIPY_CHECK = """
import sys
from eigensens.cli import main
if sys.argv[1:] and main(sys.argv[1:]) != 0:
    sys.exit("the run failed")
leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy modules loaded: {leaked}" if leaked else 0)
"""


@pytest.mark.parametrize("estimator", [None, "cov", "cor"],
                         ids=["import-only", "switching-exact-cov",
                              "switching-exact-cor"])
def test_cli_leaves_scipy_out(estimator, tmp_path):
    src = str(Path(eigensens.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [] if estimator is None else [
        "switching", "--mode", "exact", "--estimator", estimator,
        "--input", str(bundled_oils_path()), "--label-col", "oil_type",
        "--out", str(tmp_path / "report.json"),
    ]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_CHECK, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    if estimator is not None:
        events = json.loads((tmp_path / "report.json").read_text())["events"]
        assert any(ev["verified_exact"] is not None for ev in events)

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
    bundled_oils_path,
    count_decompositions,
    detect_near_switch,
    detect_switching,
    eif_eigenvalue,
    eigen_influence,
    eigh,
    eigh_stack,
    estimate,
    estimate_loo,
    influence_records,
    load_oils,
    loo_eigenvalue_table,
    sci,
    sif_b,
    sif_eigenvalue,
)
from eigensens import influence
from eigensens.cli import main
from eigensens.errors import DataError, ZeroVarianceError
from eigensens.influence import _chunk_rows

COR_N1 = EstimatorSpec("correlation", "n-1")
SPECS = [COV_N, COV_N1, COR_N, COR_N1]

# 400 rows of 30 columns: blocks of _chunk_rows(30) rows leave a partial one
SEEDED = gaussian_data(3, 400, np.linspace(3.0, 1.0, 30))


# every per-observation reference, on observation 58 of oils under COV_N, with
# the decompositions it costs: its own full-data one, and for the sample
# influences the reduced one as well
PER_ROW_COST = {
    "eif_eigenvalue": (lambda X: eif_eigenvalue(X, 2, 58), 1),
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
        engine = LooEngine(X, spec)
        table = loo_eigenvalue_table(engine)
        V = engine.eigen.vectors
        for i in range(1, X.n + 1):
            # Rayleigh quotients of one downdate at the full-data eigenvectors
            ref = np.einsum("jp,jk,kp->p", V, engine.loo_block(i, i)[0], V)
            assert np.array_equal(table[i - 1], ref), f"row {i}"

    @pytest.mark.parametrize("pairs", [[(1, 2), (2, 3)], [(2, 3), (5, 6)]],
                             ids=["contiguous", "scattered"])
    def test_pair_columns_equal_full_table_columns(self, X, spec, pairs):
        full = LooEngine(X, spec).table
        engine = LooEngine(X, spec)
        detect_switching(engine, pairs=pairs)
        cols = sorted({j - 1 for pair in pairs for j in pair})
        assert np.array_equal(engine._table[:, cols], full[:, cols])
        # the partly filled engine completes to the same table
        assert np.array_equal(engine.table, full)

    def test_rows_read_before_the_table_equal_table_rows(self, X, spec):
        # first, middle and last rows: at 400 rows they fall in both blocks
        rows = [X.n, 1, X.n // 2, 2]
        engine = LooEngine(X, spec)
        before = engine.table_rows(rows)
        detect_switching(engine, pairs=[(2, 3)])
        partial = engine.table_rows(rows)
        table = engine.table
        assert np.array_equal(before, table[np.array(rows) - 1])
        assert np.array_equal(partial, table[np.array(rows) - 1])
        assert np.array_equal(engine.table_rows(rows), table[np.array(rows) - 1])

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


@pytest.fixture
def projected(monkeypatch) -> list[tuple[int, list[int]]]:
    """(row count, 0-based columns) of every block of the table projected."""
    calls = []
    project = influence._rayleigh_block

    def spy(engine, rows, cols):
        calls.append((len(rows), sorted(cols.tolist())))
        return project(engine, rows, cols)

    monkeypatch.setattr(influence, "_rayleigh_block", spy)
    return calls


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

    def test_eigen_influence_costs_only_the_engine_decomposition(self, oils):
        with count_decompositions() as window:
            eif, hif = eigen_influence(LooEngine(oils, COV_N))
        assert window.total == 1
        assert eif.shape == hif.shape == (oils.n, oils.p)

    def test_table_is_computed_once(self, oils):
        engine = LooEngine(oils, COV_N)
        assert engine.table is engine.table

    def test_pair_scan_computes_only_its_columns(self, oils, projected):
        engine = LooEngine(oils, COV_N)
        detect_switching(engine, pairs=[(2, 3)])
        assert projected == [(96, [1, 2])]
        engine.table
        assert projected == [(96, [1, 2]), (96, [0, 3, 4, 5, 6])]
        detect_switching(engine, pairs=[(2, 3)])
        detect_near_switch(engine, pairs=[(1, 2)])
        engine.table
        assert len(projected) == 2

    def test_table_rows_project_only_the_rows_asked_for(self, oils, projected):
        engine = LooEngine(oils, COV_N)
        engine.table_rows([58, 3])
        assert projected == [(2, list(range(7)))]
        engine.table
        engine.table_rows([58, 3])
        assert projected == [(2, list(range(7))), (96, list(range(7)))]

    def test_table_rows_reject_out_of_range_rows(self, oils):
        with pytest.raises(DataError, match="out of range"):
            LooEngine(oils, COV_N).table_rows([0])

    def test_reduced_rejects_out_of_range_rows(self, oils):
        with pytest.raises(DataError, match="out of range"):
            list(LooEngine(oils, COV_N).reduced([97]))

    def test_fewer_than_three_rows_are_refused(self):
        X = DataMatrix(np.array([[1.0, 2.0], [3.0, 5.0]]))
        with pytest.raises(DataError, match="at least 3"):
            LooEngine(X, COV_N)

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
            loo_eigenvalue_table(LooEngine(X, COR_N))

    def test_records_take_exact_columns_for_chosen_rows(self, oils):
        engine = LooEngine(oils, COV_N)
        every = influence_records(engine, 2, exact=range(1, oils.n + 1))
        some = influence_records(engine, 2, exact=[58, 42])
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

    def test_pair_report_projects_its_columns_and_flagged_rows(self, tmp_path,
                                                               projected):
        assert main(["switching", "--input", str(bundled_oils_path()),
                     "--label-col", "oil_type", "--pairs", "2:3",
                     "--out", str(tmp_path / "report.json")]) == 0
        flagged = json.loads((tmp_path / "report.json").read_text())["loo_eigenvalues"]
        assert projected == [(96, [1, 2]), (len(flagged), list(range(7)))]


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

"""The shared leave-one-out engine against the per-observation reference paths."""

import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigensens

from conftest import COR_N, COV_N, COV_N1, event_table, gaussian_data
from reference import (
    canonical_correlations,
    eif_eigenvalue,
    sci,
    sif_b,
    sif_eigenvalue,
    subspace_alignment,
)
from eigensens import (
    DataMatrix,
    EstimatorSpec,
    LooEngine,
    build_switch_report,
    bundled_oils_path,
    count_decompositions,
    eigen_influence,
    eigh,
    eigh_stack,
    estimate,
    estimate_loo,
    hybrid_influence,
    influence_records,
    load_oils,
    loo_eigenvalue_table,
    recommend_L,
    scan_events,
    verify_exact,
)
from eigensens import dataset, influence, subspace_diag, switching
from eigensens.cli import main
from eigensens.errors import ConvergenceError, DataError, ZeroVarianceError
from eigensens.influence import _chunk_rows
from eigensens.subspace_diag import _exact
from eigensens.switching import DEFAULT_NEAR_DELTA, KIND_NEAR, KIND_SWITCH

COR_N1 = EstimatorSpec("correlation", "n-1")
SPECS = [COV_N, COV_N1, COR_N, COR_N1]

# verification decomposes the engine's rank-one downdates, not rebuilt
# estimates: its aligned eigenvalues match the reference path to this share of
# max |lambda| (about 2e-15 measured on oils and SEEDED)
ALIGNED_TOL = 1e-13
# a downdated covariance entry's error against exact rational arithmetic, as a
# share of the largest entry: at most 7.4e-16 on the oils rows tested
DOWNDATE_TOL = 1e-14

# 400 rows of 30 columns: three or more blocks of _chunk_rows(30) rows, the
# last one partial
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
    assert SEEDED.n > 2 * _chunk_rows(SEEDED.p)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.divisor}")
@pytest.mark.parametrize("X", _datasets())
class TestAgainstReference:
    def test_engine_decomposition_equals_estimate(self, X, spec):
        # the engine scales its own scatter; the bits are those of estimate
        E = LooEngine(X, spec).eigen
        ref = eigh(estimate(X, spec))
        assert np.array_equal(E.values, ref.values)
        assert np.array_equal(E.vectors, ref.vectors)
        assert E.gap_warnings == ref.gap_warnings

    def test_table_rows_equal_per_row_approximation(self, X, spec):
        engine = LooEngine(X, spec)
        table = loo_eigenvalue_table(engine)
        V = engine.eigen.vectors
        for i in range(1, X.n + 1):
            # Rayleigh quotients of one downdate at the full-data eigenvectors
            ref = np.einsum("jp,jk,kp->p", V, engine._loo_stack(np.array([i - 1]))[0], V)
            assert np.array_equal(table[i - 1], ref), f"row {i}"

    @pytest.mark.parametrize("pairs", [[(1, 2), (2, 3)], [(2, 3), (5, 6)]],
                             ids=["contiguous", "scattered"])
    def test_pair_columns_equal_full_table_columns(self, X, spec, pairs):
        full = LooEngine(X, spec).table
        engine = LooEngine(X, spec)
        scan_events(engine, pairs)
        cols = sorted({j - 1 for pair in pairs for j in pair})
        assert np.array_equal(engine._table[:, cols], full[:, cols])
        # the partly filled engine completes to the same table
        assert np.array_equal(engine.table, full)

    def test_rows_read_before_the_table_equal_table_rows(self, X, spec):
        # first, middle and last rows: at 400 rows they fall in both blocks
        rows = [X.n, 1, X.n // 2, 2]
        engine = LooEngine(X, spec)
        before = engine.table_rows(rows)
        scan_events(engine, [(2, 3)])
        partial = engine.table_rows(rows)
        table = engine.table
        assert np.array_equal(before, table[np.array(rows) - 1])
        assert np.array_equal(partial, table[np.array(rows) - 1])
        assert np.array_equal(engine.table_rows(rows), table[np.array(rows) - 1])

    def test_rebuilt_systems_equal_reference_decompositions(self, X, spec, rebuilt,
                                                            monkeypatch):
        # one thread, so that the spy sees the blocks in order
        monkeypatch.setattr(influence, "_PAIRED", False)
        influence_records(LooEngine(X, spec), 2, exact=range(1, X.n + 1))
        assert all(len(mats) <= _chunk_rows(X.p) for mats, _ in rebuilt)
        mats = np.concatenate([mats for mats, _ in rebuilt])
        values = np.concatenate([got[0] for _, got in rebuilt])
        vectors = np.concatenate([got[1] for _, got in rebuilt])
        tied = np.concatenate([got[2] for _, got in rebuilt])
        assert len(mats) == X.n
        for i in range(1, X.n + 1):
            ref = estimate_loo(X, spec, i)
            assert np.array_equal(mats[i - 1], ref.matrix), f"obs {i}"
            E_loo = eigh(ref)
            assert np.array_equal(values[i - 1], E_loo.values), f"obs {i}"
            assert np.array_equal(vectors[i - 1], E_loo.vectors), f"obs {i}"
            assert [(j + 1, j + 2) for j in np.flatnonzero(tied[i - 1])] == \
                E_loo.gap_warnings, f"obs {i}"

    def test_exact_sweep_equals_per_row_references(self, X, spec):
        engine = LooEngine(X, spec)
        E, n, p = engine.eigen, X.n, X.p
        centered = X.values - X.values.mean(axis=0)
        reduced = [eigh(estimate_loo(X, spec, i)) for i in range(1, n + 1)]
        for L in sorted({1, 2, p - 1, p}):
            records = influence_records(engine, L, exact=range(1, n + 1))
            V = E.vectors[:, :L].copy()
            for record, E_loo in zip(records, reduced):
                i = record.obs_index
                assert np.array_equal(record.sif_eigen,
                                      -(n - 1) * (E_loo.values - E.values)), f"obs {i}"
                assert type(record.sif_b) is float and type(record.sci) is float
                if L == p:
                    assert record.sif_b == record.sci == 0.0
                    continue
                W = E_loo.vectors[:, :L].copy()
                ref_b = (n - 1) * (subspace_alignment(V, W) - 1.0)
                r = canonical_correlations(centered @ V, centered @ W)
                ref_c = (n - 1) ** 2 * (1.0 - np.mean(r**2))
                assert record.sif_b == ref_b, f"L={L} obs {i}"
                assert record.sci == ref_c, f"L={L} obs {i}"

    def test_aligned_downdates_equal_aligned_references(self, X, spec):
        engine = LooEngine(X, spec)
        aligned = switching._aligned_exact(engine, np.arange(X.n))
        for i in range(1, X.n + 1):
            E_loo = eigh(estimate_loo(X, spec, i))
            where = switching._align_ranks(engine.eigen, E_loo.vectors[np.newaxis])[0]
            want = E_loo.values[where]
            error = np.max(np.abs(aligned[i - 1] - want))
            assert error <= ALIGNED_TOL * np.max(np.abs(want)), f"obs {i}"

    def test_verify_exact_verdicts_equal_per_row_alignment(self, X, spec):
        engine = LooEngine(X, spec)
        # both kinds on every cell, each row with its own approximate values,
        # shuffled: verification sorts by pair, then observation, stably
        keys = [(i, j, kind) for i in range(1, X.n + 1) for j in (1, 2, X.p - 1)
                for kind in (KIND_SWITCH, KIND_NEAR)]
        cells = [(i, j, float(k), -float(k), kind) for k, (i, j, kind) in enumerate(keys)]
        shuffled = [cells[k] for k in np.random.default_rng(5).permutation(len(cells))]
        aligned = {}
        for i in range(1, X.n + 1):
            E_loo = eigh(estimate_loo(X, spec, i))
            where = switching._align_ranks(engine.eigen, E_loo.vectors[np.newaxis])[0]
            aligned[i] = E_loo.values[where]
        verified = list(verify_exact(event_table(X.row_labels, shuffled), engine))
        assert [(ev.obs_index, ev.pair[0], ev.approx_lo, ev.approx_hi, ev.kind)
                for ev in verified] == sorted(shuffled, key=lambda c: (c[1], c[0]))
        for ev in verified:
            lo, hi = aligned[ev.obs_index][[ev.pair[0] - 1, ev.pair[1] - 1]]
            want = lo < hi if ev.kind == KIND_SWITCH else abs(lo - hi) < DEFAULT_NEAR_DELTA
            assert ev.verified_exact is bool(want), f"obs {ev.obs_index} pair {ev.pair}"


@pytest.mark.parametrize("spec", [COV_N, COR_N], ids=["cov", "cor"])
@pytest.mark.parametrize("X", _datasets())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_advice_does_not_depend_on_the_scanned_pairs(X, spec, data):
    L = data.draw(st.integers(1, X.p - 1), label="candidate_L")
    lows = data.draw(st.sets(st.integers(1, X.p - 1), min_size=1), label="pair lows")
    restricted = build_switch_report(LooEngine(X, spec), candidate_L=L,
                                     pairs=[(j, j + 1) for j in lows])
    full = build_switch_report(LooEngine(X, spec), candidate_L=L)
    assert restricted.recommendation == full.recommendation


@pytest.mark.parametrize("spec", [COV_N, COV_N1], ids=["n", "n-1"])
@pytest.mark.parametrize("i", [1, 57, 96])
def test_downdates_are_within_tolerance_of_exact_arithmetic(oils, spec, i):
    rest = [[Fraction(x) for x in row]
            for k, row in enumerate(oils.values.tolist()) if k != i - 1]
    m, p = len(rest), oils.p
    sums = [sum(row[a] for row in rest) for a in range(p)]
    exact = [(sum(row[a] * row[b] for row in rest) - sums[a] * sums[b] / m)
             / spec.denominator(m) for a in range(p) for b in range(p)]
    bound = DOWNDATE_TOL * max(map(abs, exact))
    # the downdate, and the rebuilt reference beside it
    for got in (LooEngine(oils, spec)._loo_stack(np.array([i - 1]))[0],
                estimate_loo(oils, spec, i).matrix):
        assert max(abs(Fraction(g) - e) for g, e in zip(got.ravel().tolist(), exact)) <= bound


@pytest.fixture
def scatters(monkeypatch) -> list[int]:
    """Row counts of every scatter formed, from whichever module forms it."""
    calls = []
    scatter = dataset._scatter

    def spy(values, *args, **kwargs):
        calls.append(len(values))
        return scatter(values, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("eigensens") and getattr(module, "_scatter", None) is scatter:
            monkeypatch.setattr(module, "_scatter", spy)
    return calls


@pytest.fixture
def rebuilt(monkeypatch) -> list[tuple[np.ndarray, tuple]]:
    """(stack, result) of every stacked decomposition of the exact pass."""
    calls = []
    decompose = subspace_diag.eigh_stack

    def spy(mats):
        calls.append((mats, decompose(mats)))
        return calls[-1][1]

    monkeypatch.setattr(subspace_diag, "eigh_stack", spy)
    return calls


@pytest.fixture
def projected(monkeypatch) -> list[tuple[int, list[int]]]:
    """(row count, 0-based columns) of every block of the table projected."""
    calls = []
    project = LooEngine._rayleigh

    def spy(engine, index, V):
        if len(index):  # not the empty block that shapes a sweep's outputs
            # the full-data rank of each orthonormal column of V
            ranks = np.argmax(np.abs(engine.eigen.vectors.T @ V), axis=0)
            calls.append((len(index), sorted(ranks.tolist())))
        return project(engine, index, V)

    monkeypatch.setattr(LooEngine, "_rayleigh", spy)
    return calls


@pytest.fixture
def rebuilds(monkeypatch) -> list[int]:
    """Row count of every block of reduced estimates rebuilt."""
    calls = []
    rebuild = LooEngine._loo_rebuild

    def spy(engine, index):
        if len(index):  # not the empty block that shapes a sweep's outputs
            calls.append(len(index))
        return rebuild(engine, index)

    monkeypatch.setattr(LooEngine, "_loo_rebuild", spy)
    return calls


class TestEngine:
    def test_stacked_call_counts_every_matrix(self):
        mats = np.stack([estimate(SEEDED, COV_N).matrix] * 5)
        with count_decompositions() as window:
            values, vectors, tied = eigh_stack(mats)
        assert window.total == 5
        assert len(values) == len(vectors) == len(tied) == 5

    def test_exact_pass_costs_one_decomposition_per_distinct_row(self, oils):
        engine = LooEngine(oils, COV_N)
        with count_decompositions() as window:
            rows, values, sif_b, sci = _exact(engine, 2, [58, 3, 42, 58], sci=True)
        assert window.total == 3
        assert rows.tolist() == [3, 42, 58]
        assert len(values) == len(sif_b) == len(sci) == 3

    def test_verification_decomposes_downdates_and_rebuilds_nothing(self, oils,
                                                                     scatters):
        engine = LooEngine(oils, COV_N)
        assert scatters == [oils.n]
        events = scan_events(engine, delta=DEFAULT_NEAR_DELTA)
        flagged = sorted(set(events.obs.tolist()))
        assert len(events) > len(flagged)
        with count_decompositions() as window:
            verify_exact(events, engine)
        assert window.total == len(flagged)
        assert scatters == [oils.n]
        # the sweeps that print exact values rebuild each of their rows
        with count_decompositions() as window:
            influence_records(engine, 2, exact=flagged)
            hybrid_influence(engine, 2, flagged)
        assert window.total == 2 * len(flagged)
        assert scatters == [oils.n] + [oils.n - 1] * 2 * len(flagged)

    def test_results_do_not_depend_on_block_size(self, oils, monkeypatch, rebuilds):
        rows = range(1, oils.n + 1)

        def sweep():
            engine = LooEngine(oils, COV_N)
            with count_decompositions() as window:
                records = [
                    (r.sif_b, r.sci, r.sif_eigen.tolist())
                    for L in (2, 3)
                    for r in influence_records(engine, L, exact=rows)
                ]
                events = scan_events(engine, delta=DEFAULT_NEAR_DELTA)
                events = list(verify_exact(events, engine))
                hybrid = hybrid_influence(engine, 2, rows).tolist()
            return records, events, hybrid, window.total

        default = sweep()
        monkeypatch.setattr(influence, "CHUNK_ENTRIES", 1 << 10)
        # blocks of 20 reduced matrices, the last one partial, and score
        # sub-blocks of 5 (L = 2) and 3 (L = 3) rows within them
        engine = LooEngine(oils, COV_N)
        del rebuilds[:]
        _exact(engine, 2, rows)
        assert rebuilds == [20, 20, 20, 20, 16]
        assert (_chunk_rows(oils.n, 2), _chunk_rows(oils.n, 3)) == (5, 3)
        small = sweep()
        assert small == default
        # one reduced decomposition per row for each of the four sweeps
        flagged = {ev.obs_index for ev in default[1]}
        assert default[3] == 2 * oils.n + len(flagged) + oils.n

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
        scan_events(engine, [(2, 3)])
        assert projected == [(96, [1, 2])]
        engine.table
        assert projected == [(96, [1, 2]), (96, [0, 3, 4, 5, 6])]
        scan_events(engine, [(2, 3)])
        scan_events(engine, [(1, 2)], delta=DEFAULT_NEAR_DELTA)
        engine.table
        assert len(projected) == 2

    def test_retention_walk_computes_the_columns_of_the_boundaries_it_visits(
            self, oils, projected):
        # (2,3) switches, (3,4) is clean: the walk stops there
        assert recommend_L(LooEngine(oils, COV_N), 2).L == 3
        assert projected == [(96, [1, 2]), (96, [3])]

    def test_table_rows_project_only_the_rows_asked_for(self, oils, projected):
        engine = LooEngine(oils, COV_N)
        engine.table_rows([58, 3])
        assert projected == [(2, list(range(7)))]
        engine.table
        engine.table_rows([58, 3])
        assert projected == [(2, list(range(7))), (96, list(range(7)))]

    def test_empty_sweeps_give_empty_outputs_and_decompose_nothing(self, oils):
        engine = LooEngine(oils, COV_N)
        with count_decompositions() as window:
            assert engine.table_rows([]).shape == (0, oils.p)
            rows, values, sif_b, sci = _exact(engine, 2, [], sci=True)
        assert window.total == 0
        assert (rows.shape, values.shape, sif_b.shape, sci.shape) == (
            (0,), (0, oils.p), (0,), (0,))

    def test_table_rows_reject_out_of_range_rows(self, oils):
        with pytest.raises(DataError, match="out of range"):
            LooEngine(oils, COV_N).table_rows([0])

    @pytest.mark.parametrize("row", [0, 97])
    def test_exact_sweeps_reject_out_of_range_rows(self, oils, row):
        engine = LooEngine(oils, COV_N)
        with count_decompositions() as window:
            with pytest.raises(DataError, match="out of range"):
                influence_records(engine, 2, exact=[3, row])
            with pytest.raises(DataError, match="out of range"):
                hybrid_influence(engine, 2, [row, 3])
        assert window.total == 0

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


def _sweep(X, spec):
    """The table and the exact pass (rows, values, sif_b, sci) at L = 2 of
    every row of ``X``, from a fresh engine."""
    engine = LooEngine(X, spec)
    return engine.table, _exact(engine, 2, range(1, X.n + 1), sci=True)


@pytest.fixture
def stacks(monkeypatch) -> list[tuple[str, np.ndarray]]:
    """(thread name, stack) of every stacked decomposition of the exact pass."""
    calls = []
    decompose = subspace_diag.eigh_stack

    def spy(mats):
        if len(mats):  # not the empty block that shapes a sweep's outputs
            calls.append((threading.current_thread().name, mats))
        return decompose(mats)

    monkeypatch.setattr(subspace_diag, "eigh_stack", spy)
    return calls


class TestPairedBlocks:
    """The sweeps' second block of each pair on a helper thread, against one thread."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.divisor}")
    def test_helper_thread_changes_no_bit(self, spec, monkeypatch, stacks):
        monkeypatch.setattr(influence, "_PAIRED", False)
        table, exact = _sweep(SEEDED, spec)
        records = influence_records(LooEngine(SEEDED, spec), 2,
                                    exact=range(1, SEEDED.n + 1))
        assert {name for name, _ in stacks} == {threading.main_thread().name}
        blocks = len(stacks) // 2
        assert blocks >= 3
        monkeypatch.setattr(influence, "_PAIRED", True)
        del stacks[:]
        paired_table, paired_exact = _sweep(SEEDED, spec)
        # the second block of each pair went to a helper, one per pair
        helpers = {name for name, _ in stacks} - {threading.main_thread().name}
        assert len(helpers) == blocks // 2
        assert np.array_equal(paired_table, table)
        for got, want in zip(paired_exact, exact):
            assert np.array_equal(got, want)
        paired = influence_records(LooEngine(SEEDED, spec), 2,
                                   exact=range(1, SEEDED.n + 1))
        assert [(r.sif_b, r.sci, r.sif_eigen.tolist()) for r in paired] == [
            (r.sif_b, r.sci, r.sif_eigen.tolist()) for r in records]

    @pytest.mark.parametrize("paired", [False, True], ids=["one-thread", "paired"])
    @pytest.mark.parametrize("failing", [(0, 1), (1, 2), (1,)],
                             ids=["both-of-a-pair", "across-pairs", "second"])
    def test_the_first_error_in_row_order_wins(self, paired, failing, monkeypatch,
                                               stacks):
        monkeypatch.setattr(influence, "_PAIRED", False)
        _sweep(SEEDED, COV_N)
        doomed = {k: stacks[k][1] for k in failing}

        def fail(mats):
            for k, stack in doomed.items():
                if np.array_equal(mats, stack):
                    raise ConvergenceError(f"no convergence in block {k}")
            return eigh_stack(mats)

        monkeypatch.setattr(influence, "_PAIRED", paired)
        monkeypatch.setattr(subspace_diag, "eigh_stack", fail)
        before = threading.active_count()
        engine = LooEngine(SEEDED, COV_N)
        with pytest.raises(ConvergenceError, match=f"block {failing[0]}$"):
            _exact(engine, 2, range(1, SEEDED.n + 1))
        assert threading.active_count() == before

    def test_no_helper_outlives_the_sweep(self, monkeypatch, stacks):
        monkeypatch.setattr(influence, "_PAIRED", True)
        before = threading.active_count()
        engine = LooEngine(SEEDED, COV_N)
        _exact(engine, 2, range(1, SEEDED.n + 1))
        assert len({name for name, _ in stacks}) > 1
        assert threading.active_count() == before

    def test_blocks_only_read_the_full_data_side(self, monkeypatch):
        # the full-data side is built on the calling thread before the sweep;
        # frozen there, with the engine's own arrays, a block that wrote to
        # it, on either thread, would raise
        monkeypatch.setattr(influence, "_PAIRED", True)
        rows = range(1, SEEDED.n + 1)
        want = _exact(LooEngine(SEEDED, COV_N), 2, rows, sci=True)
        engine = LooEngine(SEEDED, COV_N)
        sweep, frozen = engine._sweep, []

        def freeze(rows, block):
            frozen.extend(c.cell_contents for c in block.__closure__
                          if isinstance(c.cell_contents, np.ndarray))
            for a in [*frozen, *vars(engine).values(), *vars(engine.eigen).values(),
                      engine.X.values]:
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            return sweep(rows, block)

        monkeypatch.setattr(engine, "_sweep", freeze)
        got = _exact(engine, 2, rows, sci=True)
        # the retained basis, the centred data and the basis of its scores
        assert len(frozen) == 3
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_counts_are_exact_across_threads(self, monkeypatch):
        monkeypatch.setattr(influence, "_PAIRED", True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            engine = LooEngine(SEEDED, COV_N)
            rows = range(1, SEEDED.n + 1)
            events = event_table(SEEDED.row_labels,
                                 [(i, 1, 0.0, 0.0, KIND_NEAR) for i in rows])
            for _ in range(20):
                with count_decompositions() as verify:
                    verify_exact(events, engine)
                with count_decompositions() as records:
                    influence_records(engine, 2, exact=rows)
                assert (verify.total, records.total) == (SEEDED.n, SEEDED.n)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("paired", [False, True], ids=["one-thread", "paired"])
    @pytest.mark.parametrize("b_row, c_row", [(12, 30), (12, 5)])
    def test_a_zero_variance_names_the_first_row_without_which_it_falls(
            self, monkeypatch, paired, b_row, c_row):
        # columns b and c vary only at one row each, by dyadic values, so
        # that their downdated variances there are exactly 0; blocks of 7
        # rows put row 12 on the helper thread and rows 5 and 30 on the
        # calling one
        monkeypatch.setattr(influence, "_PAIRED", paired)
        monkeypatch.setattr(influence, "CHUNK_ENTRIES", 64)
        values = np.zeros((32, 3))
        values[:, 0] = np.arange(32.0) % 5
        values[b_row - 1, 1] = values[c_row - 1, 2] = 32.0
        X = DataMatrix(values, col_labels=["a", "b", "c"])
        name, row = min((b_row, "b"), (c_row, "c"))[::-1]
        message = f"^column '{name}' has zero variance without observation {row};"
        engine = LooEngine(X, COR_N)
        assert _chunk_rows(X.p) == 7
        with pytest.raises(ZeroVarianceError, match=message):
            loo_eigenvalue_table(engine)
        with pytest.raises(ZeroVarianceError, match=message):
            _exact(engine, 1, range(1, X.n + 1))


def test_every_sweep_goes_through_the_engine_sweep(oils, monkeypatch):
    calls = []
    sweep = LooEngine._sweep

    def spy(engine, rows, block):
        calls.append(rows)
        return sweep(engine, rows, block)

    monkeypatch.setattr(LooEngine, "_sweep", spy)
    engine = LooEngine(oils, COV_N)
    engine.table_rows([58, 3])
    scan_events(engine, [(2, 3)])
    events = scan_events(engine, [(2, 3)], delta=DEFAULT_NEAR_DELTA)
    verify_exact(events, engine)
    influence_records(engine, 2, exact=[42, 7])
    hybrid_influence(engine, 2, [9])
    engine.table
    assert [list(rows) for rows in calls] == [
        [58, 3], list(range(1, oils.n + 1)), sorted(set(events.obs.tolist())),
        [7, 42], [9], list(range(1, oils.n + 1))]


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
        # the retention walk leaves (2,3) for the clean (3,4): one more column
        assert projected == [(96, [1, 2]), (96, [3]), (len(flagged), list(range(7)))]

    def test_influence_hybrid_scans_its_boundary_and_gives_no_advice(
            self, tmp_path, projected, monkeypatch):
        advised = []
        monkeypatch.setattr(switching, "recommend_L",
                            lambda *args, **kw: advised.append(args))
        assert main(["influence", "--input", str(bundled_oils_path()),
                     "--label-col", "oil_type", "--mode", "hybrid",
                     "--out", str(tmp_path / "report.json")]) == 0
        # the (2,3) scan, then the rest of the table for the eigenvalue influence
        assert projected == [(96, [1, 2]), (96, [0, 3, 4, 5, 6])]
        assert advised == []


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


# Runs in a fresh interpreter that loads numpy before eigensens, with no BLAS
# thread count set: the package then writes nothing to the environment, and
# the sweeps run on one thread.
_NUMPY_FIRST = """
import os
import sys
import numpy
before = dict(os.environ)
from eigensens import influence
changed = sorted(set(os.environ.items()) ^ set(before.items()))
print(influence._PAIRED, changed)
"""


def test_numpy_loaded_first_leaves_the_environment_and_the_pairing_off():
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    src = str(Path(eigensens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FIRST],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False []"

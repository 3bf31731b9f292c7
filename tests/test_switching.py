import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensens import (
    LooEngine,
    NoValidRetentionError,
    build_switch_report,
    count_decompositions,
    hybrid_influence,
    influence_records,
    recommend_L,
    scan_events,
    verify_exact,
)
from eigensens import switching
from eigensens.eigen import EigenSystem
from eigensens.errors import DataError
from eigensens.subspace_diag import eif_b_series, scia_series
from eigensens.switching import DEFAULT_NEAR_DELTA, KIND_NEAR, KIND_SWITCH, SwitchEvent

from conftest import COR_N, COV_N, event_table, gaussian_data, make_data
from reference import sci, sif_b


def switch_set(events, pair=None):
    return sorted({
        ev.obs_index
        for ev in events
        if ev.kind == KIND_SWITCH and (pair is None or ev.pair == pair)
    })


class TestDetectSwitching:
    def test_oils_pair_2_3(self, oils):
        events = scan_events(LooEngine(oils, COV_N))
        assert switch_set(events, (2, 3)) == [42, 57, 58, 59, 60, 91, 93]
        assert switch_set(events, (1, 2)) == []
        assert switch_set(events, (3, 4)) == []

    def test_events_store_the_values_they_compared(self, oils):
        for ev in scan_events(LooEngine(oils, COV_N)):
            assert ev.approx_lo < ev.approx_hi
            assert ev.kind == KIND_SWITCH

    def test_well_separated_spectrum_is_quiet(self):
        X = gaussian_data(2, 40, [10.0, 3.0, 1.0, 0.3])
        assert len(scan_events(LooEngine(X, COV_N))) == 0

    def test_planted_leverage_point(self, planted_switch):
        X, planted = planted_switch
        events = scan_events(LooEngine(X, COV_N))
        assert [(ev.obs_index, ev.pair) for ev in events] == [(planted, (2, 3))]
        verified = verify_exact(events, LooEngine(X, COV_N))
        assert [ev.verified_exact for ev in verified] == [True]

    def test_pair_restriction_matches_full_scan(self, oils):
        full = scan_events(LooEngine(oils, COV_N))
        only = scan_events(LooEngine(oils, COV_N), [(2, 3)])
        assert [ev for ev in full if ev.pair == (2, 3)] == list(only)

    def test_invalid_pair_rejected(self, oils):
        with pytest.raises(ValueError, match="consecutive"):
            scan_events(LooEngine(oils, COV_N), [(2, 4)])

    def test_events_sorted_by_pair_then_observation(self, oils):
        events = scan_events(LooEngine(oils, COV_N))
        keys = [(ev.pair, ev.obs_index) for ev in events]
        assert keys == sorted(keys)


class TestDetectNearSwitch:
    def test_oils_near_set_includes_known_observations(self, oils):
        events = scan_events(LooEngine(oils, COV_N), [(2, 3)], delta=0.1)
        nears = sorted({
            ev.obs_index for ev in events if ev.kind == KIND_NEAR
        })
        assert nears == [28, 90, 94, 95]

    def test_switching_observations_keep_the_stronger_kind(self, oils):
        events = scan_events(LooEngine(oils, COV_N), [(2, 3)], delta=0.1)
        kinds = {ev.obs_index: ev.kind for ev in events}
        for i in (42, 58, 60):
            assert kinds[i] == KIND_SWITCH

    def test_zero_delta_rejected(self, oils):
        with pytest.raises(ValueError, match="positive"):
            scan_events(LooEngine(oils, COV_N), delta=0.0)

    def test_infinite_delta_flags_everything(self, oils):
        events = scan_events(LooEngine(oils, COV_N), delta=np.inf)
        assert len(events) == oils.n * (oils.p - 1)

    def test_near_events_satisfy_their_inequality(self, oils):
        for ev in scan_events(LooEngine(oils, COV_N), delta=0.1):
            if ev.kind == KIND_NEAR:
                assert abs(ev.approx_lo - ev.approx_hi) < 0.1
            else:
                assert ev.approx_lo < ev.approx_hi

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_soundness_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        p = int(rng.integers(2, 5))
        X = make_data(rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p))
        for ev in scan_events(LooEngine(X, COV_N)):
            assert ev.kind == KIND_SWITCH
            assert ev.approx_lo < ev.approx_hi
        delta = float(rng.uniform(0.01, 0.5))
        for ev in scan_events(LooEngine(X, COV_N), delta=delta):
            if ev.kind == KIND_NEAR:
                assert abs(ev.approx_lo - ev.approx_hi) < delta
                assert ev.approx_lo >= ev.approx_hi
            else:
                assert ev.approx_lo < ev.approx_hi


def _per_cell_events(engine, pairs, delta):
    """The events of a loop over every cell of the table: the switches alone,
    and the switches together with the cells within ``delta``."""
    table, labels = engine.table, engine.X.row_labels
    switches, with_nears = [], []
    for j in sorted({j for j, _ in pairs}):
        for i in range(1, engine.n + 1):
            lo, hi = table[i - 1, j - 1].item(), table[i - 1, j].item()
            ev = SwitchEvent(i, labels[i - 1], (j, j + 1), lo, hi,
                             KIND_SWITCH if lo < hi else KIND_NEAR)
            if lo < hi:
                switches.append(ev)
            if lo < hi or abs(lo - hi) < delta:
                with_nears.append(ev)
    return switches, with_nears


class TestScanAgainstPerCellLoop:
    @given(seed=st.integers(0, 10**6), spec=st.sampled_from([COV_N, COR_N]),
           restrict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_tables_equal_a_loop_over_the_table(self, seed, spec, restrict):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        p = int(rng.integers(2, 6))
        X = make_data(rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p))
        delta = float(rng.uniform(0.01, 0.5))
        # unsorted and repeated pairs come out sorted and once each
        lows = rng.integers(1, p, size=int(rng.integers(1, p + 1)))
        pairs = [(int(j), int(j) + 1) for j in lows] if restrict else None
        engine = LooEngine(X, spec)
        switches = list(scan_events(engine, pairs))
        nears = list(scan_events(engine, pairs, delta=delta))
        want = _per_cell_events(engine, pairs or [(j, j + 1) for j in range(1, p)],
                                delta)
        assert (switches, nears) == want
        for ev in nears:
            assert (type(ev.obs_index), type(ev.approx_lo), type(ev.approx_hi)) == (
                int, float, float)


class TestEventTable:
    """The columnar event table: its length, row views, columns and masks."""

    LABELS = ["a", "b", "c", "d"]
    ROWS = [(1, 1, 0.5, 0.75, KIND_SWITCH), (3, 1, 0.25, 0.2, KIND_NEAR),
            (2, 2, 1.5, 1.45, KIND_NEAR), (4, 3, 0.1, 0.3, KIND_SWITCH),
            (4, 3, 0.1, 0.3, KIND_NEAR), (2, 3, 0.0, 1.0, KIND_SWITCH)]

    def test_iteration_yields_switch_event_rows_in_table_order(self):
        table = event_table(self.LABELS, self.ROWS)
        assert len(table) == len(self.ROWS)
        assert list(table) == [
            SwitchEvent(i, self.LABELS[i - 1], (j, j + 1), lo, hi, kind)
            for i, j, lo, hi, kind in self.ROWS
        ]
        for ev in table:
            assert ev.verified_exact is None
            assert (type(ev.obs_index), type(ev.pair[0]), type(ev.pair[1]),
                    type(ev.approx_lo), type(ev.approx_hi)) == (
                int, int, int, float, float)

    def test_verdicts_come_out_as_python_bools(self):
        verdicts = [True, False, True, True, False, False]
        table = event_table(self.LABELS, self.ROWS, verdicts)
        assert [ev.verified_exact for ev in table] == verdicts
        assert all(type(ev.verified_exact) is bool for ev in table)

    def test_columns_pair_labels_and_kinds_with_each_row(self):
        columns = event_table(self.LABELS, self.ROWS).columns()
        obs, labels, low, high, lo, hi, kinds, verdicts = columns
        assert obs == [row[0] for row in self.ROWS]
        assert labels == [self.LABELS[i - 1] for i in obs]
        assert high == [j + 1 for j in low]
        assert (lo, hi) == ([row[2] for row in self.ROWS],
                            [row[3] for row in self.ROWS])
        assert kinds == [row[4] for row in self.ROWS]
        assert verdicts == [None] * len(self.ROWS)

    def test_verify_exact_keeps_the_rows_and_leaves_its_input_unverified(self, oils):
        engine = LooEngine(oils, COV_N)
        events = scan_events(engine, delta=DEFAULT_NEAR_DELTA)
        verified = verify_exact(events, engine)
        assert events.verified is None
        for name in ("obs", "low", "approx_lo", "approx_hi", "switch"):
            assert np.array_equal(getattr(verified, name), getattr(events, name))
        assert verified.labels is events.labels
        assert verified.delta == events.delta == DEFAULT_NEAR_DELTA
        assert verified.verified.dtype == bool
        assert len(verified.verified) == len(events) > 0


class TestVerifyExact:
    def test_oils_obs57_confirmed(self, oils):
        events = scan_events(LooEngine(oils, COV_N), [(2, 3)])
        verified = verify_exact(events, LooEngine(oils, COV_N))
        status = {ev.obs_index: ev.verified_exact for ev in verified}
        assert status[57] is True

    def test_empty_in_empty_out(self, oils):
        with count_decompositions() as window:
            verified = verify_exact(event_table(oils.row_labels, []),
                                    LooEngine(oils, COV_N))
        assert len(verified) == 0
        assert window.total == 1

    @pytest.mark.parametrize("delta", [None, 0.0, -1.0, np.nan])
    def test_near_switch_without_a_positive_delta_rejected(self, oils, delta):
        engine = LooEngine(oils, COV_N)
        events = event_table(oils.row_labels, [(1, 2, 0.0, 0.0, KIND_SWITCH),
                                               (2, 2, 0.0, 0.0, KIND_NEAR)],
                             delta=delta)
        with count_decompositions() as window:
            with pytest.raises(ValueError, match="delta must be positive"):
                verify_exact(events, engine)
        # refused before any reduced decomposition
        assert window.total == 0

    def test_switches_alone_need_no_delta(self, oils):
        engine = LooEngine(oils, COV_N)
        events = scan_events(engine)
        assert events.delta is None
        verified = verify_exact(events, engine)
        assert verified.delta is None and verified.verified.all()

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.5, 2.0])
    def test_near_switches_are_judged_by_the_scan_delta(self, oils, delta):
        engine = LooEngine(oils, COV_N)
        verified = verify_exact(scan_events(engine, delta=delta), engine)
        assert verified.delta == delta
        aligned = switching._aligned_exact(engine, verified.obs - 1)
        lo = aligned[np.arange(len(verified)), verified.low - 1]
        hi = aligned[np.arange(len(verified)), verified.low]
        near = ~verified.switch
        assert np.array_equal(verified.verified[near], np.abs(lo - hi)[near] < delta)
        if delta == 0.5:
            assert (near.sum(), verified.verified[near].sum()) == (363, 360)

    @pytest.mark.parametrize("obs", [0, 97])
    def test_out_of_range_observation_rejected(self, oils, obs):
        # a downdate indexes the data directly, so row 0 must not wrap round
        engine = LooEngine(oils, COV_N)
        events = event_table(oils.row_labels, [(1, 2, 0.0, 0.0, KIND_NEAR),
                                               (obs, 2, 0.0, 0.0, KIND_NEAR)])
        with count_decompositions() as window:
            with pytest.raises(DataError, match="out of range"):
                verify_exact(events, engine)
        assert window.total == 0

    def test_all_oils_events_confirmed(self, oils):
        events = scan_events(LooEngine(oils, COV_N))
        verified = verify_exact(events, LooEngine(oils, COV_N))
        assert all(ev.verified_exact for ev in verified)


def _system(vectors) -> EigenSystem:
    vectors = np.asarray(vectors, dtype=float)
    return EigenSystem(np.arange(vectors.shape[0], 0, -1.0), vectors)


def _orthogonal(rng, p):
    q, r = np.linalg.qr(rng.normal(size=(p, p)))
    return q * np.sign(np.diag(r))


def _rotation(p, a, b, angle):
    g = np.eye(p)
    g[[a, b], [a, b]] = np.cos(angle)
    g[a, b], g[b, a] = -np.sin(angle), np.sin(angle)
    return g


class TestAlignRanks:
    """The certified argmax and the exact fallback against brute force."""

    @staticmethod
    def _check_optimal(full, reduced):
        overlap = np.abs(full.vectors.T @ reduced.vectors)
        p = overlap.shape[0]
        where = switching._align_ranks(full, reduced.vectors[np.newaxis])[0]
        assert sorted(where.tolist()) == list(range(p))
        best = max(overlap[np.arange(p), list(perm)].sum()
                   for perm in itertools.permutations(range(p)))
        assert overlap[np.arange(p), where].sum() == pytest.approx(best, rel=1e-12)
        return where

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6),
           spread=st.floats(0.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_assignment_is_an_optimal_permutation(self, seed, p, spread):
        # small spreads keep the reduced basis near a signed permutation of
        # the full one (certified); large ones mix it (fallback)
        rng = np.random.default_rng(seed)
        V = _orthogonal(rng, p)
        signed = np.eye(p)[rng.permutation(p)] * rng.choice([-1.0, 1.0], size=p)
        mix, _ = np.linalg.qr(np.eye(p) + spread * rng.normal(size=(p, p)))
        self._check_optimal(_system(V), _system(V @ signed @ mix))

    def test_near_tied_rotated_pair_takes_the_fallback(self, alignment_solves):
        # a pair rotated by about 45 degrees, then rank 2 tilted towards
        # rank 3: both of the first two ranks lean to reduced vector 1
        W = _rotation(3, 0, 1, np.arccos(0.708)) @ _rotation(3, 1, 2, 0.08)
        overlap = np.abs(W)
        assert overlap[[0, 1], [0, 1]] == pytest.approx([0.708, 0.705], abs=1e-3)
        assert overlap[:2].argmax(axis=1).tolist() == [0, 0]
        where = self._check_optimal(_system(np.eye(3)), _system(W))
        assert where.tolist() == [0, 1, 2]
        assert alignment_solves == [3]

    def test_exactly_tied_row_maximum_is_not_certified(self, alignment_solves):
        # rational rotation: the last row ties its first two columns while
        # the row argmaxes (2, 1, 0) still fall in distinct columns
        W = np.array([[-5, -2, 14], [10, -11, 2], [10, 10, 5]]) / 15.0
        assert np.abs(W[2, 0]) == np.abs(W[2, 1])
        where = self._check_optimal(_system(np.eye(3)), _system(W))
        assert where.tolist() == [2, 1, 0]
        assert alignment_solves == [3]

    def test_single_component(self, alignment_solves):
        where = self._check_optimal(_system([[1.0]]), _system([[-1.0]]))
        assert where.tolist() == [0]
        assert alignment_solves == []

    def test_clear_permutation_is_certified(self, alignment_solves):
        rng = np.random.default_rng(3)
        V = _orthogonal(rng, 5)
        order = [3, 0, 4, 1, 2]
        reduced = _system(V[:, order] * [1.0, -1.0, 1.0, 1.0, -1.0])
        where = self._check_optimal(_system(V), reduced)
        assert where.tolist() == np.argsort(order).tolist()
        assert alignment_solves == []

    def test_stack_solves_only_the_uncertified_matrices(self, alignment_solves):
        # certified, rotated near-tied pair, exactly tied row maximum, certified
        stack = np.stack([
            np.eye(3)[:, [2, 0, 1]],
            _rotation(3, 0, 1, np.arccos(0.708)) @ _rotation(3, 1, 2, 0.08),
            np.array([[-5, -2, 14], [10, -11, 2], [10, 10, 5]]) / 15.0,
            -np.eye(3),
        ])
        full = _system(np.eye(3))
        where = switching._align_ranks(full, stack)
        assert alignment_solves == [3, 3]
        alone = [switching._align_ranks(full, W[np.newaxis])[0] for W in stack]
        assert np.array_equal(where, np.stack(alone))
        assert where.tolist() == [[1, 2, 0], [0, 1, 2], [2, 1, 0], [0, 1, 2]]


def _doctored(engine, cells):
    """``engine`` with its table filled by rows of strictly descending
    values, except that each (obs, pair low) cell of ``cells`` is reversed."""
    table = np.tile(np.arange(engine.p, 0, -1.0), (engine.n, 1))
    for i, j in cells:
        table[i - 1, [j - 1, j]] = table[i - 1, [j, j - 1]]
    engine._table[:] = table
    engine._filled[:] = True
    return engine


class TestRecommendL:
    def test_oils_candidate_two_becomes_three(self, oils):
        advice = recommend_L(LooEngine(oils, COV_N), 2)
        assert advice.L == 3
        assert "(2,3)" in advice.rationale
        assert "42" in advice.rationale

    def test_no_events_keeps_candidate(self):
        X = gaussian_data(2, 40, [10.0, 3.0, 1.0, 0.3])
        advice = recommend_L(LooEngine(X, COV_N), 2)
        assert advice.L == 2
        assert "no switching" in advice.rationale

    def test_multi_pair_escalation(self, planted_multipair):
        advice = recommend_L(LooEngine(planted_multipair, COV_N), 2)
        assert advice.L == 4

    def test_never_recommends_a_switching_boundary(self, planted_multipair):
        events = scan_events(LooEngine(planted_multipair, COV_N))
        switched_boundaries = {ev.pair[0] for ev in events}
        advice = recommend_L(LooEngine(planted_multipair, COV_N), 2)
        assert advice.L not in switched_boundaries

    def test_candidate_out_of_range(self, oils):
        with pytest.raises(ValueError, match="candidate_L"):
            recommend_L(LooEngine(oils, COV_N), 7)

    def test_fallback_walk_rationale(self):
        X = gaussian_data(2, 40, [10.0, 5.0, 3.0, 1.0, 0.3])
        engine = _doctored(LooEngine(X, COV_N), [(4, 3), (7, 4), (9, 2)])
        advice = recommend_L(engine, 3)
        assert advice.L == 1
        assert advice.rationale == (
            "boundary (3,4) switches for observations [4]; "
            "trying L=4 to keep both eigenvectors of the disrupted pair; "
            "boundary (4,5) also switches for observations [7]; "
            "L=5 would retain every component; falling back to L=2; "
            "boundary (2,3) also switches for observations [9]; "
            "no untried boundary above; falling back to L=1; "
            "boundary (1,2) is clean"
        )

    def test_every_boundary_disrupted_reports_failure(self, oils):
        engine = LooEngine(oils, COV_N)
        first = next(iter(scan_events(engine)))
        # that observation's approximations, ascending, reverse every pair
        engine.table[first.obs_index - 1].sort()
        with pytest.raises(NoValidRetentionError,
                           match="^every candidate boundary is disrupted by switching$"):
            recommend_L(engine, 2)


class TestHybridInfluence:
    def test_empty_flagged_equals_empirical_series(self, oils):
        engine = LooEngine(oils, COV_N)
        series = hybrid_influence(engine, 2, [])
        assert series.shape == (oils.n,)
        np.testing.assert_array_equal(series, eif_b_series(engine, 2))

    def test_all_flagged_equals_sample_series(self):
        X = gaussian_data(3, 15, [2.0, 1.0, 0.4])
        engine = LooEngine(X, COV_N)
        series = hybrid_influence(engine, 2, range(1, 16))
        for i in range(1, 16):
            assert series[i - 1] == sif_b(X, COV_N, 2, i)

    def test_oils_flagged_entries_match_exact_oracle(self, oils):
        flagged = [28, 42, 57, 58, 59, 60, 90, 91, 93, 94, 95]
        engine = LooEngine(oils, COV_N)
        series = hybrid_influence(engine, 2, flagged)
        empirical = eif_b_series(engine, 2)
        for i, value in enumerate(series, start=1):
            if i in flagged:
                assert value == sif_b(oils, COV_N, 2, i)
            else:
                assert value == empirical[i - 1]

    def test_measure_c_uses_score_diagnostics(self, oils):
        # the measure-C hybrid is influence_records with the flagged rows
        # exact: sci there, scia everywhere else
        engine = LooEngine(oils, COV_N)
        records = influence_records(engine, 2, exact=[42])
        empirical = scia_series(engine, 2)
        assert records[41].sci == sci(oils, COV_N, 2, 42)
        assert records[0].sci is None
        assert records[0].scia == empirical[0]

    def test_differs_from_empirical_exactly_on_flagged(self, oils):
        engine = LooEngine(oils, COV_N)
        flagged = {42, 57}
        series = hybrid_influence(engine, 2, flagged)
        pure = eif_b_series(engine, 2)
        assert set((np.flatnonzero(series != pure) + 1).tolist()) == flagged

    def test_flagged_out_of_range(self, oils):
        with pytest.raises(Exception, match="out of range"):
            hybrid_influence(LooEngine(oils, COV_N), 2, [97])

    def test_cost_is_one_plus_flagged(self, oils):
        flagged = [42, 57, 58]
        with count_decompositions() as window:
            hybrid_influence(LooEngine(oils, COV_N), 2, flagged)
        assert window.total == 1 + len(flagged)


class TestSwitchReport:
    def test_oils_report_contents(self, oils):
        report = build_switch_report(LooEngine(oils, COV_N), candidate_L=2)
        assert report.recommendation.L == 3
        assert switch_set(report.events, (2, 3)) == [42, 57, 58, 59, 60, 91, 93]
        nears = sorted({
            ev.obs_index
            for ev in report.events
            if ev.kind == KIND_NEAR and ev.pair == (2, 3)
        })
        assert nears == [28, 90, 94, 95]

    def test_deterministic_byte_for_byte(self, oils):
        delta = 0.1

        def dump():
            engine = LooEngine(oils, COV_N)
            report = build_switch_report(engine, candidate_L=2, delta=delta)
            events = verify_exact(report.events, engine)
            boundary = {ev.obs_index for ev in events if ev.pair == (2, 3)}
            series = hybrid_influence(engine, 2, boundary)
            return json.dumps({
                "events": [dataclasses.asdict(ev) for ev in events],
                "advice": dataclasses.asdict(report.recommendation),
                "hybrid": series.tolist(),
                "delta": delta,
            }, sort_keys=True)

        assert dump() == dump()


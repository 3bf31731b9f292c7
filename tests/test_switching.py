import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensens import (
    CascadeUnderflowError,
    LooEngine,
    NoValidRetentionError,
    build_switch_report,
    cascade_scan,
    count_decompositions,
    detect_near_switch,
    detect_switching,
    hybrid_influence,
    recommend_L,
    sci,
    sif_b,
    verify_exact,
)
from eigensens import switching
from eigensens.eigen import EigenSystem
from eigensens.subspace_diag import eif_b_series, scia_series
from eigensens.switching import KIND_NEAR, KIND_SWITCH, SwitchEvent

from conftest import COV_N, gaussian_data, make_data


def switch_set(events, pair=None):
    return sorted({
        ev.obs_index
        for ev in events
        if ev.kind == KIND_SWITCH and (pair is None or ev.pair == pair)
    })


class TestDetectSwitching:
    def test_oils_pair_2_3(self, oils):
        events = detect_switching(LooEngine(oils, COV_N))
        assert switch_set(events, (2, 3)) == [42, 57, 58, 59, 60, 91, 93]
        assert switch_set(events, (1, 2)) == []
        assert switch_set(events, (3, 4)) == []

    def test_events_store_the_values_they_compared(self, oils):
        for ev in detect_switching(LooEngine(oils, COV_N)):
            assert ev.approx_lo < ev.approx_hi
            assert ev.kind == KIND_SWITCH

    def test_well_separated_spectrum_is_quiet(self):
        X = gaussian_data(2, 40, [10.0, 3.0, 1.0, 0.3])
        assert detect_switching(LooEngine(X, COV_N)) == []

    def test_planted_leverage_point(self, planted_switch):
        X, planted = planted_switch
        events = detect_switching(LooEngine(X, COV_N))
        assert [(ev.obs_index, ev.pair) for ev in events] == [(planted, (2, 3))]
        verified = verify_exact(events, LooEngine(X, COV_N))
        assert verified[0].verified_exact is True

    def test_pair_restriction_matches_full_scan(self, oils):
        full = detect_switching(LooEngine(oils, COV_N))
        only = detect_switching(LooEngine(oils, COV_N), pairs=[(2, 3)])
        assert [ev for ev in full if ev.pair == (2, 3)] == only

    def test_invalid_pair_rejected(self, oils):
        with pytest.raises(ValueError, match="consecutive"):
            detect_switching(LooEngine(oils, COV_N), pairs=[(2, 4)])

    def test_events_sorted_by_pair_then_observation(self, oils):
        events = detect_switching(LooEngine(oils, COV_N))
        keys = [(ev.pair, ev.obs_index) for ev in events]
        assert keys == sorted(keys)


class TestDetectNearSwitch:
    def test_oils_near_set_includes_known_observations(self, oils):
        events = detect_near_switch(LooEngine(oils, COV_N), 0.1, pairs=[(2, 3)])
        nears = sorted({
            ev.obs_index for ev in events if ev.kind == KIND_NEAR
        })
        assert nears == [28, 90, 94, 95]

    def test_switching_observations_keep_the_stronger_kind(self, oils):
        events = detect_near_switch(LooEngine(oils, COV_N), 0.1, pairs=[(2, 3)])
        kinds = {ev.obs_index: ev.kind for ev in events}
        for i in (42, 58, 60):
            assert kinds[i] == KIND_SWITCH

    def test_zero_delta_rejected(self, oils):
        with pytest.raises(ValueError, match="positive"):
            detect_near_switch(LooEngine(oils, COV_N), 0.0)

    def test_infinite_delta_flags_everything(self, oils):
        events = detect_near_switch(LooEngine(oils, COV_N), np.inf)
        assert len(events) == oils.n * (oils.p - 1)

    def test_near_events_satisfy_their_inequality(self, oils):
        for ev in detect_near_switch(LooEngine(oils, COV_N), 0.1):
            assert abs(ev.approx_lo - ev.approx_hi) < 0.1

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_soundness_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        p = int(rng.integers(2, 5))
        X = make_data(rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p))
        for ev in detect_switching(LooEngine(X, COV_N)):
            assert ev.kind == KIND_SWITCH
            assert ev.approx_lo < ev.approx_hi
        delta = float(rng.uniform(0.01, 0.5))
        for ev in detect_near_switch(LooEngine(X, COV_N), delta):
            assert abs(ev.approx_lo - ev.approx_hi) < delta
            if ev.kind == KIND_NEAR:
                assert ev.approx_lo >= ev.approx_hi


class TestVerifyExact:
    def test_oils_obs57_confirmed(self, oils):
        events = detect_switching(LooEngine(oils, COV_N), pairs=[(2, 3)])
        verified = verify_exact(events, LooEngine(oils, COV_N))
        status = {ev.obs_index: ev.verified_exact for ev in verified}
        assert status[57] is True

    def test_empty_in_empty_out(self, oils):
        assert verify_exact([], LooEngine(oils, COV_N)) == []

    def test_all_oils_events_confirmed(self, oils):
        events = detect_switching(LooEngine(oils, COV_N))
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
        events = detect_switching(LooEngine(planted_multipair, COV_N))
        switched_boundaries = {ev.pair[0] for ev in events}
        advice = recommend_L(LooEngine(planted_multipair, COV_N), 2)
        assert advice.L not in switched_boundaries

    def test_candidate_out_of_range(self, oils):
        with pytest.raises(ValueError, match="candidate_L"):
            recommend_L(LooEngine(oils, COV_N), 7)

    def test_fallback_walk_rationale(self):
        X = gaussian_data(2, 40, [10.0, 5.0, 3.0, 1.0, 0.3])
        fake = [
            SwitchEvent(i, X.row_labels[i - 1], (j, j + 1), 0.0, 0.0, KIND_SWITCH)
            for i, j in ((4, 3), (7, 4), (9, 2))
        ]
        advice = recommend_L(LooEngine(X, COV_N), 3, events=fake)
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
        events = detect_switching(LooEngine(oils, COV_N))
        fake = [
            dataclasses.replace(events[0], pair=(j, j + 1))
            for j in range(1, oils.p)
        ]
        with pytest.raises(NoValidRetentionError) as info:
            recommend_L(LooEngine(oils, COV_N), 2, events=fake)
        assert len(info.value.events) == len(fake)


class TestHybridInfluence:
    def test_empty_flagged_equals_empirical_series(self, oils):
        engine = LooEngine(oils, COV_N)
        series = hybrid_influence(engine, 2, [], "B")
        pure = eif_b_series(engine, 2)
        assert all(not hv.replaced for hv in series)
        np.testing.assert_array_equal([hv.value for hv in series], pure)

    def test_all_flagged_equals_sample_series(self):
        X = gaussian_data(3, 15, [2.0, 1.0, 0.4])
        engine = LooEngine(X, COV_N)
        series = hybrid_influence(engine, 2, range(1, 16), "B")
        assert all(hv.replaced for hv in series)
        for hv in series:
            assert hv.value == sif_b(X, COV_N, 2, hv.obs_index)

    def test_oils_flagged_entries_match_exact_oracle(self, oils):
        flagged = [28, 42, 57, 58, 59, 60, 90, 91, 93, 94, 95]
        engine = LooEngine(oils, COV_N)
        series = hybrid_influence(engine, 2, flagged, "B")
        empirical = eif_b_series(engine, 2)
        for hv in series:
            if hv.obs_index in flagged:
                assert hv.replaced
                assert hv.value == sif_b(oils, COV_N, 2, hv.obs_index)
            else:
                assert not hv.replaced
                assert hv.value == empirical[hv.obs_index - 1]

    def test_measure_c_uses_score_diagnostics(self, oils):
        engine = LooEngine(oils, COV_N)
        series = hybrid_influence(engine, 2, [42], "C")
        empirical = scia_series(engine, 2)
        assert series[41].value == sci(oils, COV_N, 2, 42)
        assert series[0].value == empirical[0]

    def test_differs_from_empirical_exactly_on_flagged(self, oils):
        engine = LooEngine(oils, COV_N)
        flagged = {42, 57}
        series = hybrid_influence(engine, 2, flagged, "B")
        pure = eif_b_series(engine, 2)
        differing = {
            hv.obs_index for hv in series if hv.value != pure[hv.obs_index - 1]
        }
        assert differing == flagged

    def test_flagged_out_of_range(self, oils):
        with pytest.raises(Exception, match="out of range"):
            hybrid_influence(LooEngine(oils, COV_N), 2, [97], "B")

    def test_unknown_measure(self, oils):
        with pytest.raises(ValueError, match="measure"):
            hybrid_influence(LooEngine(oils, COV_N), 2, [], "Z")

    def test_cost_is_one_plus_flagged(self, oils):
        flagged = [42, 57, 58]
        with count_decompositions() as window:
            hybrid_influence(LooEngine(oils, COV_N), 2, flagged, "B")
        assert window.total == 1 + len(flagged)


class TestSwitchReport:
    def test_oils_report_contents(self, oils):
        report = build_switch_report(LooEngine(oils, COV_N), candidate_L=2)
        assert report.recommendation.L == 3
        assert report.delta == 0.1
        assert switch_set(report.events, (2, 3)) == [42, 57, 58, 59, 60, 91, 93]
        nears = sorted({
            ev.obs_index
            for ev in report.events
            if ev.kind == KIND_NEAR and ev.pair == (2, 3)
        })
        assert nears == [28, 90, 94, 95]

    def test_deterministic_byte_for_byte(self, oils):
        def dump():
            engine = LooEngine(oils, COV_N)
            report = build_switch_report(engine, candidate_L=2)
            events = verify_exact(report.events, engine)
            boundary = {ev.obs_index for ev in events if ev.pair == (2, 3)}
            series = hybrid_influence(engine, 2, boundary)
            return json.dumps({
                "events": [dataclasses.asdict(ev) for ev in events],
                "advice": dataclasses.asdict(report.recommendation),
                "hybrid": [dataclasses.asdict(hv) for hv in series],
                "delta": report.delta,
            }, sort_keys=True)

        assert dump() == dump()


class TestCascadeScan:
    def test_quiet_dataset_single_empty_round(self):
        X = gaussian_data(2, 40, [10.0, 3.0, 1.0, 0.3])
        rounds = cascade_scan(X, COV_N, 5, candidate_L=2)
        assert len(rounds) == 1
        assert rounds[0].events == []

    def test_oils_round_one_matches_direct_detection(self, oils):
        rounds = cascade_scan(oils, COV_N, 3, candidate_L=2)
        assert switch_set(rounds[0].events, (2, 3)) == [42, 57, 58, 59, 60, 91, 93]

    def test_oils_round_two_matches_reduced_rerun(self, oils):
        rounds = cascade_scan(oils, COV_N, 2, candidate_L=2)
        flagged = switch_set(rounds[0].events)
        reduced = oils.drop_rows(flagged)
        assert reduced.n == oils.n - len(flagged)
        rerun = detect_switching(LooEngine(reduced, COV_N))
        if len(rounds) > 1:
            # map the rerun's positional indices back to original positions
            survivors = [i for i in range(1, oils.n + 1) if i not in flagged]
            expected = sorted({survivors[ev.obs_index - 1] for ev in rerun})
            assert switch_set(rounds[1].events) == expected
        else:
            assert rerun == []

    def test_planted_two_layer_instance(self, planted_cascade):
        X, outer, inner = planted_cascade
        rounds = cascade_scan(X, COV_N, 4, candidate_L=2)
        assert len(rounds) == 3
        assert switch_set(rounds[0].events) == [outer]
        assert switch_set(rounds[1].events) == [inner]
        assert switch_set(rounds[2].events) == []

    def test_round_sizes_shrink_by_flagged_counts(self, planted_cascade):
        X, outer, inner = planted_cascade
        rounds = cascade_scan(X, COV_N, 4, candidate_L=2)
        # labels refer to the original rows throughout, and later rounds
        # never mention observations that were already deleted
        deleted = set()
        for report in rounds:
            for ev in report.events:
                assert ev.obs_index not in deleted
                assert ev.obs_label == X.row_labels[ev.obs_index - 1]
            deleted |= {ev.obs_index for ev in report.events
                        if ev.kind == KIND_SWITCH}

    def test_underflow_raises(self):
        rng = np.random.default_rng(15)
        X = make_data(rng.normal(size=(4, 2)))
        assert len(switch_set(detect_switching(LooEngine(X, COV_N)))) >= 2
        with pytest.raises(CascadeUnderflowError):
            cascade_scan(X, COV_N, 5, candidate_L=1)

    def test_max_rounds_validation(self, oils):
        with pytest.raises(ValueError, match="max_rounds"):
            cascade_scan(oils, COV_N, 0, candidate_L=2)

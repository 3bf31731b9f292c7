"""Switching results do not depend on the units of the data or on row order.

Each case runs the verified switching report on a fixed input and on a
transformed copy, and compares events (indices mapped back to the original
rows), exact verdicts, gap warnings and the recommended retention count.
``delta`` is absolute, so under X -> sX it scales by s^2 for covariance and
stays put for correlation, whose entries have no units.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensens import (
    DataMatrix,
    LooEngine,
    build_switch_report,
    estimate,
    load_oils,
    verify_exact,
)
from eigensens.switching import KIND_NEAR, KIND_SWITCH, _aligned_exact

from conftest import COR_N, COV_N, event_table, make_data

DELTA = 0.1
SCALES = [1e-3, 7.0, 1e4]
SPECS = [pytest.param(COV_N, id="cov"), pytest.param(COR_N, id="cor")]
TIED_PAIR = (8, 9)


def seeded() -> DataMatrix:
    """300 x 8 with near-tied pairs and two leverage rows.

    Under covariance row 1 switches pair (2,3), which moves the advice to
    L=3; under correlation one row switches (1,2).  Both estimators give
    near switches, and under correlation some fail exact verification.
    """
    rng = np.random.default_rng(0)
    values = rng.standard_normal((300, 8)) * [3, 1.5, 1.45, 1.2, 1, 0.7, 0.69, 0.3]
    values[:2] = 0.0
    values[0, 1], values[1, 5] = 9.0, 5.0
    return make_data(values)


def oils_with_twin_columns() -> DataMatrix:
    """Oils plus two copies of its first column: an exact zero tie at (8,9)."""
    oils = load_oils()
    first = oils.values[:, :1]
    return DataMatrix(np.hstack([oils.values, first, first]), oils.row_labels)


DATASETS = {"oils": load_oils(), "seeded": seeded()}


def outcome(X, spec, delta, rows=None):
    """Events, gap warnings and advice.

    ``rows[r]`` is the original 1-based index of row r+1 when rows were moved.
    """
    engine = LooEngine(X, spec)
    report = build_switch_report(engine, candidate_L=2, delta=delta)
    original = (lambda i: i) if rows is None else (lambda i: int(rows[i - 1]))
    events = sorted(
        (original(ev.obs_index), ev.obs_label, ev.pair, ev.kind, ev.verified_exact)
        for ev in verify_exact(report.events, engine)
    )
    return events, engine.eigen.gap_warnings, report.recommendation.L


def permuted(X):
    """X with its rows shuffled, and the original 1-based index of each row."""
    order = np.random.default_rng(7).permutation(X.n)
    shuffled = DataMatrix(X.values[order], [X.row_labels[k] for k in order],
                          X.col_labels)
    return shuffled, order + 1


def scaled(X, spec, s):
    delta = DELTA * s * s if spec.kind == COV_N.kind else DELTA
    return DataMatrix(X.values * s, X.row_labels, X.col_labels), delta


def transformed_outcome(X, spec, change):
    if change == "permutation":
        shuffled, rows = permuted(X)
        return outcome(shuffled, spec, DELTA, rows)
    sX, delta = scaled(X, spec, change)
    return outcome(sX, spec, delta)


CHANGES = ["permutation", *SCALES]


@pytest.mark.parametrize("change", CHANGES, ids=str)
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", DATASETS)
def test_outcome_is_invariant(name, spec, change):
    X = DATASETS[name]
    base = outcome(X, spec, DELTA)
    assert base[0], "the fixed input must produce events"
    assert transformed_outcome(X, spec, change) == base


def test_inputs_cover_switches_and_failed_verification():
    cov, cor = (outcome(DATASETS["seeded"], spec, DELTA) for spec in (COV_N, COR_N))
    assert {ev[3] for ev in cov[0]} == {"switch", "near_switch"}
    assert cov[2] == 3
    assert any(ev[3] == "switch" for ev in cor[0])
    assert any(ev[4] is False for ev in cor[0])


def _split(result):
    events, warnings, advice = result
    tied = [ev for ev in events if ev[2] == TIED_PAIR]
    return tied, ([ev for ev in events if ev[2] != TIED_PAIR], warnings, advice)


@pytest.mark.parametrize("change", CHANGES, ids=str)
@pytest.mark.parametrize("spec", SPECS)
def test_degenerate_input_is_invariant_off_the_tied_pair(spec, change):
    X = oils_with_twin_columns()
    tied, rest = _split(outcome(X, spec, DELTA))
    assert rest[1] == [TIED_PAIR]
    assert tied, "the tied pair must produce events"
    assert _split(transformed_outcome(X, spec, change))[1] == rest


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: events on a pair that gap_warnings marks tied get no "
    "degeneracy verdict, so their kinds and verdicts are rounding noise"))
@pytest.mark.parametrize("change", CHANGES, ids=str)
@pytest.mark.parametrize("spec", SPECS)
def test_degenerate_input_is_invariant_on_the_tied_pair(spec, change):
    X = oils_with_twin_columns()
    tied = _split(outcome(X, spec, DELTA))[0]
    assert _split(transformed_outcome(X, spec, change))[0] == tied


# Correlation has no units: each column is brought to [0.5, 1) by a power of
# two before the scatter is formed, so a rescaled copy gives the same bits
# under 2^k and agrees to rounding under 10^k, however extreme the units.
# An entry of X * 10^k is rounded once, about 1e-16 relative, which moves the
# correlation entries, the table and the exact eigenvalues by far less than
# this share of max |lambda|.
UNIT_TOL = 1e-12


def unit_data(seed: int, decades: float) -> DataMatrix:
    """20 x 4 Gaussian data, its columns on scales from 10^-decades to 10^decades."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-decades, decades, size=4)
    return make_data(rng.standard_normal((20, 4)) * scales)


def every_cell(X: DataMatrix):
    """Both kinds of event on every (observation, adjacent pair) cell."""
    return event_table(X.row_labels, [
        (i, j, 0.0, 0.0, kind) for j in range(1, X.p) for i in range(1, X.n + 1)
        for kind in (KIND_SWITCH, KIND_NEAR)], delta=DELTA)


def cell_outcome(X: DataMatrix, spec=COR_N):
    engine = LooEngine(X, spec)
    events = verify_exact(every_cell(X), engine)
    return estimate(X, spec).matrix, engine.table, events


def clear_of_threshold(X: DataMatrix, spec, events, tol: float) -> np.ndarray:
    """Where the aligned exact values of each event sit farther than ``tol``
    from its threshold, so that rounding cannot flip its verdict."""
    aligned = _aligned_exact(LooEngine(X, spec), np.arange(X.n))
    lo = aligned[events.obs - 1, events.low - 1]
    hi = aligned[events.obs - 1, events.low]
    margin = np.where(events.switch, np.abs(lo - hi), np.abs(np.abs(lo - hi) - DELTA))
    return margin > tol


@given(seed=st.integers(0, 2**16), k=st.integers(-300, 300))
@settings(max_examples=25, deadline=None)
def test_correlation_is_bit_identical_under_powers_of_two(seed, k):
    # columns up to 1e150 apart, whose squares overflow or underflow in raw
    # units once rescaled, while the data stays finite and normal
    X = unit_data(seed, 150.0)
    base = cell_outcome(X)
    matrix, table, events = cell_outcome(
        DataMatrix(np.ldexp(X.values, k), X.row_labels, X.col_labels))
    assert np.array_equal(matrix, base[0])
    assert np.array_equal(table, base[1])
    assert np.array_equal(events.verified, base[2].verified)


@given(seed=st.integers(0, 2**16), k=st.integers(-300, 300))
@settings(max_examples=25, deadline=None)
def test_correlation_agrees_to_rounding_under_powers_of_ten(seed, k):
    X = unit_data(seed, 3.0)
    base = cell_outcome(X)
    matrix, table, events = cell_outcome(
        DataMatrix(X.values * 10.0**k, X.row_labels, X.col_labels))
    scale = np.max(np.abs(LooEngine(X, COR_N).eigen.values))
    assert np.max(np.abs(matrix - base[0])) <= UNIT_TOL
    assert np.max(np.abs(table - base[1])) <= UNIT_TOL * scale
    # a verdict may only differ where the exact values sit within the
    # tolerance of its threshold
    clear = clear_of_threshold(X, COR_N, events, UNIT_TOL * scale)
    assert clear.sum() > len(events) // 2
    assert np.array_equal(events.verified[clear], base[2].verified[clear])


# Moving the rows reorders the sums behind the mean and the scatter, so every
# result agrees to rounding: at most 2.3e-15 max |lambda| over 60 seeds.
ORDER_TOL = 1e-12


@pytest.mark.parametrize("spec", SPECS)
@given(seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=25, deadline=None)
def test_row_order_changes_results_only_to_rounding(spec, seed, data):
    X = unit_data(seed, 3.0)
    order = np.array(data.draw(st.permutations(range(X.n)), label="row order"))
    matrix, table, events = cell_outcome(X, spec)
    moved = cell_outcome(
        DataMatrix(X.values[order], [X.row_labels[k] for k in order], X.col_labels),
        spec)
    scale = np.max(np.abs(LooEngine(X, spec).eigen.values))
    assert np.max(np.abs(moved[0] - matrix)) <= ORDER_TOL * np.max(np.abs(matrix))
    # row r of the moved data is row order[r] of X
    assert np.max(np.abs(moved[1] - table[order])) <= ORDER_TOL * scale
    # every cell's two verdicts, by pair, observation and kind, rows mapped back
    cells = (X.p - 1, X.n, 2)
    verdicts = events.verified.reshape(cells)[:, order]
    clear = clear_of_threshold(X, spec, events, ORDER_TOL * scale).reshape(cells)[:, order]
    assert clear.sum() > clear.size // 2
    assert np.array_equal(moved[2].verified.reshape(cells)[clear], verdicts[clear])

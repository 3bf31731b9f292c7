"""Detection of eigenvalue switching caused by single-observation removal.

Removing one observation can reverse the order of two consecutive
eigenvalues.  The re-sorted eigenvalues of the reduced estimate carry no
trace of this, but the rank-indexed approximations of
:func:`eigensens.influence.loo_eigenvalue_table` do: a switch shows up as
``approx[j] < approx[j+1]``.  This module sweeps those approximations,
adjusts the retained component count away from disrupted boundaries, and,
as separate stages, confirms flagged events against true re-decompositions
and builds series in which only the flagged observations pay for an exact
influence value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .dataset import DataMatrix, EstimatorSpec
from .eigen import EigenSystem
from .errors import CascadeUnderflowError, DataError, NoValidRetentionError
from .influence import LooEngine
from .subspace_diag import (
    _SampleMeasures,
    _warn_boundaries,
    eif_b_series,
    scia_series,
)

__all__ = [
    "DEFAULT_NEAR_DELTA",
    "SwitchEvent",
    "RetentionAdvice",
    "HybridValue",
    "SwitchReport",
    "detect_switching",
    "detect_near_switch",
    "verify_exact",
    "recommend_L",
    "hybrid_influence",
    "build_switch_report",
    "cascade_scan",
]

DEFAULT_NEAR_DELTA = 0.1

KIND_SWITCH = "switch"
KIND_NEAR = "near_switch"

MEASURE_B = "B"
MEASURE_C = "C"


@dataclass(frozen=True)
class SwitchEvent:
    """One (observation, adjacent pair) order disruption or near miss."""

    obs_index: int
    obs_label: str
    pair: tuple[int, int]
    approx_lo: float
    approx_hi: float
    kind: str
    verified_exact: bool | None = None


@dataclass(frozen=True)
class RetentionAdvice:
    L: int
    rationale: str


@dataclass(frozen=True)
class HybridValue:
    """One entry of a hybrid influence series."""

    obs_index: int
    obs_label: str
    value: float
    replaced: bool


@dataclass
class SwitchReport:
    """Everything one switching analysis produced."""

    events: list[SwitchEvent]
    recommendation: RetentionAdvice
    delta: float


def _normalise_pairs(pairs: Sequence[tuple[int, int]] | None, p: int
                     ) -> list[tuple[int, int]]:
    if pairs is None:
        return [(j, j + 1) for j in range(1, p)]
    out = []
    for pair in pairs:
        j, k = int(pair[0]), int(pair[1])
        if k != j + 1 or not 1 <= j < p:
            raise ValueError(
                f"pair {pair} is not a consecutive pair within 1..{p}"
            )
        out.append((j, k))
    return sorted(set(out))


def _sorted_events(events: Iterable[SwitchEvent]) -> list[SwitchEvent]:
    return sorted(events, key=lambda e: (e.pair, e.obs_index))


def _scan(engine: LooEngine, wanted: list[tuple[int, int]], *,
          reversed_pairs: bool, delta: float | None) -> list[SwitchEvent]:
    """Events over the engine's table, one masked comparison per pair.

    Only the table columns of the ``wanted`` pairs are computed, so a scan
    of a few pairs pays for a few columns; the engine keeps them for later
    use.  Flags reversed pairs when ``reversed_pairs`` is set and pairs
    within ``delta`` when it is given.  A flagged pair is a ``switch`` when
    reversed and a ``near_switch`` otherwise.  ``wanted`` is sorted, so the
    events come out sorted by pair, then observation.
    """
    table = engine._columns(j for pair in wanted for j in pair)
    labels = engine.X.row_labels
    events = []
    for j, k in wanted:
        lo, hi = table[:, j - 1], table[:, k - 1]
        reversed_ = lo < hi
        mask = reversed_ if reversed_pairs else np.zeros_like(reversed_)
        if delta is not None:
            mask = mask | (np.abs(lo - hi) < delta)
        rows = np.flatnonzero(mask)
        for r, a, b, switch in zip(rows.tolist(), lo[rows].tolist(),
                                   hi[rows].tolist(), reversed_[rows].tolist()):
            events.append(SwitchEvent(
                r + 1, labels[r], (j, k), a, b,
                KIND_SWITCH if switch else KIND_NEAR,
            ))
    return events


def detect_switching(
    engine: LooEngine,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> list[SwitchEvent]:
    """Flag every (i, pair) where removal reverses the approximated order.

    The engine's full-data decomposition covers the entire sweep; no reduced
    matrix is decomposed.  Only the approximate-table columns of ``pairs``
    are computed (all of them when ``pairs`` is None).
    """
    wanted = _normalise_pairs(pairs, engine.p)
    return _scan(engine, wanted, reversed_pairs=True, delta=None)


def detect_near_switch(
    engine: LooEngine,
    delta: float = DEFAULT_NEAR_DELTA,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> list[SwitchEvent]:
    """Flag every (i, pair) whose approximated eigenvalues sit within delta.

    Pairs that are also fully reversed are reported with the stronger
    ``switch`` kind.  The default threshold of 0.1 suits data on the scale
    of the bundled example; it is a tuning knob, not a universal constant.
    """
    _check_delta(delta)
    wanted = _normalise_pairs(pairs, engine.p)
    return _scan(engine, wanted, reversed_pairs=False, delta=delta)


def _check_delta(delta: float) -> None:
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")


def _align_ranks(full: EigenSystem, vectors: np.ndarray) -> np.ndarray:
    """Match reduced-data eigenvectors to full-data ranks, one to one.

    ``vectors`` is a stack of m reduced eigenvector matrices (m x p x p).
    Returns ``where`` (m x p): ``where[k, j]`` = 0-based position, in the
    k-th reduced spectrum, of the eigenvector best aligned with full-data
    rank j+1: the assignment of greatest total absolute overlap, so that
    strongly rotated pairs cannot both claim the same reduced vector.

    Certificate, tested on the whole stack at once: when every row of an
    overlap matrix has a strict maximum and the row argmaxes fall in
    distinct columns, the argmax permutation is the unique optimal
    assignment, since no assignment can beat the sum of the row maxima.
    Otherwise (ties, or two ranks drawn to one reduced vector, as in a pair
    rotated by about 45 degrees) the exact solve of
    :func:`_min_cost_assignment` decides for that matrix.
    """
    overlap = np.abs(full.vectors.T @ vectors)
    where = overlap.argmax(axis=-1)
    best = overlap.max(axis=-1)
    strict = np.count_nonzero(overlap < best[..., None], axis=-1) == full.p - 1
    distinct = np.diff(np.sort(where, axis=-1), axis=-1) != 0
    for k in np.flatnonzero(~(strict.all(axis=-1) & distinct.all(axis=-1))):
        where[k] = _min_cost_assignment(-overlap[k])
    return where


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square matrix, at least total cost.

    Kuhn-Munkres by shortest augmenting paths with row and column
    potentials (Kuhn 1955; Munkres 1957), O(p^3): row r is inserted by a
    Dijkstra-like search over the reduced costs ``cost - u - v``, which
    stay non-negative, and the matching is flipped along the path found.
    Column ``p`` is a virtual start column.
    """
    p = cost.shape[0]
    u = np.zeros(p)
    v = np.zeros(p + 1)
    owner = np.full(p + 1, -1)              # row matched to each column
    for r in range(p):
        owner[p] = r
        col = p
        dist = np.full(p + 1, np.inf)       # shortest reduced cost to each column
        via = np.full(p + 1, p)             # previous column on that path
        done = np.zeros(p + 1, dtype=bool)
        while owner[col] != -1:
            done[col] = True
            row = owner[col]
            reach = cost[row] - u[row] - v[:p]
            closer = ~done[:p] & (reach < dist[:p])
            dist[:p][closer] = reach[closer]
            via[:p][closer] = col
            open_dist = np.where(done, np.inf, dist)
            nxt = int(np.argmin(open_dist))
            step = open_dist[nxt]
            u[owner[done]] += step
            v[done] -= step
            dist[~done] -= step
            col = nxt
        while col != p:
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    where = np.empty(p, dtype=int)
    where[owner[:p]] = np.arange(p)
    return where


def verify_exact(
    events: Sequence[SwitchEvent],
    engine: LooEngine,
    *,
    delta: float = DEFAULT_NEAR_DELTA,
) -> list[SwitchEvent]:
    """Confirm approximation-flagged events with true re-decompositions.

    Each flagged observation's reduced matrix is decomposed once and its
    eigenvalues are re-indexed by full-data rank via eigenvector alignment.
    A switch event is confirmed when the aligned exact values are out of
    order; a near-switch event when they sit within ``delta``.
    """
    if not events:
        return []
    aligned = {}
    for block, systems in engine.reduced(sorted({ev.obs_index for ev in events})):
        values = np.stack([system.values for system in systems])
        where = _align_ranks(engine.eigen,
                             np.stack([system.vectors for system in systems]))
        aligned.update(zip(block, np.take_along_axis(values, where, axis=1).tolist()))
    out = []
    for ev in events:
        j, k = ev.pair
        lo = aligned[ev.obs_index][j - 1]
        hi = aligned[ev.obs_index][k - 1]
        confirmed = lo < hi if ev.kind == KIND_SWITCH else abs(lo - hi) < delta
        out.append(SwitchEvent(ev.obs_index, ev.obs_label, ev.pair, ev.approx_lo,
                               ev.approx_hi, ev.kind, confirmed))
    return _sorted_events(out)


def recommend_L(
    engine: LooEngine,
    candidate_L: int,
    *,
    events: Sequence[SwitchEvent] | None = None,
) -> RetentionAdvice:
    """Adjust a candidate retained count away from switching boundaries.

    A boundary (L, L+1) hit by switching means the retained set is not
    stable under single-observation removal.  Retaining one more component
    keeps both eigenvectors involved and is preferred; when that would mean
    retaining everything, one fewer is recommended instead.  The walk
    continues while the new boundary is also disrupted.  Without ``events``,
    switching is detected on the table of ``engine``.
    """
    p = engine.p
    if not 1 <= candidate_L < p:
        raise ValueError(f"candidate_L={candidate_L} out of range 1..{p - 1}")
    if events is None:
        events = detect_switching(engine)
    switched: dict[int, list[int]] = {}
    for ev in events:
        if ev.kind == KIND_SWITCH:
            switched.setdefault(ev.pair[0], []).append(ev.obs_index)

    if candidate_L not in switched:
        return RetentionAdvice(
            candidate_L,
            f"boundary ({candidate_L},{candidate_L + 1}) shows no switching; "
            f"candidate L={candidate_L} kept",
        )

    steps = [
        f"boundary ({candidate_L},{candidate_L + 1}) switches for "
        f"observations {sorted(set(switched[candidate_L]))}"
    ]
    previous = candidate_L
    for nxt in [*range(candidate_L + 1, p), *range(candidate_L - 1, 0, -1)]:
        if nxt > candidate_L:
            steps.append(f"trying L={nxt} to keep both eigenvectors of the "
                         f"disrupted pair")
        elif previous == p - 1:
            steps.append(f"L={p} would retain every component; "
                         f"falling back to L={nxt}")
        else:
            steps.append(f"no untried boundary above; falling back to L={nxt}")
        if nxt not in switched:
            steps.append(f"boundary ({nxt},{nxt + 1}) is clean")
            return RetentionAdvice(nxt, "; ".join(steps))
        steps.append(
            f"boundary ({nxt},{nxt + 1}) also switches for observations "
            f"{sorted(set(switched[nxt]))}"
        )
        previous = nxt
    raise NoValidRetentionError(
        "every candidate boundary is disrupted by switching", list(events)
    )


def hybrid_influence(
    engine: LooEngine,
    L: int,
    flagged: Iterable[int],
    measure: str = MEASURE_B,
) -> list[HybridValue]:
    """Empirical influence series with exact values at the flagged indices.

    Costs the engine's full-data decomposition plus one reduced decomposition
    per flagged observation, so a handful of exact replacements keeps the
    sweep cheap while fixing the entries the empirical formulas get wrong.
    """
    X = engine.X
    flagged_set = set(int(i) for i in flagged)
    if measure not in (MEASURE_B, MEASURE_C):
        raise ValueError(f"measure must be 'B' or 'C', got {measure!r}")
    E = engine.eigen
    series_of = eif_b_series if measure == MEASURE_B else scia_series
    series = series_of(engine, L)
    exact = {}
    if flagged_set:
        measures = _SampleMeasures(X, E, L)
        for block, systems in engine.reduced(sorted(flagged_set)):
            W = measures.bases(systems)
            if measure == MEASURE_B:
                for E_loo in systems:
                    _warn_boundaries(E, E_loo, L)
                exact.update(zip(block, measures.sif_b(W).tolist()))
            else:
                exact.update(zip(block, measures.sci(W).tolist()))
    return [
        HybridValue(i, X.row_labels[i - 1],
                    exact[i] if i in exact else float(series[i - 1]), i in exact)
        for i in range(1, X.n + 1)
    ]


def build_switch_report(
    engine: LooEngine,
    *,
    candidate_L: int,
    delta: float = DEFAULT_NEAR_DELTA,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> SwitchReport:
    """Detect switching and near switching, and advise on the retained count.

    Detection flags reversed pairs and pairs within ``delta`` in one pass
    over the approximate table; the advice walks away from the boundaries
    those switches disrupt.  Confirming the events (:func:`verify_exact`) and
    repairing an influence series at them (:func:`hybrid_influence`) are
    separate stages on the same engine.
    """
    _check_delta(delta)
    wanted = _normalise_pairs(pairs, engine.p)
    events = _scan(engine, wanted, reversed_pairs=True, delta=delta)
    try:
        advice = recommend_L(engine, candidate_L, events=events)
    except NoValidRetentionError as exc:
        advice = RetentionAdvice(candidate_L, f"retention advice failed: {exc}")
    return SwitchReport(events, advice, delta)


def cascade_scan(
    X: DataMatrix,
    spec: EstimatorSpec,
    max_rounds: int,
    *,
    candidate_L: int,
    delta: float = DEFAULT_NEAR_DELTA,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> list[SwitchReport]:
    """Repeatedly delete switching observations and re-detect.

    Deleting the observations flagged in one round can surface new switching
    observations in the next, so the scan iterates until a round flags
    nothing or ``max_rounds`` is reached.  Event indices and labels in every
    round refer to the original matrix.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    current = X
    original_pos = list(range(1, X.n + 1))
    rounds: list[SwitchReport] = []
    for _ in range(max_rounds):
        if current.n < 3:
            raise CascadeUnderflowError(
                f"only {current.n} observations remain; cannot continue the "
                "deletion cascade"
            )
        report = build_switch_report(
            LooEngine(current, spec), candidate_L=candidate_L, delta=delta,
            pairs=pairs,
        )
        report.events = [
            replace(ev, obs_index=original_pos[ev.obs_index - 1])
            for ev in report.events
        ]
        rounds.append(report)
        flagged = sorted({
            ev.obs_index for ev in report.events if ev.kind == KIND_SWITCH
        })
        if not flagged:
            break
        local = [original_pos.index(i) + 1 for i in flagged]
        try:
            current = current.drop_rows(local)
        except DataError as exc:
            raise CascadeUnderflowError(str(exc)) from exc
        original_pos = [pos for pos in original_pos if pos not in flagged]
    return rounds

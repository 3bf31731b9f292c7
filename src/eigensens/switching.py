"""Detection of eigenvalue switching caused by single-observation removal.

Removing one observation can reverse the order of two consecutive
eigenvalues.  The re-sorted eigenvalues of the reduced estimate carry no
trace of this, but the rank-indexed approximations of
:func:`eigensens.influence.loo_eigenvalue_table` do: a switch shows up as
``approx[j] < approx[j+1]``.  This module sweeps those approximations,
adjusts the retained component count away from disrupted boundaries, and,
as separate stages, confirms flagged events against true re-decompositions
and builds series in which only the flagged observations pay for an exact
influence value.  The flagged cells travel as one :class:`EventTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .eigen import EigenSystem, eigh_stack
from .errors import NoValidRetentionError
from .influence import LooEngine
from .subspace_diag import _exact, eif_b_series

__all__ = [
    "DEFAULT_NEAR_DELTA",
    "SwitchEvent",
    "EventTable",
    "RetentionAdvice",
    "SwitchReport",
    "scan_events",
    "verify_exact",
    "recommend_L",
    "hybrid_influence",
    "build_switch_report",
]

# suits data on the scale of the bundled example; a tuning knob, not a constant
DEFAULT_NEAR_DELTA = 0.1

KIND_SWITCH = "switch"
KIND_NEAR = "near_switch"


@dataclass(frozen=True)
class SwitchEvent:
    """One (observation, adjacent pair) order disruption or near miss: the
    row view of an :class:`EventTable`."""

    obs_index: int
    obs_label: str
    pair: tuple[int, int]
    approx_lo: float
    approx_hi: float
    kind: str
    verified_exact: bool | None = None


@dataclass(frozen=True)
class EventTable:
    """Flagged (observation, adjacent pair) cells, one row each, as columns.

    ``obs`` holds 1-based observations, ``low`` the lower rank j of each pair
    (j, j+1), ``approx_lo`` and ``approx_hi`` the approximated eigenvalues
    compared, ``switch`` True for a ``switch`` and False for a
    ``near_switch``, and ``verified`` the exact verdicts, None until
    :func:`verify_exact` fills it.  ``labels`` are the row labels of the
    whole data, indexed by ``obs - 1``, and ``delta`` the near-switch
    threshold, None when only switches were flagged.  Rows are sorted by
    pair, then observation.  ``len`` counts the rows; iterating yields them
    as :class:`SwitchEvent`.
    """

    labels: Sequence[str]
    obs: np.ndarray
    low: np.ndarray
    approx_lo: np.ndarray
    approx_hi: np.ndarray
    switch: np.ndarray
    verified: np.ndarray | None = None
    delta: float | None = None

    def __len__(self) -> int:
        return len(self.obs)

    def columns(self) -> list[list]:
        """The rows' obs, label, pair low, pair high, approx_lo, approx_hi,
        kind and verdict, each column a list of Python scalars."""
        obs, low = self.obs.tolist(), self.low.tolist()
        return [
            obs, [self.labels[i - 1] for i in obs], low, [j + 1 for j in low],
            self.approx_lo.tolist(), self.approx_hi.tolist(),
            [KIND_SWITCH if s else KIND_NEAR for s in self.switch.tolist()],
            [None] * len(obs) if self.verified is None else self.verified.tolist(),
        ]

    def __iter__(self) -> Iterator[SwitchEvent]:
        for i, label, j, k, lo, hi, kind, verdict in zip(*self.columns()):
            yield SwitchEvent(i, label, (j, k), lo, hi, kind, verdict)


@dataclass(frozen=True)
class RetentionAdvice:
    L: int
    rationale: str


@dataclass
class SwitchReport:
    """Everything one switching analysis produced."""

    events: EventTable
    recommendation: RetentionAdvice


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


def scan_events(
    engine: LooEngine,
    pairs: Sequence[tuple[int, int]] | None = None,
    *,
    delta: float | None = None,
) -> EventTable:
    """Flag every (i, pair) where removal reverses the approximated order,
    ``approx[j] < approx[j+1]``, and, when ``delta`` is given, every (i, pair)
    whose approximated eigenvalues sit within it.

    A flagged cell is a ``switch`` when reversed and a ``near_switch``
    otherwise.  The engine's full-data decomposition covers the entire
    sweep; no reduced matrix is decomposed.  Only the table columns of
    ``pairs`` (all adjacent pairs when None) are computed, and the engine
    keeps them for later use.  One masked comparison reads every pair, pair
    by pair, so the events come out sorted by pair, then observation.
    """
    if delta is not None:
        _check_delta(delta)
    wanted = _normalise_pairs(pairs, engine.p)
    table = engine._columns(j for pair in wanted for j in pair)
    lows = np.array([j for j, _ in wanted], dtype=int)
    # pair by observation, so that nonzero walks pair, then observation
    lo, hi = table[:, lows - 1].T, table[:, lows].T
    switch = lo < hi
    mask = switch if delta is None else switch | (np.abs(lo - hi) < delta)
    pair, row = np.nonzero(mask)
    return EventTable(engine.X.row_labels, row + 1, lows[pair], lo[pair, row],
                      hi[pair, row], switch[pair, row], delta=delta)


def _check_delta(delta: float | None) -> None:
    if delta is None or not delta > 0.0:
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


def _aligned_exact(engine: LooEngine, index: np.ndarray) -> np.ndarray:
    """Exact eigenvalues without each 0-based ``index`` row, by full-data rank.

    An m x p array from one :func:`eigh_stack` call on the engine's rank-one
    downdates, each spectrum re-indexed by :func:`_align_ranks`.  The
    downdates agree with the estimates that the exact subspace pass rebuilds
    to rounding, not bit for bit, so the values serve verdicts only.
    """
    values, vectors, _ = eigh_stack(engine._loo_stack(index))
    return np.take_along_axis(values, _align_ranks(engine.eigen, vectors), axis=1)


def verify_exact(events: EventTable, engine: LooEngine) -> EventTable:
    """Confirm approximation-flagged events with true re-decompositions.

    Each flagged observation's reduced matrix, the engine's rank-one
    downdate, is decomposed once and its eigenvalues are re-indexed by
    full-data rank via eigenvector alignment, into one row of an aligned
    (flagged x p) array built in stacked blocks.  A switch event is
    confirmed when the aligned exact values are out of order; a near-switch
    event when they sit within the ``delta`` that flagged them.  Returns the
    events with ``verified`` filled, stably sorted by pair, then observation.
    """
    order = np.lexsort((events.obs, events.low))
    obs, low, switch = events.obs[order], events.low[order], events.switch[order]
    if not switch.all():
        _check_delta(events.delta)
    # not np.unique: its first call imports numpy.ma, a few ms of every run
    flagged = sorted(set(obs.tolist()))
    aligned = engine._sweep(flagged, lambda index: (_aligned_exact(engine, index),))[0]
    row = np.searchsorted(flagged, obs)
    lo, hi = aligned[row, low - 1], aligned[row, low]
    verified = lo < hi
    if not switch.all():
        verified[~switch] = np.abs(lo - hi)[~switch] < events.delta
    return EventTable(events.labels, obs, low, events.approx_lo[order],
                      events.approx_hi[order], switch, verified, events.delta)


def recommend_L(engine: LooEngine, candidate_L: int) -> RetentionAdvice:
    """Adjust a candidate retained count away from switching boundaries.

    A boundary (L, L+1) hit by switching means the retained set is not
    stable under single-observation removal.  Retaining one more component
    keeps both eigenvectors involved and is preferred; when that would mean
    retaining everything, one fewer is recommended instead.  The walk
    continues while the new boundary is also disrupted.  Each boundary
    visited is scanned by :func:`scan_events`, which computes its two table
    columns when the walk first reaches them.
    """
    p = engine.p
    if not 1 <= candidate_L < p:
        raise ValueError(f"candidate_L={candidate_L} out of range 1..{p - 1}")

    def switched_at(boundary: int) -> list[int]:
        return scan_events(engine, [(boundary, boundary + 1)]).obs.tolist()

    switched = switched_at(candidate_L)
    if not switched:
        return RetentionAdvice(
            candidate_L,
            f"boundary ({candidate_L},{candidate_L + 1}) shows no switching; "
            f"candidate L={candidate_L} kept",
        )

    steps = [
        f"boundary ({candidate_L},{candidate_L + 1}) switches for "
        f"observations {switched}"
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
        switched = switched_at(nxt)
        if not switched:
            steps.append(f"boundary ({nxt},{nxt + 1}) is clean")
            return RetentionAdvice(nxt, "; ".join(steps))
        steps.append(
            f"boundary ({nxt},{nxt + 1}) also switches for observations "
            f"{switched}"
        )
        previous = nxt
    raise NoValidRetentionError("every candidate boundary is disrupted by switching")


def hybrid_influence(
    engine: LooEngine,
    L: int,
    flagged: Iterable[int],
) -> np.ndarray:
    """The ``eif_b`` series with exact ``sif_b`` values at the flagged indices.

    An n-vector, as :func:`eif_b_series` returns, whose entry ``i - 1`` is
    exact when ``i`` is flagged.  Costs the engine's full-data decomposition
    plus one reduced decomposition per flagged observation, so a handful of
    exact replacements keeps the sweep cheap while fixing the entries the
    empirical formula gets wrong.  An estimator without the closed form is
    refused before any reduced decomposition.  For the ``sci``/``scia``
    hybrid, see ``influence_records``.
    """
    series = eif_b_series(engine, L)
    rows, _, sif_b, _ = _exact(engine, L, flagged)
    series[rows - 1] = sif_b
    return series


def build_switch_report(
    engine: LooEngine,
    *,
    candidate_L: int,
    delta: float = DEFAULT_NEAR_DELTA,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> SwitchReport:
    """Detection by :func:`scan_events` plus retention advice.

    The events are ``scan_events(engine, pairs, delta=delta)``; the advice
    walks away from disrupted boundaries by :func:`recommend_L`, which scans
    the boundaries it visits whatever ``pairs`` holds.  Confirming the
    events (:func:`verify_exact`) and repairing an influence series at them
    (:func:`hybrid_influence`) are separate stages on the same engine.
    """
    events = scan_events(engine, pairs, delta=delta)
    try:
        advice = recommend_L(engine, candidate_L)
    except NoValidRetentionError as exc:
        advice = RetentionAdvice(candidate_L, f"retention advice failed: {exc}")
    return SwitchReport(events, advice)


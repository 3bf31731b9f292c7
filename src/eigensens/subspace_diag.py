"""Influence of single observations on retained eigenvector subspaces.

Two families of diagnostics, each with an exact (leave-one-out) and an
empirical (full-data-only) member:

* ``sif_b`` / ``eif_b`` -- based on the sines of the angles between the
  retained eigenvectors and their projections onto the perturbed subspace;
* ``sci`` / ``scia`` -- based on the average squared canonical correlation
  between the retained score sets with and without the observation.

:func:`eif_b_series` and :func:`scia_series` give the empirical members of
every observation from the engine's single full-data decomposition.
:func:`influence_records` adds the exact members for the rows asked for,
from one reduced decomposition per row shared by both.  Sign conventions:
``sif_b``/``eif_b`` are non-positive and ``sci``/``scia`` non-negative; it
is the magnitudes that matter when comparing observations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataset import COVARIANCE
from .eigen import _cosines, _rank_deficient, _score_basis, eigh_stack, pc_scores
from .errors import (
    DegenerateEigenvaluesError,
    RankDeficiencyError,
    UnsupportedEstimatorError,
)
from .influence import LooEngine, _chunk_rows

__all__ = [
    "InfluenceRecord",
    "eif_b_series",
    "scia_series",
    "influence_records",
]


@dataclass
class InfluenceRecord:
    """Per-observation subspace influence values for one retained count L.

    ``sif_eigen`` is the exact per-eigenvalue sample influence
    -(n-1) (lambda_(i) - lambda), set with the sample columns because it comes
    from the same reduced decomposition.
    """

    obs_index: int
    obs_label: str
    L: int
    sif_b: float | None = None
    eif_b: float | None = None
    sci: float | None = None
    scia: float | None = None
    note: str | None = None
    sif_eigen: np.ndarray | None = None


def _boundary_note(tied: bool, L: int, where: str) -> str | None:
    if tied:
        return (
            f"eigenvalues {L} and {L + 1} of the {where} estimate are nearly "
            "tied; the retained subspace is weakly determined"
        )
    return None


def _warn_boundaries(full_tied: bool, loo_tied: bool, L: int) -> None:
    for side, where in ((full_tied, "full-data"), (loo_tied, "leave-one-out")):
        note = _boundary_note(side, L, where)
        if note is not None:
            # past this function and the pass or helper that calls it
            warnings.warn(note, RuntimeWarning, stacklevel=4)


def _sif_b(n: int, V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``sif_b`` of n observations for an m x p x L stack of reduced retained
    bases ``W`` against the full-data basis ``V``: m values, each the same
    as for its matrix alone; 0 at L = p."""
    if V.shape[1] == len(V):
        return np.zeros(len(W))
    residual = V - W @ (W.transpose(0, 2, 1) @ V)
    alignment = 1.0 - np.mean(np.linalg.norm(residual, axis=1), axis=1)
    return (n - 1) * (alignment - 1.0)


def _sci(centered: np.ndarray, full: np.ndarray | None, W: np.ndarray) -> np.ndarray:
    """``sci`` for an m x p x L stack of reduced retained bases ``W``: the
    canonical correlations of the ``centered`` data's scores on each against
    ``full``, the orthonormal basis of its full-data scores (None at L = p,
    where every value is 0).  The n x L score stacks go in sub-blocks of at
    most ``CHUNK_ENTRIES`` entries, so memory stays bounded; NaN where the
    reduced scores are rank deficient."""
    out = np.zeros(len(W))
    if full is None:
        return out
    n = len(centered)
    step = _chunk_rows(n, W.shape[2])
    for start in range(0, len(W), step):
        basis, deficient = _score_basis(centered @ W[start:start + step])
        r = _cosines(full, basis)
        out[start:start + step] = (n - 1) ** 2 * (1.0 - np.mean(r**2, axis=1))
        out[start:start + step][deficient] = np.nan
    return out


def _exact(engine: LooEngine, L: int, rows: Iterable[int], *, sci: bool = False
           ) -> tuple:
    """``(rows, values, sif_b, sci)`` of the distinct 1-based ``rows``, ascending.

    The one exact pass.  The full-data side is built first, on the calling
    thread, so that the blocks only read it: the retained basis and, with
    ``sci``, the centred data and the orthonormal basis of its scores, which
    raises :class:`RankDeficiencyError` when rank deficient.  Then one
    engine sweep: each block rebuilds, decomposes and measures its reduced
    estimates (``sci`` is None unless asked for).  Warns on the calling
    thread when the estimates tie at (L, L+1): once for the full data, when
    there are rows, and once per row for a reduced estimate.
    """
    X, E = engine.X, engine.eigen
    if not 1 <= L <= E.p:
        raise ValueError(f"L={L} out of range 1..{E.p}")
    rows = sorted({int(i) for i in rows})
    V = E.vectors[:, :L].copy()
    centered = full = None
    if sci and L < E.p:
        # one power of two for the whole matrix, which no canonical
        # correlation sees, keeps the scores finite at the float limit
        centered = X.values - engine.mean
        centered = np.ldexp(centered, -np.frexp(np.max(np.abs(centered)))[1])
        full, deficient = _score_basis(centered @ V)
        if deficient:
            raise RankDeficiencyError(_rank_deficient("first", (X.n, L)))

    def block(index: np.ndarray) -> tuple:
        values, vectors, tied = eigh_stack(engine._loo_rebuild(index))
        # a fresh contiguous array: matmul on a strided view can round differently
        W = np.ascontiguousarray(vectors[..., :L])
        # column L - 1 of the tie mask is the pair (L, L+1); at L = p there is none
        return (values, tied[:, L - 1:L].any(axis=1), _sif_b(X.n, V, W),
                *([_sci(centered, full, W)] if sci else []))

    values, tied, sif_b, *measured = engine._sweep(rows, block)
    full_tied = (L, L + 1) in E.gap_warnings
    for k, loo_tied in enumerate(tied.tolist()):
        # a full-data tie is the pass's, warned once; a reduced one is its row's
        _warn_boundaries(full_tied and not k, loo_tied, L)
    return np.array(rows, dtype=int), values, sif_b, measured[0] if sci else None


def _empirical_pieces(engine: LooEngine, L: int):
    if engine.spec.kind != COVARIANCE:
        raise UnsupportedEstimatorError(
            "empirical subspace influence uses the covariance closed form; "
            f"got {engine.spec.kind!r} (use the exact measures instead)"
        )
    E = engine.eigen
    if not 1 <= L <= E.p:
        raise ValueError(f"L={L} out of range 1..{E.p} for empirical measures")
    if (L, L + 1) in E.gap_warnings:
        raise DegenerateEigenvaluesError(
            f"eigenvalues {L} and {L + 1} are nearly equal; the empirical "
            "influence denominator is degenerate"
        )
    return E, pc_scores(engine.X, E.vectors)


def eif_b_series(engine: LooEngine, L: int) -> np.ndarray:
    """Empirical subspace influence for every observation in one pass.

    Uses only the engine's full-data eigenvalues and scores, so the entire
    series costs a single decomposition.  At L = p every value is 0.
    """
    E, om = _empirical_pieces(engine, L)
    lam = E.values
    total = np.zeros(engine.n)
    for l in range(L):
        inner = np.zeros(engine.n)
        for k in range(L, E.p):
            inner += om[:, l] ** 2 * om[:, k] ** 2 / (lam[l] - lam[k]) ** 2
        total += np.sqrt(inner)
    # 0.0 - x rather than -x, so that a zero influence is written as 0.0
    return 0.0 - total / L


def scia_series(engine: LooEngine, L: int) -> np.ndarray:
    """Empirical score-space influence for every observation in one pass.

    A zero retained eigenvalue is refused only where a ratio over it is
    formed, at L < p; at L = p every value is 0."""
    E, om = _empirical_pieces(engine, L)
    lam = E.values
    total = np.zeros(engine.n)
    for l in range(L):
        if lam[l] == 0.0 and L < E.p:
            raise DegenerateEigenvaluesError(
                f"eigenvalue {l + 1} is zero; the score-space influence "
                "ratio is undefined"
            )
        for k in range(L, E.p):
            total += (lam[k] / lam[l]) * om[:, l] ** 2 * om[:, k] ** 2 \
                / (lam[l] - lam[k]) ** 2
    return total / L


def influence_records(
    engine: LooEngine,
    L: int,
    *,
    exact: Iterable[int] = (),
) -> list[InfluenceRecord]:
    """Subspace influence values for every observation.

    The empirical columns are filled in one pass from the engine's full-data
    decomposition; when the denominators are degenerate they are left unset
    and the reason is recorded on each record instead of aborting the sweep.
    The 1-based indices in ``exact`` also get the sample columns (``sif_b``,
    ``sci`` and ``sif_eigen``), each at the cost of one reduced
    decomposition; when the full-data scores are rank deficient, ``sci`` is
    left unset and the reason recorded likewise, on every row, and when only
    a row's reduced scores are, on that row alone.
    """
    X = engine.X
    E = engine.eigen
    exact = list(exact)
    notes = [_boundary_note((L, L + 1) in E.gap_warnings, L, "full-data")]
    empirical_b = empirical_c = None
    try:
        empirical_b = eif_b_series(engine, L)
        empirical_c = scia_series(engine, L)
    except (DegenerateEigenvaluesError, UnsupportedEstimatorError) as exc:
        notes.append(str(exc))
    try:
        rows, values, sif_b, sci = _exact(engine, L, exact, sci=bool(exact))
    except RankDeficiencyError as exc:
        notes.append(str(exc))
        rows, values, sif_b, sci = _exact(engine, L, exact)
    note = "; ".join(filter(None, notes)) or None

    records = [
        InfluenceRecord(
            obs_index=i,
            obs_label=X.row_labels[i - 1],
            L=L,
            eif_b=None if empirical_b is None else float(empirical_b[i - 1]),
            scia=None if empirical_c is None else float(empirical_c[i - 1]),
            note=note,
        )
        for i in range(1, X.n + 1)
    ]
    sif_eigen = -(X.n - 1) * (values - E.values)
    sci = [None] * len(rows) if sci is None else sci.tolist()
    deficient = _rank_deficient("second", (X.n, L))
    for i, b, c, eig in zip(rows.tolist(), sif_b.tolist(), sci, sif_eigen):
        record = records[i - 1]
        record.sif_b, record.sif_eigen = b, eig
        if c is not None and math.isnan(c):
            record.note = "; ".join(filter(None, [record.note, deficient]))
        else:
            record.sci = c
    return records

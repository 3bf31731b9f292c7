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

from .dataset import COVARIANCE, DataMatrix, _column_mean
from .eigen import EigenSystem, _cosines, _rank_deficient, _score_basis, eigh_stack
from .errors import (
    DegenerateEigenvaluesError,
    RankDeficiencyError,
    UnsupportedEstimatorError,
)
from .influence import LooEngine, _chunk_rows, _scores

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


class _SampleMeasures:
    """``sif_b`` (and ``sci`` on request) of reduced systems against one full-data system.

    The exact measures' one check of the retained count.  The full-data side
    (retained basis and, for ``sci``, the centred data and the orthonormal
    basis of its scores, which raises :class:`RankDeficiencyError` when rank
    deficient) is built on construction, so that the blocks only read it.
    Each measure takes an m x p x L stack of reduced retained bases and
    returns m values by stacked kernels, which run the same on each matrix as
    on one alone.  The n x L score stacks of ``sci`` go in sub-blocks of at
    most ``CHUNK_ENTRIES`` entries per reduced block, so memory stays bounded;
    ``sci`` is NaN where the reduced scores are rank deficient.
    """

    def __init__(self, X: DataMatrix, E: EigenSystem, L: int, *, sci: bool = False):
        if not 1 <= L <= E.p:
            raise ValueError(f"L={L} out of range 1..{E.p}")
        self.X = X
        self.p = E.p
        self.L = L
        self.full = E.vectors[:, :L].copy()
        self.with_sci = sci
        if sci and L < E.p:
            # one power of two for the whole matrix, which no canonical
            # correlation sees, keeps the scores finite at the float limit
            centered = X.values - _column_mean(X.values)
            self._centered = np.ldexp(centered, -np.frexp(np.max(np.abs(centered)))[1])
            self._full_scores, deficient = _score_basis(self._centered @ self.full)
            if deficient:
                raise RankDeficiencyError(_rank_deficient("first", (X.n, L)))

    def bases(self, vectors: np.ndarray) -> np.ndarray:
        """The m x p x L retained bases of an m x p x p stack of eigenvectors.

        A fresh contiguous array: ``matmul`` on a strided view of the full
        vectors can round differently.
        """
        return np.ascontiguousarray(vectors[..., :self.L])

    def sif_b(self, W: np.ndarray) -> np.ndarray:
        if self.L == self.p:
            return np.zeros(len(W))
        V = self.full
        residual = V - W @ (W.transpose(0, 2, 1) @ V)
        alignment = 1.0 - np.mean(np.linalg.norm(residual, axis=1), axis=1)
        return (self.X.n - 1) * (alignment - 1.0)

    def sci(self, W: np.ndarray) -> np.ndarray:
        out = np.zeros(len(W))
        if self.L == self.p:
            return out
        n = self.X.n
        step = _chunk_rows(n, self.L)
        for start in range(0, len(W), step):
            basis, deficient = _score_basis(self._centered @ W[start:start + step])
            r = _cosines(self._full_scores, basis)
            out[start:start + step] = (n - 1) ** 2 * (1.0 - np.mean(r**2, axis=1))
            out[start:start + step][deficient] = np.nan
        return out


def _exact(engine: LooEngine, measures: _SampleMeasures, rows: Iterable[int]
           ) -> tuple:
    """``(rows, values, sif_b, sci)`` of the distinct 1-based ``rows``, ascending.

    One engine sweep: each block rebuilds, decomposes and measures its
    reduced estimates (``sci`` is None unless ``measures`` has it).  Warns,
    row by row on the calling thread, when the full-data or the reduced
    estimate ties at (L, L+1).
    """
    rows = sorted({int(i) for i in rows})
    L = measures.L

    def block(index: np.ndarray) -> tuple:
        values, vectors, gaps = eigh_stack(engine._loo_rebuild(index))
        W = measures.bases(vectors)
        tied = np.array([(L, L + 1) in g for g in gaps], dtype=bool)
        return (values, tied, measures.sif_b(W),
                *([measures.sci(W)] if measures.with_sci else []))

    values, tied, sif_b, *sci = engine._sweep(rows, block)
    full_tied = (L, L + 1) in engine.eigen.gap_warnings
    for loo_tied in tied.tolist():
        _warn_boundaries(full_tied, loo_tied, L)
    return np.array(rows, dtype=int), values, sif_b, sci[0] if sci else None


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
    return E, _scores(engine)


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
    """Empirical score-space influence for every observation in one pass."""
    E, om = _empirical_pieces(engine, L)
    lam = E.values
    total = np.zeros(engine.n)
    for l in range(L):
        if lam[l] == 0.0:
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
        measures = _SampleMeasures(X, E, L, sci=bool(exact))
    except RankDeficiencyError as exc:
        notes.append(str(exc))
        measures = _SampleMeasures(X, E, L)
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
    rows, values, sif_b, sci = _exact(engine, measures, exact)
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

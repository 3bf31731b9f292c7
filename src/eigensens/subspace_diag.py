"""Influence of single observations on retained eigenvector subspaces.

Two families of diagnostics, each with an exact (leave-one-out) and an
empirical (full-data-only) member:

* ``sif_b`` / ``eif_b_series`` -- based on the sines of the angles between
  the retained eigenvectors and their projections onto the perturbed
  subspace;
* ``sci`` / ``scia_series`` -- based on the average squared canonical
  correlation between the retained score sets with and without the
  observation.

The exact members cost one extra decomposition per observation, shared by
both of them in a sweep; the empirical members are computed for every
observation from a single full-data decomposition.  Sign conventions:
``sif_b``/``eif_b`` are non-positive and ``sci``/``scia`` non-negative; it
is the magnitudes that matter when comparing observations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .dataset import (
    COVARIANCE,
    DataMatrix,
    EstimatorSpec,
    _require_loo,
    estimate,
    estimate_loo,
)
from .eigen import EigenSystem, Subspace, _cosines, _score_basis, eigh
from .errors import DegenerateEigenvaluesError, UnsupportedEstimatorError
from .influence import LooEngine, _chunk_rows, _scores

__all__ = [
    "InfluenceRecord",
    "subspace_alignment",
    "sif_b",
    "sci",
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


def subspace_alignment(S_full: Subspace, S_loo: Subspace) -> float:
    """Mean alignment of the full-data basis with the perturbed subspace.

    1 - (1/L) * sum_l ||(I - P_loo) eta_l||, i.e. one minus the average sine
    of the angle between each retained eigenvector and its projection onto
    the perturbed span.  Equals 1 when the spans agree, 0 when orthogonal.
    """
    if S_full.p != S_loo.p or S_full.L != S_loo.L:
        raise ValueError(
            f"subspace shapes differ: {S_full.basis.shape} vs {S_loo.basis.shape}"
        )
    residual = S_full.basis - S_loo.basis @ (S_loo.basis.T @ S_full.basis)
    return 1.0 - float(np.mean(np.linalg.norm(residual, axis=0)))


def _boundary_note(gaps: list[tuple[int, int]], L: int, where: str) -> str | None:
    if (L, L + 1) in gaps:
        return (
            f"eigenvalues {L} and {L + 1} of the {where} estimate are nearly "
            "tied; the retained subspace is weakly determined"
        )
    return None


def _warn_boundaries(gaps: list[tuple[int, int]], loo_gaps: list[tuple[int, int]],
                     L: int) -> None:
    for side, where in ((gaps, "full-data"), (loo_gaps, "leave-one-out")):
        note = _boundary_note(side, L, where)
        if note is not None:
            # past this function and the pass or helper that calls it
            warnings.warn(note, RuntimeWarning, stacklevel=4)


class _SampleMeasures:
    """``sif_b`` and ``sci`` of a block of reduced systems against one full-data system.

    The exact measures' one check of the retained count.  The full-data side
    (retained basis and, on the first use of ``sci``, the centred data and
    the orthonormal basis of its scores) is built once.  Each measure takes
    the m x p x L stack of reduced retained bases from :meth:`bases` and returns
    m values, computed by stacked ``matmul``, ``norm``, ``matrix_rank``,
    ``qr`` and ``svd``, which run the same kernel on each matrix as on one
    alone.  The n x L score stacks of ``sci`` go in sub-blocks of at most
    ``CHUNK_ENTRIES`` entries per reduced block, so memory stays bounded.
    """

    def __init__(self, X: DataMatrix, E: EigenSystem, L: int):
        if not 1 <= L <= E.p:
            raise ValueError(f"L={L} out of range 1..{E.p}")
        self.X = X
        self.p = E.p
        self.L = L
        self.full = E.vectors[:, :L].copy()
        self._centered: np.ndarray | None = None
        self._full_scores: np.ndarray | None = None

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
        if self._full_scores is None:
            self._centered = self.X.values - self.X.values.mean(axis=0)
            self._full_scores = _score_basis(self._centered @ self.full, "first")
        step = _chunk_rows(n, self.L)
        for start in range(0, len(W), step):
            scores = self._centered @ W[start:start + step]
            r = _cosines(self._full_scores, _score_basis(scores, "second"))
            out[start:start + step] = (n - 1) ** 2 * (1.0 - np.mean(r**2, axis=1))
        return out


def _reference(X: DataMatrix, spec: EstimatorSpec, L: int, i: int
               ) -> tuple[_SampleMeasures, np.ndarray]:
    """The per-row references' shared step: the full-data measures of ``X``
    and the 1 x p x L retained basis of the estimate without observation
    ``i``, from two decompositions, with the sweeps' warnings."""
    _require_loo(X)
    X._check_index(i)
    E = eigh(estimate(X, spec))
    measures = _SampleMeasures(X, E, L)
    if L == E.p:
        warnings.warn(
            "L equals the full dimension; the subspace influence is "
            "identically zero",
            RuntimeWarning,
            stacklevel=3,
        )
    E_loo = eigh(estimate_loo(X, spec, i))
    _warn_boundaries(E.gap_warnings, E_loo.gap_warnings, L)
    return measures, measures.bases(E_loo.vectors[None])


def _exact_blocks(engine: LooEngine, measures: _SampleMeasures, rows: Iterable[int]
                  ) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """The sweeps' exact pass over the distinct 1-based ``rows``, ascending.

    Yields ``(block, values, W)`` for each block of
    :meth:`LooEngine.reduced`: the rows, their m x p reduced eigenvalues and
    their m x p x L retained bases for ``measures``.  Warns, row by row, when
    the full-data or the reduced estimate ties at (L, L+1).
    """
    rows = sorted({int(i) for i in rows})
    for block, values, vectors, gaps in engine.reduced(rows):
        for loo_gaps in gaps:
            _warn_boundaries(engine.eigen.gap_warnings, loo_gaps, measures.L)
        yield block, values, measures.bases(vectors)


def sif_b(
    X: DataMatrix,
    spec: EstimatorSpec,
    L: int,
    i: int,
) -> float:
    """Sample influence of observation ``i`` on the retained L-dim subspace.

    (n-1) * [subspace_alignment(full basis, leave-one-out basis) - 1]; always <= 0, and
    identically 0 when L = p because both spans are the whole space.
    """
    measures, W = _reference(X, spec, L, i)
    return float(measures.sif_b(W)[0])


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


def sci(
    X: DataMatrix,
    spec: EstimatorSpec,
    L: int,
    i: int,
) -> float:
    """Sample influence of observation ``i`` on the retained score space.

    (n-1)^2 * (1 - mean squared canonical correlation) between the n-row
    score sets built from the full-data and leave-one-out bases.  The data
    rows are the same on both sides; only the basis changes.
    """
    measures, W = _reference(X, spec, L, i)
    return float(measures.sci(W)[0])


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
    decomposition.
    """
    X = engine.X
    E = engine.eigen
    note = _boundary_note(E.gap_warnings, L, "full-data")
    empirical_b = empirical_c = None
    try:
        empirical_b = eif_b_series(engine, L)
        empirical_c = scia_series(engine, L)
    except (DegenerateEigenvaluesError, UnsupportedEstimatorError) as exc:
        note = str(exc) if note is None else f"{note}; {exc}"

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
    measures = _SampleMeasures(X, E, L)
    for block, values, W in _exact_blocks(engine, measures, exact):
        sif_eigen = -(X.n - 1) * (values - E.values)
        for i, b, c, eig in zip(block, measures.sif_b(W).tolist(),
                                measures.sci(W).tolist(), sif_eigen):
            record = records[i - 1]
            record.sif_b, record.sci, record.sif_eigen = b, c, eig
    return records

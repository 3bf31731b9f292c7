"""Symmetric eigendecomposition with deterministic conventions.

Conventions used throughout the package:

* eigenvalues are returned in non-increasing order;
* each eigenvector is normalised so that its largest-magnitude entry is
  positive (ties broken by the lowest index), which makes repeated
  decompositions of the same matrix bit-for-bit identical;
* adjacent eigenvalues whose gap, relative to the largest eigenvalue
  magnitude, falls below ``GAP_TOL`` are recorded as ``gap_warnings`` so
  that downstream diagnostics can warn or refuse instead of silently
  dividing by a near-zero spectral gap.  Tiny negatives down to
  ``NEGATIVE_CLAMP`` on the same scale are rounded to zero, so both
  tolerances are independent of the units of the data.

Every decomposition performed through :func:`eigh` or :func:`eigh_stack` is
counted, one per matrix, which lets callers assert how many decompositions a
workflow actually spent.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataMatrix, SymmetricEstimate
from .errors import ConvergenceError, RankDeficiencyError

__all__ = [
    "EigenSystem",
    "Subspace",
    "eigh",
    "eigh_stack",
    "subspace",
    "projector",
    "pc_scores",
    "canonical_correlations",
    "decomposition_count",
    "count_decompositions",
]

GAP_TOL = 1e-10
NEGATIVE_CLAMP = -1e-10

_counter_lock = threading.Lock()
_decompositions = 0


def decomposition_count() -> int:
    """Total number of symmetric eigendecompositions performed so far."""
    return _decompositions


class _CounterWindow:
    def __init__(self, start: int):
        self._start = start
        self._end: int | None = None

    @property
    def total(self) -> int:
        end = self._end if self._end is not None else decomposition_count()
        return end - self._start

    def _close(self) -> None:
        self._end = decomposition_count()


@contextmanager
def count_decompositions():
    """Context manager exposing how many decompositions ran inside it."""
    window = _CounterWindow(decomposition_count())
    try:
        yield window
    finally:
        window._close()


@dataclass
class EigenSystem:
    """Eigenvalues (descending) and orthonormal eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray
    gap_warnings: list[tuple[int, int]] = field(default_factory=list)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def value(self, j: int) -> float:
        """The j-th largest eigenvalue (1-based)."""
        self._check_rank(j)
        return float(self.values[j - 1])

    def vector(self, j: int) -> np.ndarray:
        """The eigenvector paired with the j-th largest eigenvalue (1-based)."""
        self._check_rank(j)
        return self.vectors[:, j - 1]

    def is_degenerate_at(self, j: int) -> bool:
        """True when eigenvalue ``j`` (1-based) ties one of its neighbours."""
        self._check_rank(j)
        return any(j in pair for pair in self.gap_warnings)

    def _check_rank(self, j: int) -> None:
        if not 1 <= j <= self.p:
            raise ValueError(f"eigenvalue rank {j} out of range 1..{self.p}")


@dataclass
class Subspace:
    """The span of the first L eigenvectors, stored as a p x L basis."""

    basis: np.ndarray
    L: int

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim != 2:
            raise ValueError("basis must be a p x L matrix")
        if not 1 <= self.L <= self.basis.shape[0] or self.basis.shape[1] != self.L:
            raise ValueError(
                f"invalid retained count L={self.L} for basis {self.basis.shape}"
            )
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(self.L))) > 1e-8:
            raise ValueError("basis columns are not orthonormal")

    @property
    def p(self) -> int:
        return self.basis.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximiser, which is the tie-break we want.
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigh(W: SymmetricEstimate | np.ndarray) -> EigenSystem:
    """Full decomposition of a symmetric matrix, deterministic conventions."""
    mat = W.matrix if isinstance(W, SymmetricEstimate) else np.asarray(W, dtype=float)
    return eigh_stack(mat[np.newaxis])[0]


def eigh_stack(mats: np.ndarray) -> list[EigenSystem]:
    """Decompose a stack of symmetric matrices (m x p x p) in one LAPACK call.

    Counts as m decompositions.  Each system is bit for bit what :func:`eigh`
    returns for its matrix alone.
    """
    global _decompositions
    mats = np.asarray(mats, dtype=float)
    with _counter_lock:
        _decompositions += mats.shape[0]
    try:
        stacked_values, stacked_vectors = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed to converge for a {mats.shape[-1]}x"
            f"{mats.shape[-1]} matrix: {exc}"
        ) from exc
    return [_ordered(values, vectors)
            for values, vectors in zip(stacked_values, stacked_vectors)]


def _tie_scale(values: np.ndarray) -> float:
    """Scale of the relative tolerances: max |lambda|, or 1 for a zero matrix."""
    top = float(np.max(np.abs(values))) if values.size else 0.0
    return top if top > 0.0 else 1.0


def _ordered(values: np.ndarray, vectors: np.ndarray) -> EigenSystem:
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    scale = _tie_scale(values)
    # remove floating-point negatives on estimates that are PSD in theory
    values[(values < 0.0) & (values >= NEGATIVE_CLAMP * scale)] = 0.0
    gaps = [
        (j + 1, j + 2)
        for j in range(values.size - 1)
        if (values[j] - values[j + 1]) / scale < GAP_TOL
    ]
    return EigenSystem(values, vectors, gaps)


def subspace(E: EigenSystem, L: int) -> Subspace:
    """The span of the first ``L`` eigenvectors of ``E``."""
    if not 1 <= L <= E.p:
        raise ValueError(f"L={L} out of range 1..{E.p}")
    if (L, L + 1) in E.gap_warnings:
        warnings.warn(
            f"eigenvalues {L} and {L + 1} are nearly tied; the retained "
            "subspace is not well determined",
            RuntimeWarning,
            stacklevel=2,
        )
    return Subspace(E.vectors[:, :L].copy(), L)


def projector(S: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace: symmetric, idempotent, trace L."""
    return S.basis @ S.basis.T


def pc_scores(X: DataMatrix | np.ndarray, S: Subspace, centered: bool = True) -> np.ndarray:
    """Project each observation onto the retained basis (n x L scores)."""
    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    if values.shape[1] != S.p:
        raise ValueError(
            f"data has {values.shape[1]} columns but the basis expects {S.p}"
        )
    if centered:
        values = values - values.mean(axis=0)
    return values @ S.basis


def canonical_correlations(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Canonical correlations between the column spaces of ``A`` and ``B``.

    Both matrices are centered column-wise, then the correlations are taken
    from the spectrum of the product of the two orthogonal projectors (the
    cosines of the principal angles), which stays stable when n is small.
    Values are clipped to [0, 1] and returned in descending order.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"score matrices differ in shape: {A.shape} vs {B.shape}")
    return _cosines(_score_basis(A, "first"), _score_basis(B, "second"))


def _score_basis(scores: np.ndarray, name: str) -> np.ndarray:
    """Orthonormal basis of the column-centred scores; refuses rank deficiency."""
    centered = scores - scores.mean(axis=0)
    if np.linalg.matrix_rank(centered) < centered.shape[1]:
        raise RankDeficiencyError(
            f"{name} score matrix is rank deficient after centering "
            f"(shape {centered.shape})"
        )
    q, _ = np.linalg.qr(centered)
    return q


def _cosines(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between two orthonormal bases."""
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.clip(np.sort(cosines)[::-1], 0.0, 1.0)

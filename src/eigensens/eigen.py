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

:func:`eigh_stack` returns a stack's systems as stacked arrays; :func:`eigh`
decomposes a stack of one into an :class:`EigenSystem`.  Each decomposition
is counted, one per matrix, by every open :func:`count_decompositions` window,
which lets callers assert how many decompositions a workflow actually spent.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .dataset import DataMatrix, SymmetricEstimate, _column_mean
from .errors import ConvergenceError

__all__ = [
    "EigenSystem",
    "eigh",
    "eigh_stack",
    "pc_scores",
    "count_decompositions",
]

GAP_TOL = 1e-10
NEGATIVE_CLAMP = -1e-10

_open_windows: dict[int, SimpleNamespace] = {}
_count_lock = threading.Lock()  # the sweeps decompose on two threads


@contextmanager
def count_decompositions():
    """Context manager whose ``total`` counts the decompositions run inside
    it: live within the block, fixed once the block exits."""
    window = SimpleNamespace(total=0)
    _open_windows[id(window)] = window
    try:
        yield window
    finally:
        del _open_windows[id(window)]


@dataclass
class EigenSystem:
    """Eigenvalues (descending) and orthonormal eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray
    gap_warnings: list[tuple[int, int]] = field(default_factory=list)

    @property
    def p(self) -> int:
        return self.values.shape[0]


def eigh(W: SymmetricEstimate | np.ndarray) -> EigenSystem:
    """Full decomposition of a symmetric matrix, deterministic conventions."""
    mat = W.matrix if isinstance(W, SymmetricEstimate) else np.asarray(W, dtype=float)
    values, vectors, tied = eigh_stack(mat[np.newaxis])
    return EigenSystem(values[0], vectors[0],
                       [(j + 1, j + 2) for j in np.flatnonzero(tied[0]).tolist()])


def eigh_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose a stack of symmetric matrices (m x p x p) in one LAPACK call.

    Returns ``(values, vectors, tied)``: the m x p eigenvalues, the m x p x p
    eigenvectors (as columns) and the m x (p-1) relative gap test, True at
    ``[k, j]`` when eigenvalues j+1 and j+2 of matrix k are nearly tied.
    Counts as m decompositions.  The conventions (stable descending order, sign
    rule, clamp of tiny negatives, relative gap test) are applied to the
    whole stack with array operations, so row k is bit for bit what
    :func:`eigh` returns for matrix k alone.
    """
    mats = np.asarray(mats, dtype=float)
    with _count_lock:
        for window in _open_windows.values():
            window.total += mats.shape[0]
    try:
        values, vectors = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed to converge for a {mats.shape[-1]}x"
            f"{mats.shape[-1]} matrix: {exc}"
        ) from exc
    # LAPACK returns each spectrum in ascending order, so reversing it is the
    # stable descending order
    values = values[:, ::-1].copy()
    vectors = vectors[:, :, ::-1]
    # np.argmax returns the first maximiser, which is the tie-break we want
    lead = np.argmax(np.abs(vectors), axis=-2)
    signs = np.sign(np.take_along_axis(vectors, lead[:, np.newaxis, :], axis=-2))
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    # scale of the relative tolerances: max |lambda|, or 1 for a zero matrix
    scale = np.max(np.abs(values), axis=-1, initial=0.0)
    scale[scale == 0.0] = 1.0
    scale = scale[:, np.newaxis]
    # remove floating-point negatives on estimates that are PSD in theory
    values[(values < 0.0) & (values >= NEGATIVE_CLAMP * scale)] = 0.0
    tied = (values[:, :-1] - values[:, 1:]) / scale < GAP_TOL
    return values, vectors, tied


def pc_scores(X: DataMatrix, basis: np.ndarray) -> np.ndarray:
    """Project each centred observation onto a p x L basis (n x L scores)."""
    if X.p != basis.shape[0]:
        raise ValueError(
            f"data has {X.p} columns but the basis expects {basis.shape[0]}"
        )
    return (X.values - _column_mean(X.values)) @ np.ascontiguousarray(basis)


def _score_basis(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the column-centred scores, and whether it is
    rank deficient.

    ``scores`` is one n x L matrix or a stack of them (m x n x L); the mask
    (a bool, or one per matrix) is True where the centred scores have rank
    below L, and the basis there spans too little to mean anything.
    """
    centered = scores - scores.mean(axis=-2, keepdims=True)
    q, _ = np.linalg.qr(centered)
    return q, np.linalg.matrix_rank(centered) < centered.shape[-1]


def _rank_deficient(name: str, shape: tuple[int, ...]) -> str:
    """Why the ``name`` score matrix of ``shape`` has no canonical correlations."""
    return f"{name} score matrix is rank deficient after centering (shape {shape})"


def _cosines(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between orthonormal bases, descending.

    Either basis may be a stack; the result has one row per pair.
    """
    cosines = np.linalg.svd(np.swapaxes(qa, -1, -2) @ qb, compute_uv=False)
    return np.clip(np.sort(cosines, axis=-1)[..., ::-1], 0.0, 1.0)

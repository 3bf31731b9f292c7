"""Influence of single observations on the eigenvalues of a symmetric estimate.

Three flavours are provided for each eigenvalue:

* ``sif_eigenvalue`` -- the sample influence, -(n-1) times the change in the
  eigenvalue when the observation is actually removed and the reduced matrix
  is re-decomposed;
* ``eif_eigenvalue`` -- the closed-form empirical influence available for the
  covariance estimator, computed from full-data quantities only;
* ``hif_eigenvalue`` -- the hybrid influence, which plugs the exact influence
  of the *matrix* into the eigenvalue formula and therefore works for any
  symmetric estimator, closed form or not.

The hybrid form is what yields the cheap post-removal eigenvalue
approximation ``approx_eigenvalues_loo``: the Rayleigh quotient of the
leave-one-out estimate at the full-data eigenvectors.  Crucially those
approximations are *not* re-sorted; they stay indexed by the full-data ranks,
which is what makes order disruptions visible to the switching detector.

:class:`LooEngine` holds the leave-one-out state of one run: the full-data
decomposition, mean and scatter, the rank-one downdates, the approximate table
(computed once) and the exact reduced decompositions, one per observation
that needs one.  Every leave-one-out sweep takes an engine as its one data
argument; the per-observation functions are references that take the data
and the estimator and decompose their own input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .dataset import (
    COVARIANCE,
    DataMatrix,
    EstimatorSpec,
    SymmetricEstimate,
    _finish,
    _scatter,
    estimate,
    estimate_loo,
    mean_vector,
)
from .eigen import EigenSystem, eigh, eigh_stack
from .errors import DataError, DegenerateEigenvaluesError, UnsupportedEstimatorError

__all__ = [
    "LooEngine",
    "EigenInfluence",
    "component_score",
    "approx_eigenvalues_loo",
    "loo_eigenvalue_table",
    "sif_eigenvalue",
    "eif_covariance",
    "eif_eigenvalue",
    "hif_eigenvalue",
    "eigen_influence",
    "eigenvalue_gradient_check",
]

# float64 entries per stacked block of p x p matrices (2 MiB), so that the
# leave-one-out sweeps hold a few MB whatever n is
CHUNK_ENTRIES = 1 << 18


@dataclass
class EigenInfluence:
    """Per-eigenvalue influence values for one observation."""

    obs_index: int
    eif: np.ndarray | None
    hif: np.ndarray


def component_score(E: EigenSystem, xbar: np.ndarray, x_i: np.ndarray, l: int) -> float:
    """Score of a point on the l-th eigenvector (1-based): eta_l . (x_i - xbar)."""
    return float(E.vector(l) @ (np.asarray(x_i, float) - np.asarray(xbar, float)))


def _require_loo(X: DataMatrix) -> None:
    if X.n < 3:
        raise DataError(f"leave-one-out needs at least 3 observations, got {X.n}")


def approx_eigenvalues_loo(X: DataMatrix, spec: EstimatorSpec, i: int) -> np.ndarray:
    """Approximate all eigenvalues of the estimate with observation ``i`` removed.

    Entry j-1 is the Rayleigh quotient of the leave-one-out estimate at the
    j-th full-data eigenvector, kept in full-data rank order.  Uses the
    full-data eigenvectors as fixed directions, so the full-data
    decomposition is the only one required.
    """
    return _rayleigh_row(LooEngine(X, spec), i)


def _rayleigh_row(engine: LooEngine, i: int) -> np.ndarray:
    V = engine.eigen.vectors
    return np.einsum("jp,jk,kp->p", V, engine.loo_block(i, i)[0], V)


def _chunk_rows(p: int) -> int:
    """Rows per stacked block, so that a block of p x p matrices stays small."""
    return max(1, CHUNK_ENTRIES // (p * p))


def loo_eigenvalue_table(engine: LooEngine) -> np.ndarray:
    """n x p table of approximated leave-one-out eigenvalues, one row per i.

    The whole sweep reuses the engine's full-data decomposition and scatter:
    the rows come as stacked rank-one downdates in bounded blocks, each
    projected onto the full-data eigenvectors in one call.  Every row equals
    :func:`approx_eigenvalues_loo` for its observation exactly.
    """
    V = engine.eigen.vectors
    n, p = engine.n, engine.p
    table = np.empty((n, p))
    step = _chunk_rows(p)
    for first in range(1, n + 1, step):
        last = min(first + step - 1, n)
        table[first - 1:last] = np.einsum(
            "jp,ijk,kp->ip", V, engine.loo_block(first, last), V
        )
    return table


class LooEngine:
    """The full-data and leave-one-out state of one run, shared by all diagnostics.

    Holds the full-data decomposition, mean and scatter; produces each
    leave-one-out estimate as a rank-one downdate in O(p^2); computes the
    approximate table of :func:`loo_eigenvalue_table` once on first use; and
    decomposes reduced estimates in stacked blocks.  A diagnostic handed an
    engine never rebuilds what the engine already has.
    """

    def __init__(self, X: DataMatrix, spec: EstimatorSpec = EstimatorSpec()):
        self.X = X
        self.spec = spec
        self.eigen = eigh(estimate(X, spec))
        self.mean = X.values.mean(axis=0)
        self._scatter = _scatter(X.values)
        self._table: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def p(self) -> int:
        return self.X.p

    @property
    def table(self) -> np.ndarray:
        """n x p approximated leave-one-out eigenvalues, in full-data rank order."""
        if self._table is None:
            self._table = loo_eigenvalue_table(self)
        return self._table

    def loo_block(self, first: int, last: int) -> np.ndarray:
        """Stacked estimates without each of observations ``first..last``.

        Indices are 1-based and inclusive; the result is (last-first+1) x p x
        p; entry k is the estimate without observation ``first + k``, a
        rank-one downdate of the full-data scatter that agrees with
        :func:`eigensens.dataset.estimate_loo` to floating-point accuracy.
        """
        X = self.X
        _require_loo(X)
        X._check_index(first)
        X._check_index(last)
        delta = X.values[first - 1:last] - self.mean
        outer = delta[:, :, None] * delta[:, None, :]
        scatters = self._scatter - (X.n / (X.n - 1.0)) * outer
        return _finish(scatters, self.spec, X.n - 1, X.col_labels)

    def reduced(self, rows: Iterable[int]) -> Iterator[tuple[int, EigenSystem]]:
        """Exact decomposition of the estimate without each of ``rows``.

        Yields ``(i, system)`` in the order given, one decomposition per row.
        Each reduced matrix is re-estimated from the deleted data, exactly as
        :func:`eigensens.dataset.estimate_loo` does, and each block of them is
        decomposed in one stacked call.
        """
        X = self.X
        _require_loo(X)
        rows = [int(i) for i in rows]
        for i in rows:
            X._check_index(i)
        step = _chunk_rows(X.p)
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            mats = np.stack([
                _finish(_scatter(np.delete(X.values, i - 1, axis=0)), self.spec,
                        X.n - 1, X.col_labels)
                for i in block
            ])
            yield from zip(block, eigh_stack(mats))


def _check_unique(E: EigenSystem, j: int, what: str) -> None:
    if E.is_degenerate_at(j):
        raise DegenerateEigenvaluesError(
            f"eigenvalue {j} is nearly tied with a neighbour "
            f"(gap warnings {E.gap_warnings}); {what} is not defined for "
            "degenerate eigenvalues"
        )


def sif_eigenvalue(
    X: DataMatrix,
    spec: EstimatorSpec,
    j: int,
    i: int,
) -> float:
    """Sample influence of observation ``i`` on the j-th eigenvalue (1-based).

    -(n-1) times the difference between the j-th eigenvalue with and without
    the observation, both taken in descending order from true decompositions.
    """
    _require_loo(X)
    E = eigh(estimate(X, spec))
    _check_unique(E, j, "the sample influence of an eigenvalue")
    loo_values = eigh(estimate_loo(X, spec, i)).values
    return -(X.n - 1) * (float(loo_values[j - 1]) - E.value(j))


def eif_covariance(
    X: DataMatrix,
    i: int,
    spec: EstimatorSpec = EstimatorSpec(),
) -> np.ndarray:
    """Empirical influence of observation ``i`` on the covariance estimate.

    The closed form (x_i - xbar)(x_i - xbar)^T - Sigma_hat, valid only for
    the covariance estimator.
    """
    if spec.kind != COVARIANCE:
        raise UnsupportedEstimatorError(
            "the closed-form matrix influence is only available for the "
            f"covariance estimator, not {spec.kind!r}"
        )
    delta = X.row(i) - mean_vector(X)
    return np.outer(delta, delta) - estimate(X, spec).matrix


def eif_eigenvalue(
    X: DataMatrix,
    j: int,
    i: int,
    spec: EstimatorSpec = EstimatorSpec(),
) -> float:
    """Closed-form empirical influence on the j-th covariance eigenvalue.

    The squared score of the observation on the j-th eigenvector minus
    the eigenvalue itself, using full-data quantities only.
    """
    if spec.kind != COVARIANCE:
        raise UnsupportedEstimatorError(
            "no closed-form eigenvalue influence is shipped for "
            f"{spec.kind!r} estimates; use hif_eigenvalue, which works for "
            "any symmetric estimator"
        )
    E = eigh(estimate(X, spec))
    w = component_score(E, mean_vector(X), X.row(i), j)
    return w * w - E.value(j)


def hif_eigenvalue(
    X: DataMatrix,
    spec: EstimatorSpec,
    j: int,
    i: int,
) -> float:
    """Hybrid influence on the j-th eigenvalue, valid for any estimator kind.

    Equals -(n-1) times the approximated eigenvalue shift of
    :func:`approx_eigenvalues_loo`, by construction exactly.
    """
    engine = LooEngine(X, spec)
    approx = _rayleigh_row(engine, i)
    return -(X.n - 1) * (float(approx[j - 1]) - engine.eigen.value(j))


def eigen_influence(
    X: DataMatrix,
    spec: EstimatorSpec,
    i: int,
) -> EigenInfluence:
    """Empirical and hybrid per-eigenvalue influence for one observation.

    The empirical column is present only for covariance estimates.
    """
    engine = LooEngine(X, spec)
    E = engine.eigen
    hif = -(X.n - 1) * (_rayleigh_row(engine, i) - E.values)
    eif = None
    if spec.kind == COVARIANCE:
        w = E.vectors.T @ (X.row(i) - engine.mean)
        eif = w * w - E.values
    return EigenInfluence(i, eif, hif)


def eigenvalue_gradient_check(
    W: SymmetricEstimate | np.ndarray,
    x0: np.ndarray,
    mu: np.ndarray,
    j: int,
    eps: float = 1e-6,
) -> tuple[float, float]:
    """Finite-difference check of the eigenvalue influence direction.

    Contaminating a distribution with mass ``eps`` at ``x0`` perturbs the
    covariance to (1-eps) Sigma + eps (1-eps) (x0-mu)(x0-mu)^T.  The function
    returns the finite-difference slope of the j-th eigenvalue along that
    path together with the analytic directional derivative
    eta_j^T [(x0-mu)(x0-mu)^T - Sigma] eta_j; the caller asserts agreement.
    """
    if not 0.0 < eps <= 1e-4:
        raise ValueError(f"eps must be in (0, 1e-4], got {eps}")
    sigma = W.matrix if isinstance(W, SymmetricEstimate) else np.asarray(W, float)
    E = eigh(sigma)
    _check_unique(E, j, "the eigenvalue influence")
    delta = np.asarray(x0, float) - np.asarray(mu, float)
    rank_one = np.outer(delta, delta)
    analytic = float(E.vector(j) @ (rank_one - sigma) @ E.vector(j))
    perturbed = (1.0 - eps) * sigma + eps * (1.0 - eps) * rank_one
    fd = (eigh(perturbed).value(j) - E.value(j)) / eps
    return fd, analytic

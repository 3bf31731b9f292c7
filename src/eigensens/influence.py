"""Influence of single observations on the eigenvalues of a symmetric estimate.

Three flavours are provided for each eigenvalue:

* the sample influence, ``sif_eigenvalue``: -(n-1) times the change in the
  eigenvalue when the observation is actually removed and the reduced matrix
  is re-decomposed;
* the empirical influence, ``eif_eigenvalue``: the closed form available for
  the covariance estimator, computed from full-data quantities only;
* the hybrid influence: -(n-1) times the shift of the approximated
  leave-one-out eigenvalue, which works for any symmetric estimator, closed
  form or not.

:func:`eigen_influence` sweeps the empirical and hybrid influence of every
observation on every eigenvalue.  The approximation behind the hybrid form is
the Rayleigh quotient of the leave-one-out estimate at the full-data
eigenvectors (:func:`loo_eigenvalue_table`).  Crucially those approximations
are *not* re-sorted; they stay indexed by the full-data ranks, which is what
makes order disruptions visible to the switching detector.

:class:`LooEngine` holds the leave-one-out state of one run: the full-data
decomposition, mean and scatter, the rank-one downdates, the approximate table
(each column computed once, when first needed) and the exact reduced
decompositions, one per observation that needs one.  Every leave-one-out
sweep takes an engine as its one data argument; the per-observation
functions are references that take the data and the estimator and decompose
their own input.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .dataset import (
    COVARIANCE,
    DataMatrix,
    EstimatorSpec,
    SymmetricEstimate,
    _finish,
    _require_loo,
    _scatter,
    estimate,
    estimate_loo,
    mean_vector,
)
from .eigen import EigenSystem, eigh, eigh_stack
from .errors import DegenerateEigenvaluesError, UnsupportedEstimatorError

__all__ = [
    "LooEngine",
    "component_score",
    "loo_eigenvalue_table",
    "eigen_influence",
    "sif_eigenvalue",
    "eif_covariance",
    "eif_eigenvalue",
    "eigenvalue_gradient_check",
]

# float64 entries per stacked block of p x p matrices (2 MiB), so that the
# leave-one-out sweeps hold a few MB whatever n is
CHUNK_ENTRIES = 1 << 18


def component_score(E: EigenSystem, xbar: np.ndarray, x_i: np.ndarray, l: int) -> float:
    """Score of a point on the l-th eigenvector (1-based): eta_l . (x_i - xbar)."""
    return float(E.vector(l) @ (np.asarray(x_i, float) - np.asarray(xbar, float)))


def _chunk_rows(p: int) -> int:
    """Rows per stacked block, so that a block of p x p matrices stays small."""
    return max(1, CHUNK_ENTRIES // (p * p))


def loo_eigenvalue_table(engine: LooEngine) -> np.ndarray:
    """n x p table of approximated leave-one-out eigenvalues, one row per i.

    The engine's table with every column filled: the sweep reuses the
    engine's full-data decomposition and scatter, and each column is
    computed once per engine.
    """
    return engine._columns(range(1, engine.p + 1))


def _scores(engine: LooEngine) -> np.ndarray:
    """n x p scores (x_i - xbar)^T V of every observation on every eigenvector."""
    return (engine.X.values - engine.mean) @ engine.eigen.vectors


def eigen_influence(engine: LooEngine) -> tuple[np.ndarray | None, np.ndarray]:
    """Empirical and hybrid influence of every observation on every eigenvalue.

    Returns ``(eif, hif)``, two n x p arrays in full-data rank order.  ``hif``
    is -(n-1) times the approximated eigenvalue shift of the engine's table,
    for any estimator; ``eif`` is the squared score minus the eigenvalue, the
    closed form of the covariance estimator, and None for any other.
    """
    lam = engine.eigen.values
    hif = -(engine.n - 1) * (engine.table - lam)
    eif = _scores(engine) ** 2 - lam if engine.spec.kind == COVARIANCE else None
    return eif, hif


def _rayleigh_block(engine: LooEngine, rows: np.ndarray, cols: np.ndarray
                    ) -> np.ndarray:
    """Approximated eigenvalues at 0-based ``rows`` and ``cols`` of the table.

    The rows come as stacked rank-one downdates in bounded blocks, each
    projected onto the chosen full-data eigenvectors in one call; an entry
    does not depend on which other rows or columns are asked for.
    """
    V = engine.eigen.vectors[:, cols]
    out = np.empty((len(rows), len(cols)))
    step = _chunk_rows(engine.p)
    for start in range(0, len(rows), step):
        out[start:start + step] = np.einsum(
            "jp,ijk,kp->ip", V, engine._loo_stack(rows[start:start + step]), V
        )
    return out


class LooEngine:
    """The full-data and leave-one-out state of one run, shared by all diagnostics.

    Holds the full-data decomposition, mean and scatter; produces each
    leave-one-out estimate as a rank-one downdate in O(p^2); computes each
    column of the approximate table of :func:`loo_eigenvalue_table` once,
    when first needed; and decomposes reduced estimates in stacked blocks.
    A diagnostic handed an engine never rebuilds what the engine already has.
    """

    def __init__(self, X: DataMatrix, spec: EstimatorSpec = EstimatorSpec()):
        _require_loo(X)
        self.X = X
        self.spec = spec
        self.eigen = eigh(estimate(X, spec))
        self.mean = X.values.mean(axis=0)
        self._scatter = _scatter(X.values)
        self._table = np.full((X.n, X.p), np.nan)
        self._filled = np.zeros(X.p, dtype=bool)

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def p(self) -> int:
        return self.X.p

    @property
    def table(self) -> np.ndarray:
        """n x p approximated leave-one-out eigenvalues, in full-data rank order.

        Computes whichever columns are still missing; the same array on
        every call.
        """
        return loo_eigenvalue_table(self)

    def _columns(self, ranks: Iterable[int]) -> np.ndarray:
        """The table with at least the columns of 1-based ``ranks`` computed.

        Each column is computed once, over all rows; a column not yet asked
        for holds NaN.
        """
        missing = np.array(sorted({j - 1 for j in ranks if not self._filled[j - 1]}),
                           dtype=int)
        if missing.size:
            self._table[:, missing] = _rayleigh_block(self, np.arange(self.n), missing)
            self._filled[missing] = True
        return self._table

    def table_rows(self, rows: Iterable[int]) -> np.ndarray:
        """Full rows of the approximate table for 1-based ``rows``, in order.

        Read from the table once every column is computed; otherwise only
        these rows' downdates are projected, with the same values the table
        rows will hold.
        """
        rows = [int(i) for i in rows]
        for i in rows:
            self.X._check_index(i)
        index = np.array(rows, dtype=int) - 1
        if self._filled.all():
            return self._table[index]
        return _rayleigh_block(self, index, np.arange(self.p))

    def loo_block(self, first: int, last: int) -> np.ndarray:
        """Stacked estimates without each of observations ``first..last``.

        Indices are 1-based and inclusive; the result is (last-first+1) x p x
        p; entry k is the estimate without observation ``first + k``, a
        rank-one downdate of the full-data scatter that agrees with
        :func:`eigensens.dataset.estimate_loo` to floating-point accuracy.
        """
        self.X._check_index(first)
        self.X._check_index(last)
        return self._loo_stack(np.arange(first - 1, last))

    def _loo_stack(self, index: np.ndarray) -> np.ndarray:
        """Stacked estimates without each observation of 0-based ``index``."""
        X = self.X
        delta = X.values[index] - self.mean
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
            f"{spec.kind!r} estimates; use the hybrid influence of "
            "eigen_influence(engine), which works for any symmetric estimator"
        )
    E = eigh(estimate(X, spec))
    w = component_score(E, mean_vector(X), X.row(i), j)
    return w * w - E.value(j)


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

"""Per-observation references: the oracles that the engine sweeps are tested against.

Each function takes the data (or a decomposition) and decomposes its own
input: one full-data decomposition, and for the sample influences a second
one of the physically reduced matrix.  None of them is part of the package;
the sweeps of :mod:`eigensens` give every observation's value from one shared
:class:`eigensens.LooEngine`.  ``sif_b``, ``sci`` and ``canonical_correlations``
call the package's own stacked kernels on a stack of one, so a sweep's value
for a row equals the reference bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from eigensens.dataset import (
    COVARIANCE,
    DataMatrix,
    EstimatorSpec,
    SymmetricEstimate,
    _column_mean,
    _require_loo,
    estimate,
    estimate_loo,
)
from eigensens.eigen import (
    EigenSystem,
    Subspace,
    _cosines,
    _rank_deficient,
    _score_basis,
    eigh,
)
from eigensens.errors import (
    DegenerateEigenvaluesError,
    RankDeficiencyError,
    UnsupportedEstimatorError,
)
from eigensens.subspace_diag import _sci, _sif_b, _warn_boundaries


def mean_vector(X: DataMatrix) -> np.ndarray:
    """Column means of the data matrix."""
    return X.values.mean(axis=0)


def projector(S: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace: symmetric, idempotent, trace L."""
    return S.basis @ S.basis.T


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
    (qa, bad_a), (qb, bad_b) = _score_basis(A), _score_basis(B)
    for name, bad in (("first", bad_a), ("second", bad_b)):
        if bad:
            raise RankDeficiencyError(_rank_deficient(name, A.shape))
    return _cosines(qa, qb)


def component_score(E: EigenSystem, xbar: np.ndarray, x_i: np.ndarray, l: int) -> float:
    """Score of a point on the l-th eigenvector (1-based): eta_l . (x_i - xbar)."""
    return float(E.vectors[:, l - 1] @ (np.asarray(x_i, float) - np.asarray(xbar, float)))


def _check_unique(E: EigenSystem, j: int, what: str) -> None:
    if any(j in pair for pair in E.gap_warnings):
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
    return -(X.n - 1) * (float(loo_values[j - 1]) - float(E.values[j - 1]))


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
    delta = X.values[i - 1] - mean_vector(X)
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
    w = component_score(E, mean_vector(X), X.values[i - 1], j)
    return w * w - float(E.values[j - 1])


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
    eta = E.vectors[:, j - 1]
    analytic = float(eta @ (rank_one - sigma) @ eta)
    perturbed = (1.0 - eps) * sigma + eps * (1.0 - eps) * rank_one
    fd = (float(eigh(perturbed).values[j - 1]) - float(E.values[j - 1])) / eps
    return fd, analytic


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


def _reference(X: DataMatrix, spec: EstimatorSpec, L: int, i: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """The shared step of ``sif_b`` and ``sci``: the p x L full-data retained
    basis of ``X`` and the 1 x p x L retained basis of the estimate without
    observation ``i``, from two decompositions, with the sweeps' warnings."""
    _require_loo(X)
    X._check_index(i)
    E = eigh(estimate(X, spec))
    if not 1 <= L <= E.p:
        raise ValueError(f"L={L} out of range 1..{E.p}")
    if L == E.p:
        warnings.warn(
            "L equals the full dimension; the subspace influence is "
            "identically zero",
            RuntimeWarning,
            stacklevel=3,
        )
    E_loo = eigh(estimate_loo(X, spec, i))
    _warn_boundaries((L, L + 1) in E.gap_warnings, (L, L + 1) in E_loo.gap_warnings, L)
    return E.vectors[:, :L].copy(), np.ascontiguousarray(E_loo.vectors[None, :, :L])


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
    V, W = _reference(X, spec, L, i)
    return float(_sif_b(X.n, V, W)[0])


def sci(
    X: DataMatrix,
    spec: EstimatorSpec,
    L: int,
    i: int,
) -> float:
    """Sample influence of observation ``i`` on the retained score space.

    (n-1)^2 * (1 - mean squared canonical correlation) between the n-row
    score sets built from the full-data and leave-one-out bases.  The data
    rows are the same on both sides; only the basis changes.  The centred
    data are scaled by one power of two, which no canonical correlation
    sees, so that the scores stay finite at the float limit.
    """
    V, W = _reference(X, spec, L, i)
    if L == X.p:
        return float(_sci(X.values, None, W)[0])
    centered = X.values - _column_mean(X.values)
    centered = np.ldexp(centered, -np.frexp(np.max(np.abs(centered)))[1])
    full, deficient = _score_basis(centered @ V)
    if deficient:
        raise RankDeficiencyError(_rank_deficient("first", (X.n, L)))
    value = float(_sci(centered, full, W)[0])
    if math.isnan(value):
        raise RankDeficiencyError(_rank_deficient("second", (X.n, L)))
    return value

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
from typing import Iterable

import numpy as np

from .dataset import (
    COVARIANCE,
    DataMatrix,
    EstimatorSpec,
    _require_loo,
    estimate,
    estimate_loo,
)
from .eigen import (
    EigenSystem,
    Subspace,
    _cosines,
    _score_basis,
    eigh,
)
from .errors import DegenerateEigenvaluesError, UnsupportedEstimatorError
from .influence import LooEngine, _scores

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


def _boundary_note(E: EigenSystem, L: int, where: str) -> str | None:
    if L < E.p and (L, L + 1) in E.gap_warnings:
        return (
            f"eigenvalues {L} and {L + 1} of the {where} estimate are nearly "
            "tied; the retained subspace is weakly determined"
        )
    return None


def _warn_boundaries(E: EigenSystem, E_loo: EigenSystem, L: int) -> None:
    for system, where in ((E, "full-data"), (E_loo, "leave-one-out")):
        note = _boundary_note(system, L, where)
        if note is not None:
            warnings.warn(note, RuntimeWarning, stacklevel=3)


class _SampleMeasures:
    """``sif_b`` and ``sci`` of reduced systems against one full-data system.

    The full-data side (retained basis, centred data and, on first use, the
    orthonormal basis of its scores) is built once, so a sweep pays only for
    the reduced side of each observation.
    """

    def __init__(self, X: DataMatrix, E: EigenSystem, L: int):
        if not 1 <= L <= E.p:
            raise ValueError(f"L={L} out of range 1..{E.p}")
        self.n = X.n
        self.L = L
        self.full = Subspace(E.vectors[:, :L].copy(), L)
        self._centered = X.values - X.values.mean(axis=0)
        self._full_scores: np.ndarray | None = None

    def sif_b(self, E_loo: EigenSystem) -> float:
        if self.L == E_loo.p:
            return 0.0
        s_loo = Subspace(E_loo.vectors[:, :self.L].copy(), self.L)
        return (self.n - 1) * (subspace_alignment(self.full, s_loo) - 1.0)

    def sci(self, E_loo: EigenSystem) -> float:
        if self.L == E_loo.p:
            return 0.0
        if self._full_scores is None:
            self._full_scores = _score_basis(self._centered @ self.full.basis, "first")
        s_loo = Subspace(E_loo.vectors[:, :self.L].copy(), self.L)
        scores = self._centered @ s_loo.basis
        r = _cosines(self._full_scores, _score_basis(scores, "second"))
        return (self.n - 1) ** 2 * float(1.0 - np.mean(r**2))


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
            stacklevel=2,
        )
        return 0.0
    E_loo = eigh(estimate_loo(X, spec, i))
    _warn_boundaries(E, E_loo, L)
    return _SampleMeasures(X, E, L).sif_b(E_loo)


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
    _require_loo(X)
    measures = _SampleMeasures(X, eigh(estimate(X, spec)), L)
    return measures.sci(eigh(estimate_loo(X, spec, i)))


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
    note = _boundary_note(E, L, "full-data")
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
    rows = sorted({int(i) for i in exact})
    if rows:
        measures = _SampleMeasures(X, E, L)
        for i, E_loo in engine.reduced(rows):
            record = records[i - 1]
            record.sif_b = measures.sif_b(E_loo)
            record.sci = measures.sci(E_loo)
            record.sif_eigen = -(X.n - 1) * (E_loo.values - E.values)
    return records

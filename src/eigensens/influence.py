"""Influence of single observations on the eigenvalues of a symmetric estimate.

:func:`eigen_influence` sweeps two flavours of influence of every observation
on every eigenvalue:

* the empirical influence: the closed form available for the covariance
  estimator, computed from full-data quantities only;
* the hybrid influence: -(n-1) times the shift of the approximated
  leave-one-out eigenvalue, which works for any symmetric estimator, closed
  form or not.

The sample influence, -(n-1) times the change in the eigenvalue when the
observation is actually removed and the reduced matrix is re-decomposed, is
the ``sif_eigen`` of :func:`eigensens.subspace_diag.influence_records`, from
its exact pass over the reduced estimates.  The approximation behind the
hybrid form is the Rayleigh quotient of the leave-one-out estimate at the
full-data eigenvectors (:func:`loo_eigenvalue_table`).  Crucially those
approximations are *not* re-sorted; they stay indexed by the full-data
ranks, which is what makes order disruptions visible to the switching
detector.

:class:`LooEngine` holds the leave-one-out state of one run: the full-data
decomposition, mean and scatter, the rank-one downdates and the approximate
table (each column computed once, when first needed).  Every leave-one-out
sweep takes an engine as its one data argument.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Iterator

import numpy as np

from .dataset import (
    COVARIANCE,
    DataMatrix,
    EstimatorSpec,
    SymmetricEstimate,
    _finish,
    _require_loo,
    _scatter,
    _unit_free,
)
from .eigen import eigh

__all__ = [
    "LooEngine",
    "loo_eigenvalue_table",
    "eigen_influence",
]

# float64 entries per stacked block (512 KiB), so that the leave-one-out sweeps,
# with two blocks in flight, hold a few MB whatever n is
CHUNK_ENTRIES = 1 << 16
# two threads for the sweeps only with one OpenBLAS thread each
_PAIRED = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def _chunk_rows(p: int, width: int | None = None) -> int:
    """Rows per stacked block of p x ``width`` matrices (p x p by default),
    so that a block stays small."""
    return max(1, CHUNK_ENTRIES // (p * (p if width is None else width)))


def _blockwise(fn: Callable, blocks: Iterable) -> Iterator:
    """``fn`` of each block, in order.  With ``_PAIRED`` the second block of
    each pair runs on a helper thread, joined before either result is yielded."""
    blocks = iter(blocks)
    for first in blocks:
        second = next(blocks, None) if _PAIRED else None
        if second is None:
            yield fn(first)
            continue
        got = []

        def run():
            try:
                got.append(fn(second))
            except Exception as exc:  # raised after the first block's result
                got.append(exc)

        helper = threading.Thread(target=run)
        helper.start()
        try:
            result = fn(first)
        finally:
            helper.join()
        yield result
        if isinstance(got[0], Exception):
            raise got[0]
        yield got[0]


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
    for k, block in enumerate(_blockwise(lambda start: np.einsum(
            "jp,ijk,kp->ip", V, engine._loo_stack(rows[start:start + step]), V),
            range(0, len(rows), step))):
        out[k * step:(k + 1) * step] = block
    return out


class LooEngine:
    """The full-data and leave-one-out state of one run, shared by all diagnostics.

    Holds the full-data decomposition, mean and scatter; produces each
    leave-one-out estimate as a rank-one downdate in O(p^2); computes each
    column of the approximate table of :func:`loo_eigenvalue_table` once,
    when first needed.  A diagnostic handed an engine never rebuilds what
    the engine already has.
    """

    def __init__(self, X: DataMatrix, spec: EstimatorSpec = EstimatorSpec()):
        _require_loo(X)
        self.X = X
        self.spec = spec
        self.mean = X.values.mean(axis=0)
        # the data in the scatter's units, shared by the downdates and the
        # exact pass's rebuilds; the mean and the scores stay in raw units
        self._values = _unit_free(X.values, spec)
        self._center = (self.mean if self._values is X.values
                        else self._values.mean(axis=0))
        self._scatter = _scatter(self._values)
        self.eigen = eigh(SymmetricEstimate(
            _finish(self._scatter, spec, X.n, X.col_labels), spec, X.n))
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
        delta = self._values[index] - self._center
        outer = delta[:, :, None] * delta[:, None, :]
        # scaled and subtracted in place, the bits of the out-of-place form
        # with one block-sized temporary fewer
        outer *= X.n / (X.n - 1.0)
        return _finish(np.subtract(self._scatter, outer, out=outer), self.spec,
                       X.n - 1, X.col_labels)

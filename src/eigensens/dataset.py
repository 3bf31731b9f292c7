"""Data ingestion and symmetric matrix estimation (covariance / correlation).

Observation indices are 1-based in every public signature, matching the way
observations are usually numbered in reports and plots.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ZeroVarianceError

__all__ = [
    "DataMatrix",
    "EstimatorSpec",
    "SymmetricEstimate",
    "load_csv",
    "estimate",
    "estimate_loo",
]

SYMMETRY_TOL = 1e-12

COVARIANCE = "covariance"
CORRELATION = "correlation"
DIVISOR_N = "n"
DIVISOR_N_MINUS_1 = "n-1"


@dataclass(frozen=True)
class EstimatorSpec:
    """Which symmetric matrix to estimate and which divisor to use.

    ``divisor`` selects between the 1/n estimator (the plain plug-in
    functional, the default) and the unbiased 1/(n-1) convention.
    """

    kind: str = COVARIANCE
    divisor: str = DIVISOR_N

    def __post_init__(self) -> None:
        if self.kind not in (COVARIANCE, CORRELATION):
            raise ValueError(f"unknown estimator kind: {self.kind!r}")
        if self.divisor not in (DIVISOR_N, DIVISOR_N_MINUS_1):
            raise ValueError(f"unknown divisor: {self.divisor!r}")

    def denominator(self, n_rows: int) -> int:
        d = n_rows if self.divisor == DIVISOR_N else n_rows - 1
        if d < 1:
            raise DataError(f"divisor {self.divisor!r} needs more than {n_rows} rows")
        return d


@dataclass
class DataMatrix:
    """An n x p observation matrix with row and column labels."""

    values: np.ndarray
    row_labels: list[str] = field(default_factory=list)
    col_labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("data matrix must be two-dimensional")
        n, p = self.values.shape
        if n < 1 or p < 1:
            raise DataError("data matrix must have at least one row and one column")
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise DataError(
                f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        if not self.row_labels:
            self.row_labels = [str(i) for i in range(1, n + 1)]
        if not self.col_labels:
            self.col_labels = [f"x{j}" for j in range(1, p + 1)]
        if len(self.row_labels) != n:
            raise DataError("row_labels length does not match row count")
        if len(self.col_labels) != p:
            raise DataError("col_labels length does not match column count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Return observation ``i`` (1-based)."""
        self._check_index(i)
        return self.values[i - 1]

    def drop_rows(self, indices) -> "DataMatrix":
        """Return a copy with all 1-based ``indices`` removed."""
        drop = set()
        for i in indices:
            self._check_index(i)
            drop.add(i - 1)
        keep = [k for k in range(self.n) if k not in drop]
        if not keep:
            raise DataError("cannot drop every observation")
        return DataMatrix(
            self.values[keep],
            [self.row_labels[k] for k in keep],
            list(self.col_labels),
        )

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise DataError(f"observation index {i} out of range 1..{self.n}")


@dataclass
class SymmetricEstimate:
    """A p x p symmetric estimate together with how it was produced."""

    matrix: np.ndarray
    spec: EstimatorSpec
    n_used: int

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DataError("estimate must be a square matrix")
        if not np.all(np.isfinite(self.matrix)):
            raise DataError("estimate contains non-finite entries")
        asym = np.max(np.abs(self.matrix - self.matrix.T)) if self.matrix.size else 0.0
        if asym > SYMMETRY_TOL:
            raise DataError(f"estimate is not symmetric (max asymmetry {asym:.3e})")

    def trace(self) -> float:
        return float(np.trace(self.matrix))


def load_csv(path, *, header: bool = True, label_col: str | None = None) -> DataMatrix:
    """Read a UTF-8 comma-separated file into a :class:`DataMatrix`.

    ``header`` controls whether the first row carries column names.  When
    ``label_col`` names one of those columns, its cells become the row labels
    and it is excluded from the numeric values; otherwise rows are labeled by
    their 1-based position.  A leading byte-order mark, which spreadsheet
    "CSV UTF-8" exports write, is skipped.  A cell holds any number that
    ``float`` reads, padded with whitespace and optionally quoted; a file that
    is not UTF-8, or holds a field past ``csv``'s size limit, is a
    :class:`DataError` naming the path.

    A well-formed file with a header row and no label column, the shape
    ``np.savetxt(..., header=..., comments="")`` writes, is parsed by one
    ``np.loadtxt`` call.  Every other shape, and whatever numpy refuses or
    reads as a non-finite value, goes through the checked per-cell loop,
    which accepts what ``float`` and ``csv`` accept beyond numpy and names
    the first bad cell in row-major order.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            X = _parse_bulk(fh, header, label_col)
            if X is None:
                fh.seek(0)
                X = _parse_checked(fh, path, header, label_col)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return X


def _parse_bulk(fh, header: bool, label_col: str | None) -> DataMatrix | None:
    """Parse the text of ``fh`` as :func:`_parse_checked` would, or return None.

    Only a file with a header row and no label column is tried; any other
    shape returns None at once.  numpy's text reader splits rows and fields
    as ``csv`` does, skips the empty lines that the loop drops, strips the
    same whitespace and parses each field with ``PyOS_string_to_double``,
    the parser behind ``float``.  Every text it accepts with finite values
    therefore gives the loop's array bit for bit.  None means the loop must
    decide: numpy refuses the text (an undecodable byte included), or it is
    one that the loop rejects or reads differently (a blank first line, a
    row wider or narrower than the header, fewer than 3 rows, a non-finite
    value); or it might hold a field past ``csv.field_size_limit()``, which
    numpy does not enforce: a line longer than that, or a quoted field that
    runs past its line.
    ``fh`` is read in place, never copied whole: a freed multi-MB copy raises
    glibc's mmap threshold and with it the process's later peak memory.
    """
    if not header or label_col is not None:
        return None
    limit = csv.field_size_limit()
    if any(len(line) > limit or line.count('"') % 2 for line in fh):
        return None
    fh.seek(0)
    names = [c.strip() for c in next(csv.reader(fh), [])]
    if not any(names):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                ndmin=2)
    except (ValueError, Warning):
        return None
    n, p = values.shape
    if n < 3 or p != len(names) or not np.isfinite(values).all():
        return None
    return DataMatrix(values, [str(r) for r in range(1, n + 1)], names)


def _parse_checked(fh, path: Path, header: bool,
                   label_col: str | None) -> DataMatrix:
    """The per-cell loop: ``csv`` rows, ``float`` per cell, checked in order.

    This is the reference that :func:`_parse_bulk` must reproduce, and the
    path for every labelled or headerless file and every file numpy refuses;
    its :class:`DataError` names the first bad cell in row-major order.
    """
    rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise DataError(f"{path} is empty")

    if header:
        names = [c.strip() for c in rows[0]]
        body = rows[1:]
    else:
        if label_col is not None:
            raise DataError("label_col requires a header row to resolve the name")
        names = [f"x{j}" for j in range(1, len(rows[0]) + 1)]
        body = rows
    if not body:
        raise DataError(f"{path} has a header but no data rows")

    width = len(names)
    label_idx: int | None = None
    if label_col is not None:
        if label_col not in names:
            raise DataError(f"label column {label_col!r} not found in header {names}")
        label_idx = names.index(label_col)

    values = []
    labels = []
    for r, row in enumerate(body, start=1):
        if len(row) != width:
            raise DataError(f"row {r} has {len(row)} fields, expected {width}")
        parsed = []
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            text = cell.strip()
            try:
                x = float(text)
            except ValueError:
                raise DataError(
                    f"cannot parse {text!r} at row {r}, column {names[c]!r}"
                ) from None
            if not math.isfinite(x):
                raise DataError(f"non-finite value at row {r}, column {names[c]!r}")
            parsed.append(x)
        values.append(parsed)
        labels.append(row[label_idx].strip() if label_idx is not None else str(r))

    if len(values) < 3:
        raise DataError(f"{path} has {len(values)} data rows; at least 3 are required")
    col_labels = [nm for k, nm in enumerate(names) if k != label_idx]
    return DataMatrix(np.array(values, dtype=float), labels, col_labels)


def _scatter(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetrised scatter of the rows of ``values`` about their mean.

    The centred rows go to ``out``, a fresh array when it is None; a caller
    that rewrites its buffer anyway passes ``values`` itself.
    """
    centered = np.subtract(values, values.mean(axis=0), out=out)
    t = centered.T @ centered
    return (t + t.T) / 2.0


def _unit_free(values: np.ndarray, spec: EstimatorSpec) -> np.ndarray:
    """``values`` in the units of the scatter of ``spec``.

    Under correlation each column is scaled by the power of two that brings
    its largest |value| into [0.5, 1), so that the scatter neither overflows
    nor underflows at extreme units; in the normal range the scaling is exact
    and cancels in the correlation bit for bit.  Under covariance, ``values``
    itself.
    """
    if spec.kind != CORRELATION:
        return values
    _, exponent = np.frexp(np.max(np.abs(values), axis=0))
    return np.ldexp(values, -exponent)


def _finish(scatter: np.ndarray, spec: EstimatorSpec, n_rows: int,
            col_labels: list[str]) -> np.ndarray:
    """Scale a scatter matrix, or a stack of them (... x p x p), to ``spec``."""
    mat = scatter / spec.denominator(n_rows)
    if spec.kind == CORRELATION:
        variances = np.diagonal(mat, axis1=-2, axis2=-1).copy()
        bad = variances <= 0.0
        if np.any(bad):
            p = variances.shape[-1]
            first = variances.reshape(-1, p)[np.argmax(bad.reshape(-1, p).any(axis=1))]
            j = int(np.argmin(first))
            raise ZeroVarianceError(
                f"column {col_labels[j]!r} has zero variance; "
                "correlation estimate is undefined"
            )
        scale = np.sqrt(variances)
        mat = mat / (scale[..., :, None] * scale[..., None, :])
        diag = np.arange(mat.shape[-1])
        mat[..., diag, diag] = 1.0
    return mat


def estimate(X: DataMatrix, spec: EstimatorSpec = EstimatorSpec()) -> SymmetricEstimate:
    """Covariance or correlation estimate of ``X`` under ``spec``."""
    if X.n < 2:
        raise DataError(f"need at least 2 observations, got {X.n}")
    return SymmetricEstimate(
        _finish(_scatter(_unit_free(X.values, spec)), spec, X.n, X.col_labels),
        spec, X.n)


def _require_loo(X: DataMatrix) -> None:
    if X.n < 3:
        raise DataError(f"leave-one-out needs at least 3 observations, got {X.n}")


def estimate_loo(X: DataMatrix, spec: EstimatorSpec, i: int) -> SymmetricEstimate:
    """Estimate over the n-1 observations that remain when ``i`` is removed.

    This is the plain re-estimation on the physically deleted matrix; it is
    the reference semantics that the downdates of
    :meth:`eigensens.influence.LooEngine.loo_block` must reproduce.
    """
    _require_loo(X)
    return estimate(X.drop_rows([i]), spec)

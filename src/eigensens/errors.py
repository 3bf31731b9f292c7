"""Exception types shared across the package."""

from __future__ import annotations


class EigenSensError(Exception):
    """Base class for all errors raised by this package."""


class DataError(EigenSensError):
    """Malformed or unusable input data (parse failures, too few rows, ...)."""


class ZeroVarianceError(DataError):
    """A column has zero variance where a positive variance is required."""


class DegenerateEigenvaluesError(EigenSensError):
    """An operation requires well-separated eigenvalues but found a tie."""


class UnsupportedEstimatorError(EigenSensError):
    """A closed-form expression exists only for a different estimator kind."""


class RankDeficiencyError(EigenSensError):
    """A score matrix is rank deficient after centering."""


class ConvergenceError(EigenSensError):
    """An iterative numerical routine failed to converge."""


class NoValidRetentionError(EigenSensError):
    """Every candidate retention boundary is disrupted by switching."""

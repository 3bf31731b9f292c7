"""Leave-one-out influence diagnostics and eigenvalue-switching detection.

The package measures how strongly single observations influence the
eigenvalues and retained eigenvector subspaces of symmetric matrix estimates
(sample covariance and correlation matrices in particular), detects when the
removal of one observation reverses the order of two consecutive
eigenvalues, and builds corrected influence reports and component-retention
recommendations around that knowledge.
"""

import os
import sys
from importlib import resources
from pathlib import Path

# one OpenBLAS thread per caller unless numpy is loaded or a count is set (see README)
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .dataset import (
    CORRELATION,
    COVARIANCE,
    DIVISOR_N,
    DIVISOR_N_MINUS_1,
    DataMatrix,
    EstimatorSpec,
    SymmetricEstimate,
    estimate,
    estimate_loo,
    load_csv,
)
from .eigen import (
    EigenSystem,
    Subspace,
    count_decompositions,
    eigh,
    eigh_stack,
    pc_scores,
    subspace,
)
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateEigenvaluesError,
    EigenSensError,
    NoValidRetentionError,
    RankDeficiencyError,
    UnsupportedEstimatorError,
    ZeroVarianceError,
)
from .influence import LooEngine, eigen_influence, loo_eigenvalue_table
from .subspace_diag import (
    InfluenceRecord,
    eif_b_series,
    influence_records,
    scia_series,
)
from .switching import (
    DEFAULT_NEAR_DELTA,
    EventTable,
    RetentionAdvice,
    SwitchEvent,
    SwitchReport,
    build_switch_report,
    hybrid_influence,
    recommend_L,
    scan_events,
    verify_exact,
)


def bundled_oils_path() -> Path:
    """Path to the bundled fatty-acid composition dataset (96 oils x 7 acids)."""
    return Path(str(resources.files("eigensens").joinpath("data", "oils.csv")))


def load_oils() -> DataMatrix:
    """Load the bundled oils dataset with the oil type as the row label."""
    return load_csv(bundled_oils_path(), label_col="oil_type")

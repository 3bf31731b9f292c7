"""Leave-one-out influence diagnostics and eigenvalue-switching detection.

The package measures how strongly single observations influence the
eigenvalues and retained eigenvector subspaces of symmetric matrix estimates
(sample covariance and correlation matrices in particular), detects when the
removal of one observation reverses the order of two consecutive
eigenvalues, and builds corrected influence reports and component-retention
recommendations around that knowledge.
"""

from importlib import resources
from pathlib import Path

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
    mean_vector,
)
from .eigen import (
    EigenSystem,
    Subspace,
    canonical_correlations,
    count_decompositions,
    decomposition_count,
    eigh,
    eigh_stack,
    pc_scores,
    projector,
    subspace,
)
from .errors import (
    CascadeUnderflowError,
    ConvergenceError,
    DataError,
    DegenerateEigenvaluesError,
    EigenSensError,
    NoValidRetentionError,
    RankDeficiencyError,
    UnsupportedEstimatorError,
    ZeroVarianceError,
)
from .influence import (
    LooEngine,
    component_score,
    eif_covariance,
    eif_eigenvalue,
    eigen_influence,
    eigenvalue_gradient_check,
    loo_eigenvalue_table,
    sif_eigenvalue,
)
from .subspace_diag import (
    InfluenceRecord,
    eif_b_series,
    influence_records,
    sci,
    scia_series,
    sif_b,
    subspace_alignment,
)
from .switching import (
    DEFAULT_NEAR_DELTA,
    HybridValue,
    RetentionAdvice,
    SwitchEvent,
    SwitchReport,
    build_switch_report,
    cascade_scan,
    detect_near_switch,
    detect_switching,
    hybrid_influence,
    recommend_L,
    verify_exact,
)


def bundled_oils_path() -> Path:
    """Path to the bundled fatty-acid composition dataset (96 oils x 7 acids)."""
    return Path(str(resources.files("eigensens").joinpath("data", "oils.csv")))


def load_oils() -> DataMatrix:
    """Load the bundled oils dataset with the oil type as the row label."""
    return load_csv(bundled_oils_path(), label_col="oil_type")

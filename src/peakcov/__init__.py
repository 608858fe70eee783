"""Peak-covariance stability of Kalman filtering under bounded
Markovian packet loss: stability conditions, gain design, certificate
construction and verification, Monte Carlo simulation, and exact
first-peak enumeration."""

__version__ = "0.1.0"

from .errors import (
    CovarianceNotPSD,
    DimensionMismatch,
    NoConvergence,
    NotErgodic,
    NotStable,
    PeakcovError,
    ProblemFormatError,
    QNotPSD,
    RNotPositiveDefinite,
    Singular,
    Unobservable,
    Uncontrollable,
)
from .linalg import spectral_norm_sq, spectral_radius
from .markov import (
    LossModel,
    PeriodicChainWarning,
    sojourn_pmf,
    stationary,
    submatrices,
)
from .problems import dumps_report, load_matrix_file, load_problem
from .riccati import (
    dare_fixed_point,
    fixed_gain_update,
    iterate,
    measurement_update,
    optimal_gain,
    time_update,
)
from .sim import (
    FirstPeakEnumeration,
    McEstimate,
    TrendStat,
    enumerate_first_peak,
    growth_trend,
    mc_estimate,
)
from .stability import (
    STABILITY_TOL,
    Certificate,
    ComparisonReport,
    StabilityMatrix,
    build_certificate,
    closed_form_gains,
    compare_conditions,
    gain_condition_matrix,
    is_stable,
    min_norm_gain,
    norm_condition_matrix,
    search_gains,
    similarity_transform,
    strict_margin_floor,
    verify_certificate,
)
from .system import (
    ModelAssumptionWarning,
    StackedModel,
    SystemModel,
    ValidationReport,
    observability_index,
    stacked,
    validate,
)

__all__ = [
    "__version__",
    # errors
    "PeakcovError", "NoConvergence", "Singular", "DimensionMismatch",
    "Unobservable", "Uncontrollable", "RNotPositiveDefinite", "QNotPSD",
    "CovarianceNotPSD", "NotErgodic", "NotStable", "ProblemFormatError",
    # linear algebra
    "spectral_radius", "spectral_norm_sq",
    # system
    "SystemModel", "StackedModel", "ValidationReport",
    "ModelAssumptionWarning", "validate", "observability_index", "stacked",
    # loss chain
    "LossModel", "PeriodicChainWarning", "stationary", "submatrices",
    "sojourn_pmf",
    # covariance updates
    "time_update", "measurement_update", "optimal_gain", "iterate",
    "fixed_gain_update", "dare_fixed_point",
    # stability
    "STABILITY_TOL", "StabilityMatrix", "Certificate", "ComparisonReport",
    "is_stable", "min_norm_gain", "closed_form_gains",
    "gain_condition_matrix", "norm_condition_matrix", "build_certificate",
    "verify_certificate", "strict_margin_floor", "search_gains",
    "similarity_transform", "compare_conditions",
    # simulation
    "McEstimate", "FirstPeakEnumeration", "TrendStat", "mc_estimate",
    "enumerate_first_peak", "growth_trend",
    # problem files
    "load_problem", "load_matrix_file", "dumps_report",
]

"""Total least squares: solver, condition numbers, bounds, and validation."""

from .bounds import (
    BoundPair,
    BoundsReport,
    bhm_approx,
    bounds_report,
    lower_kappa2,
    sharp_sandwich,
    simple_sandwich,
    sv_bounds_kappa1,
    upper_kappa2,
)
from .core import (
    GapDiagnostics,
    SvdBundle,
    TlsSolution,
    residual_diagnostics,
    solve_tls,
    svd_bundle,
)
from .exact import (
    ConditionEstimate,
    ExactFormulaWork,
    baboulin_condition,
    build_k_matrix,
    build_spectral_work,
    cholesky_condition,
    kron_condition,
    svd_condition,
)
from .generators import KammNagyConfig, generate_ab_alpha, kamm_nagy_problem
from .perturb import ValidationSummary, monte_carlo_validate, worst_direction
from .problem import (
    ReportDocument,
    TlsProblem,
    load_problem,
    load_report,
    save_problem,
    save_report,
)

__all__ = [
    "BoundPair", "BoundsReport", "bhm_approx", "bounds_report", "lower_kappa2", "sharp_sandwich",
    "simple_sandwich", "sv_bounds_kappa1", "upper_kappa2", "GapDiagnostics", "SvdBundle",
    "TlsSolution", "residual_diagnostics", "solve_tls", "svd_bundle", "ConditionEstimate",
    "ExactFormulaWork", "baboulin_condition", "build_k_matrix", "build_spectral_work",
    "cholesky_condition", "kron_condition", "svd_condition", "KammNagyConfig", "generate_ab_alpha",
    "kamm_nagy_problem", "ValidationSummary", "monte_carlo_validate", "worst_direction",
    "ReportDocument", "TlsProblem", "load_problem", "load_report", "save_problem", "save_report",
]

__version__ = "0.1.0"

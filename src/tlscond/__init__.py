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
    check_uniqueness,
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
from .generators import (
    KammNagyConfig,
    gaussian_kernel_column,
    generate_ab_alpha,
    generate_v,
    haar_orthogonal,
    kamm_nagy_problem,
)
from .perturb import (
    PerturbationDirection,
    ValidationSummary,
    convergence_study,
    first_order_prediction,
    monte_carlo_validate,
    perturbation_ratio,
    random_direction,
    remainder_slope,
    worst_direction,
)
from .problem import (
    ReportDocument,
    TlsProblem,
    load_problem,
    load_report,
    save_problem,
    save_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

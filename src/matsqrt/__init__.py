"""SPD matrix square roots by gradient descent, with runtime certificates."""

from .linalg import (
    DimensionMismatchError,
    EigenDecomposition,
    LinalgError,
    NotPositiveDefiniteError,
    PowerIterationError,
    SingularMatrixError,
    SpdMatrix,
    estimate_opnorm_bound,
    frobenius_norm,
    lambda_min,
    sigma_min,
    solve,
    spectral_norm,
    sym_eig,
    symmetrize,
)
from .gd import (
    DivergenceError,
    ErrorModel,
    GdConfig,
    GdError,
    IterationTrace,
    LostPositiveDefinitenessError,
    TraceRecord,
    gd_step,
    gradient,
    initial_iterate,
    objective,
    residual_fro,
    run,
    run_perturbed,
    step_size_policy,
)
from .analysis import (
    CertificateReport,
    RateParams,
    corridor_check,
    first_error_attenuation_bound,
    gradient_dominance_certificate,
    rate_params,
    saddle_location_check,
    smoothness_certificate,
    stability_bound,
    stability_bound_series,
    stability_tolerance,
    theoretical_residual_bound,
)
from .baselines import (
    NewtonConfig,
    NewtonConvergenceError,
    evd_sqrt,
    newton_sqrt,
    scalar_newton,
)
from .experiments import (
    LowerBoundError,
    LowerBoundInstance,
    LowerBoundReport,
    SpdInstanceSpec,
    convergence_benchmark,
    landscape_grid,
    lower_bound_instance,
    random_spd,
    robustness_sweep,
    run_lower_bound,
)

__version__ = "0.1.0"

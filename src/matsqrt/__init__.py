"""SPD matrix square roots by gradient descent, with runtime certificates.

The public names are loaded on first access (PEP 562): ``import matsqrt``
imports no submodule, and a name imports only the module that defines it,
so a command of :mod:`matsqrt.cli` loads only the modules it runs.
"""

import importlib

# Each public name under the module that defines it.
_EXPORTS = {
    "linalg": (
        "DimensionMismatchError",
        "EigenDecomposition",
        "LinalgError",
        "NotPositiveDefiniteError",
        "SingularMatrixError",
        "SpdMatrix",
        "estimate_opnorm_bound",
        "frobenius_norm",
        "solve",
        "spectral_norm",
        "sym_eig",
        "symmetrize",
    ),
    "gd": (
        "DivergenceError",
        "ErrorModel",
        "GdConfig",
        "GdError",
        "IterationTrace",
        "LostPositiveDefinitenessError",
        "LowerBoundError",
        "RateParams",
        "TraceRecord",
        "gd_step",
        "gradient",
        "initial_iterate",
        "objective",
        "rate_params",
        "residual_fro",
        "run",
        "run_perturbed",
        "stability_tolerance",
        "step_size_policy",
    ),
    "analysis": (
        "CertificateReport",
        "corridor_check",
        "first_error_attenuation_bound",
        "gradient_dominance_certificate",
        "saddle_location_check",
        "smoothness_certificate",
        "stability_bound",
        "stability_bound_series",
        "theoretical_residual_bound",
    ),
    "baselines": (
        "NewtonConfig",
        "NewtonConvergenceError",
        "evd_sqrt",
        "newton_sqrt",
        "scalar_newton",
    ),
    "experiments": (
        "LowerBoundInstance",
        "LowerBoundReport",
        "SpdInstanceSpec",
        "convergence_benchmark",
        "landscape_grid",
        "lower_bound_instance",
        "random_spd",
        "robustness_sweep",
        "run_lower_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package, so that a name rebound in its module (by a
    # test's monkeypatch, say) reads the same here, and none outlives its undoing.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})

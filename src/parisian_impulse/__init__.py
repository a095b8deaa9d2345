"""Parisian refracted scale functions and impulse dividend optimization
for spectrally negative Levy surplus processes.

Exports from ``errors`` and ``models`` load with the package.  Those from
``optimizer``, ``parisian``, ``quadrature``, ``scale`` and ``simulate`` are
lazy (PEP 562): the first access imports their module, so unused modules are
never loaded."""
from __future__ import annotations

import importlib

from .errors import (ConfigError, DomainError, InvalidRefractionError, NumericalError,
                     OverflowRangeError, QuadratureFailureError, SeriesConvergenceError,
                     SolverFailureError, UndefinedDerivativeError)
from .models import (BrownianMotion, CoefficientSet, CramerLundberg, ExponentialPair,
                     ImpulsePolicy, Model, ProblemSpec, compute_coefficients, drift_adjusted,
                     laplace_exponent, right_inverse)

_LAZY_MODULE = {
    name: module
    for module, names in {
        "optimizer": ("OptimalPolicyResult", "SufficiencyReport", "TransferReport",
                      "check_sufficiency_pair", "check_transfer_inequality",
                      "find_optimal_policy", "payout_ratio", "value_function"),
        "parisian": ("ParisianScale", "parisian_scale"),
        "quadrature": ("CompoundPoissonWindow", "generator_residual"),
        "scale": ("ScaleFunction", "refracted_pair", "refracted_scale"),
        "simulate": ("MonteCarloEstimate", "SimulationConfig", "estimate_exit_functional",
                     "estimate_policy_npv"),
    }.items()
    for name in names
}

__version__ = "0.1.0"
__all__ = [
    "ConfigError", "DomainError", "InvalidRefractionError", "NumericalError",
    "OverflowRangeError", "QuadratureFailureError", "SeriesConvergenceError",
    "SolverFailureError", "UndefinedDerivativeError",
    "BrownianMotion", "CoefficientSet", "CramerLundberg", "ExponentialPair", "ImpulsePolicy",
    "Model", "ProblemSpec", "compute_coefficients", "drift_adjusted", "laplace_exponent",
    "right_inverse",
    *_LAZY_MODULE,
    "__version__",
]


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(__all__)

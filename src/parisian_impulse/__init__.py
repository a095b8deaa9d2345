"""Parisian refracted scale functions and impulse dividend optimization
for spectrally negative Levy surplus processes."""
from __future__ import annotations

from .errors import (
    ConfigError,
    DomainError,
    InvalidRefractionError,
    NumericalError,
    OverflowRangeError,
    QuadratureFailureError,
    SeriesConvergenceError,
    SolverFailureError,
    UndefinedDerivativeError,
)
from .models import (
    BrownianMotion,
    CoefficientSet,
    CramerLundberg,
    ExponentialPair,
    Model,
    ProblemSpec,
    compute_coefficients,
    drift_adjusted,
    laplace_exponent,
    right_inverse,
)
from .optimizer import (
    ImpulsePolicy,
    OptimalPolicyResult,
    SufficiencyReport,
    TransferReport,
    check_sufficiency_pair,
    check_transfer_inequality,
    find_optimal_policy,
    generator_residual,
    payout_ratio,
    value_function,
)
from .parisian import (
    CompoundPoissonWindow,
    ParisianScale,
    parisian_scale,
)
from .scale import (
    ScaleFunction,
    refracted_pair,
    refracted_scale,
)
from .simulate import (
    MonteCarloEstimate,
    SimulationConfig,
    estimate_exit_functional,
    estimate_policy_npv,
)

__version__ = "0.1.0"

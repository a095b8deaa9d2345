"""Error types shared across the package.

Two families: configuration/usage problems (``ConfigError`` and friends,
CLI exit code 2) and numerical failures (``NumericalError`` subclasses,
CLI exit code 3).
"""
from __future__ import annotations


class ConfigError(ValueError):
    """Malformed or semantically invalid configuration input."""


class InvalidRefractionError(ConfigError):
    """Refraction rate incompatible with the model (needs p - delta > 0)."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class UndefinedDerivativeError(DomainError):
    """Derivative requested at a point where it does not exist."""


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures."""


class OverflowRangeError(NumericalError):
    """Exponential argument too large for finite double evaluation."""


class SeriesConvergenceError(NumericalError):
    """A series did not converge within the term budget."""


class QuadratureFailureError(NumericalError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SolverFailureError(NumericalError):
    """Root finding or optimization failed to converge."""

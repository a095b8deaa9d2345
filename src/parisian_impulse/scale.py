"""Scale functions of the surplus process and the refracted scale function.

For both supported models the q-scale function restricted to ``x >= 0`` is a
difference of two exponentials, and so is the refracted scale function
``w(x; -z)`` of the level-0 refracted process for a start pushed ``z`` below
the refraction level.  :class:`ExponentialPair` is that shared shape; the
refracted coefficients come out of a partial-fraction identity and avoid the
catastrophic cancellation the naive two-product evaluation suffers from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, OverflowRangeError
from .models import (
    CoefficientSet,
    ProblemSpec,
    ScaleCoefficients,
    compute_coefficients,
)

# exp() overflows just above 709; refuse a margin earlier
EXP_ARG_MAX = 700.0

ArrayLike = Union[float, np.ndarray]


def _check_exp_range(rate: float, x: ArrayLike) -> None:
    hi = float(np.max(rate * np.asarray(x, dtype=float), initial=-math.inf))
    if hi > EXP_ARG_MAX:
        raise OverflowRangeError(
            f"exponent {hi:.3g} exceeds the finite double range (limit {EXP_ARG_MAX})"
        )


def _match(out: ArrayLike) -> ArrayLike:
    """A float for a scalar result, the array otherwise."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


@dataclass(frozen=True)
class ExponentialPair:
    """The function ``f(x) = a * exp(kp * x) - b * exp(km * x)`` with kp > km.

    All scale-type functions in this package restrict to this shape on
    ``x >= 0``.  Evaluations accept scalars or numpy arrays.  ``a`` and ``b``
    may be arrays of one shape (``refracted_pair`` on an array of depths);
    a scalar ``x`` then gives an array.
    """

    a: float
    b: float
    kp: float
    km: float

    def value(self, x: ArrayLike) -> ArrayLike:
        _check_exp_range(self.kp, x)
        xx = np.asarray(x, dtype=float)
        return _match(self.a * np.exp(self.kp * xx) - self.b * np.exp(self.km * xx))

    def derivative(self, x: ArrayLike) -> ArrayLike:
        _check_exp_range(self.kp, x)
        xx = np.asarray(x, dtype=float)
        return _match(
            self.a * self.kp * np.exp(self.kp * xx)
            - self.b * self.km * np.exp(self.km * xx),
        )

    def integral_from_zero(self, x: ArrayLike) -> ArrayLike:
        """``int_0^x f(y) dy`` (kp, km are nonzero for every model here)."""
        _check_exp_range(self.kp, x)
        xx = np.asarray(x, dtype=float)
        out = self.a / self.kp * (np.exp(self.kp * xx) - 1.0) - self.b / self.km * (
            np.exp(self.km * xx) - 1.0
        )
        return _match(out)

    def derivative_argmin(self) -> float:
        """Location of the minimum of f' on [0, inf).

        f' is a sum of an increasing and a decreasing exponential when
        ``b > 0`` (unique interior minimum, clamped at 0); otherwise f' is
        increasing and the minimum sits at 0.
        """
        if self.b <= 0.0 or self.a <= 0.0:
            return 0.0
        ratio = self.b * self.km**2 / (self.a * self.kp**2)
        if ratio <= 1.0:
            return 0.0
        return math.log(ratio) / (self.kp - self.km)


def _pair(c: ScaleCoefficients) -> ExponentialPair:
    return ExponentialPair(c.weight_plus, c.weight_minus, c.rate_plus, c.rate_minus)


class ScaleFunction:
    """q-scale function of a spectrally negative Levy process.

    ``value`` is the scale function itself (0 on ``x < 0``), ``derivative``
    its right derivative, and ``second_scale`` the companion
    ``1 + q * int_0^x value(y) dy``.
    """

    def __init__(self, coefficients: ScaleCoefficients, q: float):
        self.coefficients = coefficients
        self.q = q
        self.pair = _pair(coefficients)

    @classmethod
    def for_surplus(cls, spec: ProblemSpec) -> "ScaleFunction":
        return cls(compute_coefficients(spec).surplus, spec.q)

    def value(self, x: ArrayLike) -> ArrayLike:
        xx = np.asarray(x, dtype=float)
        out = np.where(xx < 0.0, 0.0, self.pair.value(np.maximum(xx, 0.0)))
        return _match(out)

    def derivative(self, x: ArrayLike) -> ArrayLike:
        """Right derivative; 0 on ``x < 0``, the 0+ limit at 0."""
        xx = np.asarray(x, dtype=float)
        out = np.where(xx < 0.0, 0.0, self.pair.derivative(np.maximum(xx, 0.0)))
        return _match(out)

    def second_scale(self, x: ArrayLike) -> ArrayLike:
        """``1 + q * int_0^x value(y) dy``; identically 1 on ``x <= 0``."""
        xx = np.asarray(x, dtype=float)
        out = np.where(
            xx < 0.0, 1.0, 1.0 + self.q * self.pair.integral_from_zero(np.maximum(xx, 0.0))
        )
        return _match(out)


def refracted_pair(cs: CoefficientSet, depth: ArrayLike) -> ExponentialPair:
    """Two-exponential form of ``w(x; -depth)`` on ``x >= 0``.

    Partial fractions against the refracted-process exponent kill the
    surplus-rate exponentials in the convolution exactly, leaving only the
    refracted rates.  The resulting coefficients are sums of same-sign terms
    for the growing part, so the evaluation stays cancellation-free.  An
    array of depths gives arrays ``a`` and ``b``, one entry per depth.
    """
    if isinstance(depth, np.ndarray):
        admissible, exp = bool((depth >= 0.0).all()), np.exp
    else:
        admissible, exp = depth >= 0.0, math.exp
    if not admissible:  # NaN included
        raise DomainError(f"depth must be nonnegative, got {depth}")
    X, Y = cs.surplus, cs.refracted
    delta = cs.spec.delta
    _check_exp_range(X.rate_plus, depth)
    e_p = exp(X.rate_plus * depth)
    e_m = exp(X.rate_minus * depth)
    tp = X.weight_plus * X.rate_plus * e_p
    tm = X.weight_minus * X.rate_minus * e_m
    a = -delta * Y.weight_plus * (
        tp / (X.rate_plus - Y.rate_plus) - tm / (X.rate_minus - Y.rate_plus)
    )
    b = -delta * Y.weight_minus * (
        tp / (X.rate_plus - Y.rate_minus) - tm / (X.rate_minus - Y.rate_minus)
    )
    return ExponentialPair(a, b, Y.rate_plus, Y.rate_minus)


def refracted_scale(cs: CoefficientSet, x: ArrayLike, depth: ArrayLike) -> ArrayLike:
    """``w(x; -depth)``: scale function of the refracted exit problem when the
    start sits ``depth`` below the refraction level 0.

    Equals the plain surplus scale function at ``x + depth`` for ``x < 0``
    and switches to the refracted two-exponential form above 0 (continuously).
    Either argument may be an array: a scalar ``x`` with an array of depths
    (the window integral) or an array of ``x`` at one depth.
    """
    if not isinstance(x, np.ndarray):
        if x < 0.0:
            if not np.all(np.asarray(depth) >= 0.0):  # NaN included, as in refracted_pair
                raise DomainError(f"depth must be nonnegative, got {depth}")
            return ScaleFunction(cs.surplus, cs.spec.q).value(x + depth)
        return refracted_pair(cs, depth).value(x)
    xx = np.asarray(x, dtype=float)
    below = ScaleFunction(cs.surplus, cs.spec.q).value(np.minimum(xx, 0.0) + depth)
    above = refracted_pair(cs, depth).value(np.maximum(xx, 0.0))
    return np.where(xx < 0.0, below, above)

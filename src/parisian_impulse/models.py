"""Model and problem definitions for spectrally negative Levy surplus processes.

Two driving models are supported:

* linear Brownian motion, ``X_t = mu*t + sigma*B_t``;
* the Cramer-Lundberg process with exponential claims,
  ``X_t = p*t - sum_{i<=N_t} U_i`` where ``N`` is a Poisson process of rate
  ``lam`` and the ``U_i`` are exponential with rate ``mu_claim``.

A :class:`ProblemSpec` bundles a model with the refraction rate ``delta``
(dividend stream drained while the surplus is positive), the discount rate
``q``, the Parisian delay ``r``, and the fixed transaction cost ``beta``.
An :class:`ImpulsePolicy` is the pair of levels that the optimizer solves
for and the Monte Carlo estimators run.

For either model the scale function restricted to ``x >= 0`` is a difference
of two exponentials, an :class:`ExponentialPair`; so are the refracted scale
function and the Parisian ``V`` built from it.  :func:`compute_coefficients`
produces the pairs of the original surplus process and of the refracted
(drift-reduced) one; everything downstream works off these pairs.

A pair is read on ``x >= 0`` only, and it alone decides what fits the double
range: past its ``edge``, the last x with ``kp*x <= EXP_ARG_MAX`` and every
term of f, f' and f'' (``a*kp**n*e^{kp x}``, ``b*km**n*e^{km x}``) at most
``TERM_MAX = DBL_MAX/4``, a read raises ``OverflowRangeError`` before NumPy
overflows; up to it, values, slopes, curvatures and gains f(u) - f(v) are finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import (ConfigError, DomainError, InvalidRefractionError, NumericalError,
                     OverflowRangeError)

SPEC_CACHE_SIZE = 128  # distinct specs kept by each per-spec cache
# exp() overflows just above 709; refuse a margin earlier
EXP_ARG_MAX = 700.0
# the largest term a pair read may form: two of them, or two values, differ finitely
TERM_MAX = float(np.finfo(float).max) / 4
_LOG_TERM_MAX = math.log(TERM_MAX)
_FREE = TERM_MAX * math.exp(-EXP_ARG_MAX - 1.0)  # a term this small stays below TERM_MAX
_SQUARE_MAX = 1e154  # x**2 is a double below it (sqrt(DBL_MAX) = 1.34e154); f'' has kp**2

ArrayLike = Union[float, np.ndarray]


def _check_fields(obj, finite: tuple[str, ...] = (), positive: tuple[str, ...] = ()) -> None:
    """ConfigError unless every named field is finite and each ``positive`` one > 0."""
    for name in finite + positive:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if name in positive and not value > 0:
            raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, slots=True)
class BrownianMotion:
    """Linear Brownian motion with drift ``mu`` and volatility ``sigma > 0``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _check_fields(self, finite=("mu",), positive=("sigma",))


@dataclass(frozen=True, slots=True)
class CramerLundberg:
    """Compound Poisson surplus with premium rate ``p`` and exponential claims.

    Claims arrive at rate ``lam`` and have mean ``1 / mu_claim``.
    """

    p: float
    lam: float
    mu_claim: float

    def __post_init__(self) -> None:
        _check_fields(self, positive=("p", "lam", "mu_claim"))


Model = Union[BrownianMotion, CramerLundberg]


@dataclass(frozen=True, slots=True)
class ProblemSpec:
    """A model plus the control problem parameters.

    Parameters
    ----------
    model:
        The driving surplus process.
    delta:
        Refraction rate: the linear dividend rate paid while the controlled
        surplus is above 0.  Must be positive; for Cramer-Lundberg it must
        also satisfy ``p - delta > 0`` so the refracted process still drifts
        upward between claims.
    q:
        Discount rate, positive.
    r:
        Parisian delay: ruin is declared once an excursion below 0 lasts at
        least ``r``.  Must be positive.
    beta:
        Fixed transaction cost per dividend lump, positive.
    """

    model: Model
    delta: float
    q: float
    r: float
    beta: float

    def __post_init__(self) -> None:
        _check_fields(self, positive=("delta", "q", "r", "beta"))
        if isinstance(self.model, CramerLundberg) and not self.model.p - self.delta > 0:
            raise InvalidRefractionError(
                f"need p - delta > 0, got p={self.model.p} delta={self.delta}"
            )


@dataclass(frozen=True)
class ImpulsePolicy:
    """Pay down from ``upper`` to ``lower`` whenever the surplus reaches upper."""

    lower: float
    upper: float

    def __post_init__(self) -> None:  # doubles: an np.float32 level stays float32 on NumPy 2
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))

    def validate(self, beta: float) -> None:
        """Admissibility for a given transaction cost: lower >= 0 and a net
        payout ``upper - lower - beta`` above 0, also in float arithmetic."""
        if not self.lower >= 0.0:
            raise DomainError(f"lower boundary must be nonnegative, got {self.lower}")
        if not (self.upper > self.lower + beta and self.upper - self.lower - beta > 0.0):
            raise DomainError(
                f"need upper > lower + beta, got upper={self.upper} "
                f"lower={self.lower} beta={beta}"
            )


def laplace_exponent(model: Model, theta: float) -> float:
    """Laplace exponent ``psi(theta) = log E[exp(theta * X_1)]``.

    Defined for ``theta >= 0`` (and, for Cramer-Lundberg, any
    ``theta > -mu_claim``).
    """
    if isinstance(model, BrownianMotion):
        return model.mu * theta + 0.5 * model.sigma**2 * theta**2
    if theta == -model.mu_claim:
        raise DomainError("laplace exponent has a pole at theta = -mu_claim")
    return model.p * theta - model.lam * theta / (model.mu_claim + theta)


def drift_adjusted(spec: ProblemSpec) -> Model:
    """The refracted process: same model with drift reduced by ``delta``."""
    m = spec.model
    if isinstance(m, BrownianMotion):
        return BrownianMotion(m.mu - spec.delta, m.sigma)
    # ProblemSpec already guarantees p - delta > 0
    return CramerLundberg(m.p - spec.delta, m.lam, m.mu_claim)


def right_inverse(model: Model, q: float) -> float:
    """Largest root of ``psi(theta) = q`` (the right inverse of psi at q)."""
    if q < 0:
        raise DomainError(f"right inverse defined for q >= 0, got {q}")
    return _roots(model, q)[0]


def _roots(model: Model, q: float) -> tuple[float, float]:
    """The roots ``(plus >= 0 >= minus)`` of ``psi(theta) = q``.

    ``psi(theta) = q`` is the quadratic ``a t^2 + b t + c = 0`` with ``a > 0``
    and ``c <= 0``.  The root of larger magnitude comes from the quadratic
    formula without cancellation, and the other from the product of the
    roots, ``c / a``.  The textbook ``(-b + disc) / 2a`` for the small root
    cancels when ``b^2 >> |a c|``, that is when the drift dominates the
    discount rate.
    """
    if isinstance(model, BrownianMotion):  # sigma**2 raises OverflowError past 1.34e154
        a, b, c = (0.5 * model.sigma**2 if model.sigma < _SQUARE_MAX else math.inf), model.mu, -q
        if not 0.0 < a < math.inf:  # or underflows to 0 below 1.5e-162
            raise NumericalError(f"sigma**2 leaves the double range at sigma = {model.sigma}")
    else:
        p, lam, mu = model.p, model.lam, model.mu_claim
        a, b, c = p, p * mu - lam - q, -q * mu
    t = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    if t == 0.0:  # q = 0 with zero drift: a double root at zero
        return 0.0, 0.0
    r1, r2 = t / a, c / t
    return max(r1, r2), min(r1, r2)


def _match(out: ArrayLike) -> ArrayLike:
    """A float for a scalar result, the array otherwise."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _edge(a: ArrayLike, b: ArrayLike, kp: float, end: float, grow: float, fall: float):
    """The pair's one overflow decision: the last x up to ``end`` with ``|a|*grow*e^{kp x}``
    at most TERM_MAX; -inf if ``|b|*fall``, the falling term at 0, is not; NaN for NaN.
    ``grow``, ``fall``: the largest factors on a term's coefficient (at least 1 is used)."""
    grow, fall = grow if grow > 1.0 else 1.0, fall if fall > 1.0 else 1.0  # NaN too: 1
    size, fits = abs(a), abs(b) <= TERM_MAX / fall  # no product overflows
    if fits is True and type(size) is float and size * grow <= _FREE:
        return end  # float coefficients whose margin cannot bind: the common case
    cut = (_LOG_TERM_MAX - np.log(grow) - np.log(np.maximum(size, 5e-324))) / kp
    return _match(np.where(fits, np.minimum(end, cut), -math.inf))  # NaN stays NaN


@dataclass(slots=True, unsafe_hash=True)
class ExponentialPair:
    """The function ``f(x) = a * exp(kp * x) - b * exp(km * x)`` with kp > 0 > km.

    All scale-type functions in this package restrict to this shape on
    ``x >= 0``, the only domain it is read on (below 0 reads are not checked).
    Evaluations accept scalars or numpy arrays; :meth:`at` is the path for one
    Python float x (every scalar V read on ``x >= 0``).  ``a`` and ``b`` may be
    arrays of one shape (``refracted_pair`` on an array of depths), one ``edge``
    per entry; a scalar ``x`` then gives an array.  NaN raises ``DomainError``.
    ``end`` depends on kp alone: ``_edge`` reads other weights at these rates with it.
    The fields are set once, by ``__init__``.  The class is not frozen: a frozen
    class pays an ``object.__setattr__`` per field, and a pair has ten.
    """

    a: float
    b: float
    kp: float
    km: float
    end: float = field(init=False, repr=False, compare=False)  # last x with kp*x <= 700
    edge: ArrayLike = field(init=False, repr=False, compare=False)
    akp: ArrayLike = field(init=False, repr=False, compare=False)  # a*kp, b*km, kp**2 and
    bkm: ArrayLike = field(init=False, repr=False, compare=False)  # km**2: the products that
    kp2: float = field(init=False, repr=False, compare=False)  # at and derivative read,
    km2: float = field(init=False, repr=False, compare=False)  # formed once

    def __init__(self, a: ArrayLike, b: ArrayLike, kp: float, km: float) -> None:
        if not (0.0 < kp < _SQUARE_MAX and abs(km) < _SQUARE_MAX):  # NaN too: else the
            raise DomainError(  # search below may not end, or kp**2 or km**2 overflows
                f"an exponential pair needs rates 0 < kp, |km| < 1e154, got {kp}, {km}")
        end = EXP_ARG_MAX / kp  # stepped to the last float x with kp*x <= EXP_ARG_MAX
        while kp * end > EXP_ARG_MAX:
            end = math.nextafter(end, -math.inf)
        while kp * math.nextafter(end, math.inf) <= EXP_ARG_MAX:
            end = math.nextafter(end, math.inf)
        self.a, self.b, self.kp, self.km, self.end = a, b, kp, km, end
        self.akp, self.bkm, self.kp2, self.km2 = a * kp, b * km, kp**2, km**2
        self.edge = _edge(a, b, kp, end, self.kp2, self.km2)

    def _read(self, x: ArrayLike, edge: ArrayLike) -> np.ndarray:
        xx = np.asarray(x, dtype=float)
        if np.logical_and.reduce(xx <= edge, axis=None):  # NaN fails
            return xx
        hi = float(np.maximum.reduce(self.kp * xx, axis=None, initial=-math.inf))
        if math.isnan(hi):
            raise DomainError("an exponential pair is undefined at NaN")
        if not hi <= EXP_ARG_MAX:
            raise OverflowRangeError(
                f"exponent {hi:.3g} exceeds the finite double range (limit {EXP_ARG_MAX})")
        x, e = (v[~(xx <= edge)][0] for v in np.broadcast_arrays(xx, edge))
        raise OverflowRangeError(f"a term of the pair leaves the double range (limit "
                                 f"{TERM_MAX:.3g}) at x = {x:.6g}, past its edge {e:.6g}")

    def value(self, x: ArrayLike) -> ArrayLike:
        xx = self._read(x, self.edge)
        return _match(self.a * np.exp(self.kp * xx) - self.b * np.exp(self.km * xx))

    def derivative(self, x: ArrayLike) -> ArrayLike:
        xx = self._read(x, self.edge)
        return _match(self.akp * np.exp(self.kp * xx) - self.bkm * np.exp(self.km * xx))

    def at(self, x: float) -> tuple[float, float, float]:
        """``(f, f', f'')`` at one float x, as floats.  ``np.exp`` gives a float
        the bits it gives in an array (``math.exp`` may not), so f and f' equal
        :meth:`value` and :meth:`derivative` bit for bit; raises as they do."""
        if not x <= self.edge:  # NaN too
            self._read(x, self.edge)  # raises the array route's error
        ep, em = float(np.exp(self.kp * x)), float(np.exp(self.km * x))
        fp, fm = self.a * ep, self.b * em  # value's and derivative's products, in their order
        return fp - fm, self.akp * ep - self.bkm * em, self.kp2 * fp - self.km2 * fm

    def integral_from_zero(self, x: ArrayLike) -> ArrayLike:
        """``int_0^x f(y) dy``, read up to its own edge: its terms carry 1/kp and 1/km."""
        xx = self._read(x, _edge(self.a, self.b, self.kp, self.end, 1.0 / self.kp, -1.0 / self.km))
        return _match(self.a / self.kp * (np.exp(self.kp * xx) - 1.0)
                      - self.b / self.km * (np.exp(self.km * xx) - 1.0))

    def derivative_argmin(self) -> float:
        """Location of the minimum of f' on [0, inf).

        f' is a sum of an increasing and a decreasing exponential when
        ``b > 0`` (unique interior minimum, clamped at 0); otherwise f' is
        increasing and the minimum sits at 0.
        """
        if self.b <= 0.0 or self.a <= 0.0:
            return 0.0
        return max(self.derivative_zero(2), 0.0)

    def derivative_zero(self, n: int) -> float:
        """Where the n-th derivative ``a*kp^n*e^{kp x} - b*km^n*e^{km x}``
        vanishes: ``log(b*km^n / (a*kp^n)) / (kp - km)`` where ``a > 0`` and
        that ratio is positive, ``-inf`` otherwise."""
        if not self.a > 0.0:
            return -math.inf
        if self.a * self.kp**n == 0.0:  # a tiny q: the ratio below leaves the double range
            raise OverflowRangeError(f"a * kp**{n} underflows to 0 at kp = {self.kp:.3g}")
        ratio = self.b * self.km**n / (self.a * self.kp**n)
        return math.log(ratio) / (self.kp - self.km) if ratio > 0.0 else -math.inf


def _coefficients(model: Model, q: float) -> ExponentialPair:
    """The q-scale function on ``x >= 0``: ``kp > 0 > km`` are the roots of
    ``psi = q`` and ``a, b > 0``, so ``W(0+) = a - b`` (zero for Brownian
    motion, ``1/p`` for Cramer-Lundberg).  Where doubles cannot hold that shape
    (a root or weight overflows, underflows or cancels) it raises NumericalError."""
    plus, minus = _roots(model, q)
    if not (0.0 < plus < _SQUARE_MAX and -_SQUARE_MAX < minus < 0.0):  # NaN too
        raise NumericalError(
            f"psi = q has no roots kp > 0 > km, squares in doubles: {plus}, {minus}")
    if isinstance(model, BrownianMotion):
        a = b = 2.0 / (model.sigma**2 * (plus - minus))
    else:  # weights (mu + root) / (plus - minus) / p; their difference is 1/p
        p, mu, span = model.p, model.mu_claim, plus - minus
        a, b = (mu + plus) / (span * p), (mu + minus) / (span * p)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise NumericalError(f"the scale weights are not finite and positive: {a}, {b}")
    return ExponentialPair(a, b, plus, minus)


@dataclass(frozen=True)
class CoefficientSet:
    """q-scale functions on ``x >= 0`` of the surplus process and its
    refracted twin."""

    spec: ProblemSpec
    surplus: ExponentialPair
    refracted: ExponentialPair


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def compute_coefficients(spec: ProblemSpec) -> CoefficientSet:
    """Coefficients of the two q-scale functions attached to ``spec``.

    Cached: specs are frozen, so a recently seen problem is not solved again.
    """
    return CoefficientSet(
        spec=spec,
        surplus=_coefficients(spec.model, spec.q),
        refracted=_coefficients(drift_adjusted(spec), spec.q),
    )

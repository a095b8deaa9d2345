"""The Parisian refracted scale function V and its ingredients.

``V(x)`` is the expected discount factor collected on reaching an upper level
before Parisian ruin, normalized so that the two-sided exit identity reads
``E_x[e^{-q T_a} ; T_a before ruin] = V(x) / V(a)``.  It is the integral of
the refracted scale function ``w(x; -z)`` against the displaced surplus law
over one delay window:

* Brownian motion displaces by a Gaussian, and V has a closed form with
  normal CDF tails below 0 and a two-exponential branch above 0;
* Cramer-Lundberg displaces by ``p*r`` minus a compound Poisson sum of
  exponential claims, and V needs one scalar series constant C plus a
  bracketed incomplete-gamma series on the middle band ``[-p*r, 0)``.

``quadrature_value`` evaluates the defining integral directly with adaptive
quadrature; it is deliberately independent of the closed forms so the two
routes can be compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from scipy.special import log_ndtr, ndtr

from .errors import (
    DomainError,
    OverflowRangeError,
    QuadratureFailureError,
    SeriesConvergenceError,
    UndefinedDerivativeError,
)
from .models import (
    SPEC_CACHE_SIZE,
    BrownianMotion,
    CramerLundberg,
    ProblemSpec,
    compute_coefficients,
)
from .scale import ExponentialPair, ScaleFunction, refracted_pair, refracted_scale

SERIES_RTOL = 1e-12
SERIES_MAX_TERMS = 500


def regularized_lower_gamma(order: int, x: float) -> float:
    """Regularized lower incomplete gamma P(order, x) for integer order >= 1.

    Two cancellation-free branches: for ``order <= x`` subtract the short
    Poisson head from 1 (the head is at most ~0.6 there); for ``order > x``
    sum the all-positive Poisson tail directly.  Leading terms start in log
    space, so neither branch can overflow.
    """
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    if x <= 0.0:
        return 0.0
    if order <= x:
        # P = 1 - e^{-x} sum_{k < order} x^k / k!
        term = math.exp(-x)
        head = term
        for k in range(1, order):
            term *= x / k
            head += term
        return 1.0 - head
    # P = e^{-x} sum_{k >= order} x^k / k!, decreasing terms since order > x
    log_t = order * math.log(x) - x - math.lgamma(order + 1.0)
    if log_t < -745.0:
        return 0.0
    term = math.exp(log_t)
    tail = term
    # about 9*sqrt(order) terms reach 1e-17 when x is just below order
    for k in range(order + 1, order + 51 + 20 * math.isqrt(order)):
        term *= x / k
        tail += term
        # <= so a subnormal tail (where 1e-17*tail rounds to 0) still stops
        if term <= 1e-17 * tail:
            return tail
    raise SeriesConvergenceError(f"incomplete gamma tail P({order}, {x}) did not converge")


@dataclass(frozen=True)
class CompoundPoissonWindow:
    """Law of the aggregate claims over one delay window of length r.

    An atom of weight ``exp(-lam*r)`` at 0 (no claims) plus an absolutely
    continuous part on (0, inf).
    """

    lam: float
    mu_claim: float
    r: float

    @property
    def atom(self) -> float:
        return math.exp(-self.lam * self.r)

    def density(self, y: float) -> float:
        """Density of the continuous part at ``y > 0``."""
        if y <= 0.0:
            return 0.0
        c = self.mu_claim * self.lam * self.r
        term = c  # m = 0 contribution before the exponential prefactor
        total = term
        m = 0
        small = 0
        while True:
            m += 1
            if m > SERIES_MAX_TERMS:
                raise SeriesConvergenceError(
                    f"compound density series did not converge at y={y}"
                )
            term *= c * y / (m * (m + 1))
            total += term
            small = small + 1 if term < SERIES_RTOL * total else 0
            if small >= 2:
                break
        return self.atom * math.exp(-self.mu_claim * y) * total


def _bessel_like_series(w: float) -> float:
    """``sum_{m>=0} w^{m+1} / (m! (m+1)!)`` for w > 0."""
    term = w
    total = term
    m = 0
    small = 0
    while True:
        m += 1
        if m > SERIES_MAX_TERMS:
            raise SeriesConvergenceError("window series did not converge")
        term *= w / (m * (m + 1))
        total += term
        small = small + 1 if term < SERIES_RTOL * total else 0
        if small >= 2:
            return total


class ParisianScale:
    """Closed-form Parisian refracted scale function for one problem spec.

    Everything reusable (scale coefficients, the positive-side exponential
    pair, and for Cramer-Lundberg the series constant C) is computed once at
    construction.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.coefficient_set = compute_coefficients(spec)
        self.surplus_scale = ScaleFunction.for_surplus(spec)
        self.refracted_scale_fn = ScaleFunction.for_refracted(spec)
        self._is_cl = isinstance(spec.model, CramerLundberg)
        self.series_constant: Optional[float] = None
        try:
            if self._is_cl:
                self.series_constant = self._constant()
                self.positive_pair = self._positive_pair_cl()
            else:
                self.positive_pair = self._positive_pair_brownian()
        except OverflowError as exc:
            # exp(q*r) = V(0), or a series term base^m / (m+1)! for a long window
            window = f", p*r = {spec.model.p * spec.r:.6g}" if self._is_cl else ""
            raise OverflowRangeError(
                f"V on x >= 0 overflows the double range (q*r = {spec.q * spec.r:.6g}"
                f"{window}): {exc}"
            ) from exc
        # an overflowing series constant leaves inf or nan coefficients
        pair = self.positive_pair
        if not (math.isfinite(pair.a) and math.isfinite(pair.b)):
            raise OverflowRangeError(
                f"V on x >= 0 is not finite: coefficients {pair.a}, {pair.b} "
                f"(series constant {self.series_constant})"
            )

    # ---------- construction of the x >= 0 branch ----------

    def _positive_pair_brownian(self) -> ExponentialPair:
        spec = self.spec
        m = spec.model
        assert isinstance(m, BrownianMotion)
        X = self.coefficient_set.surplus
        Y = self.coefficient_set.refracted
        s2 = m.sigma**2
        disc = 0.5 * s2 * (X.rate_plus - X.rate_minus)  # sqrt(mu^2 + 2 q sigma^2)
        eqr = math.exp(spec.q * spec.r)
        # integral of W' against the window displacement law
        i1 = (
            2.0 / math.sqrt(2.0 * math.pi * s2 * spec.r) * math.exp(-spec.r * m.mu**2 / (2.0 * s2))
            + X.rate_plus * eqr
            - (X.rate_plus - X.rate_minus) * eqr * ndtr(-math.sqrt(spec.r) * disc / m.sigma)
        )
        span = Y.rate_plus - Y.rate_minus
        # ndtr returns np.float64; keep the coefficients plain floats
        return ExponentialPair(
            float((i1 - eqr * Y.rate_minus) / span),
            float((i1 - eqr * Y.rate_plus) / span),
            Y.rate_plus,
            Y.rate_minus,
        )

    def _positive_pair_cl(self) -> ExponentialPair:
        spec = self.spec
        m = spec.model
        assert isinstance(m, CramerLundberg)
        Y = self.coefficient_set.refracted
        p_y = m.p - spec.delta
        eqr = math.exp(spec.q * spec.r)
        d = (spec.q + m.lam) * eqr - m.p * self.series_constant
        g = d / (p_y * (Y.rate_plus - Y.rate_minus))
        return ExponentialPair(
            eqr * p_y * Y.weight_plus - g,
            eqr * p_y * Y.weight_minus - g,
            Y.rate_plus,
            Y.rate_minus,
        )

    # ---------- Cramer-Lundberg series machinery ----------

    def _bracket_series(self, u: float, plus_variant: bool, with_derivative: bool):
        """The bracketed incomplete-gamma series and (optionally) its u-derivative.

        plus_variant:  base = p*r*(q_minus + mu), c = q_plus + mu
        minus_variant: base = p*r*(q_plus + mu),  c = q_minus + mu
        S(u)  = sum_m base^m / (m! (m+1)!) * gamma(m+1, u*c) * [p*r*c - (m+1)]
        """
        spec = self.spec
        m_ = spec.model
        X = self.coefficient_set.surplus
        pr = m_.p * spec.r
        mu = m_.mu_claim
        if plus_variant:
            base = pr * (X.rate_minus + mu)
            c = X.rate_plus + mu
        else:
            base = pr * (X.rate_plus + mu)
            c = X.rate_minus + mu
        uc = u * c
        log_base = math.log(base)
        total = 0.0
        total_d = 0.0
        small = 0
        for m in range(SERIES_MAX_TERMS + 1):
            bracket = pr * c - (m + 1)
            # base^m / (m+1)! and the derivative kernel, both via log space
            log_a = m * log_base - math.lgamma(m + 2.0)
            a_m = math.exp(log_a)
            term = a_m * regularized_lower_gamma(m + 1, uc) * bracket
            total += term
            if with_derivative:
                if uc > 0.0:
                    log_d = m * (log_base + math.log(uc)) - uc - math.lgamma(
                        m + 1.0
                    ) - math.lgamma(m + 2.0)
                    d_m = c * math.exp(log_d) if log_d > -745.0 else 0.0
                else:
                    d_m = c if m == 0 else 0.0
                term_d = d_m * bracket
                total_d += term_d
            else:
                term_d = 0.0
            scale = max(abs(total), abs(total_d), 1e-300)
            if max(abs(term), abs(term_d)) < SERIES_RTOL * scale:
                small += 1
                if small >= 2:
                    return total, total_d
            else:
                small = 0
        raise SeriesConvergenceError(
            f"bracketed gamma series did not converge within {SERIES_MAX_TERMS} terms"
        )

    def _constant(self) -> float:
        """The scalar constant feeding the positive branch: the integral of the
        surplus scale derivative against the window displacement law."""
        spec = self.spec
        m = spec.model
        X = self.coefficient_set.surplus
        pr = m.p * spec.r
        mu = m.mu_claim
        a_plus = m.p * X.weight_plus
        a_minus = m.p * X.weight_minus
        s_plus, _ = self._bracket_series(pr, plus_variant=True, with_derivative=False)
        s_minus, _ = self._bracket_series(pr, plus_variant=False, with_derivative=False)
        tail = _bessel_like_series(m.p * m.lam * mu * spec.r**2)
        return math.exp(-m.lam * spec.r) * (
            m.p * self.surplus_scale.derivative(pr)
            + a_minus * X.rate_plus * math.exp(X.rate_plus * pr) * s_plus
            - a_plus * X.rate_minus * math.exp(X.rate_minus * pr) * s_minus
            + math.exp(-mu * pr) / pr * tail
        )

    def _middle_cl(self, x: float, with_derivative: bool):
        spec = self.spec
        m = spec.model
        X = self.coefficient_set.surplus
        u = x + m.p * spec.r
        a_plus = m.p * X.weight_plus
        a_minus = m.p * X.weight_minus
        s_plus, sd_plus = self._bracket_series(u, True, with_derivative)
        s_minus, sd_minus = self._bracket_series(u, False, with_derivative)
        elr = math.exp(-m.lam * spec.r)
        e_p = math.exp(X.rate_plus * u)
        e_m = math.exp(X.rate_minus * u)
        value = elr * (
            m.p * self.surplus_scale.value(u) + a_minus * e_p * s_plus - a_plus * e_m * s_minus
        )
        if not with_derivative:
            return value, None
        deriv = elr * (
            m.p * self.surplus_scale.derivative(u)
            + a_minus * e_p * (X.rate_plus * s_plus + sd_plus)
            - a_plus * e_m * (X.rate_minus * s_minus + sd_minus)
        )
        return value, deriv

    # ---------- Brownian negative branch ----------

    def _neg_brownian(self, x: float, with_derivative: bool):
        spec = self.spec
        m = spec.model
        X = self.coefficient_set.surplus
        s2 = m.sigma**2
        disc = 0.5 * s2 * (X.rate_plus - X.rate_minus)
        sr = m.sigma * math.sqrt(spec.r)
        qr = spec.q * spec.r
        alpha = (-x - spec.r * disc) / sr
        beta = (-x + spec.r * disc) / sr
        # log-space tails keep exp(-rate_minus * x) * survival finite far below 0
        t_plus = math.exp(qr + X.rate_plus * x + log_ndtr(-alpha))
        t_minus = math.exp(qr + X.rate_minus * x + log_ndtr(-beta))
        value = t_plus + t_minus
        if not with_derivative:
            return value, None
        log_root = -0.5 * math.log(2.0 * math.pi)
        d_plus = X.rate_plus * t_plus + math.exp(
            qr + X.rate_plus * x - 0.5 * alpha * alpha + log_root
        ) / sr
        d_minus = X.rate_minus * t_minus + math.exp(
            qr + X.rate_minus * x - 0.5 * beta * beta + log_root
        ) / sr
        return value, d_plus + d_minus

    # ---------- public evaluation ----------

    def value(self, x: float) -> float:
        """V at x.  Zero below ``-p*r`` for Cramer-Lundberg (with the value at
        ``-p*r`` itself taken as the right limit)."""
        if x >= 0.0:
            return self.positive_pair.value(x)
        if self._is_cl:
            if x < -self.spec.model.p * self.spec.r:
                return 0.0
            return self._middle_cl(x, with_derivative=False)[0]
        return self._neg_brownian(x, with_derivative=False)[0]

    def derivative(self, x: float) -> float:
        """dV/dx.  Undefined at the Cramer-Lundberg kinks x = 0 and x = -p*r."""
        if self._is_cl:
            boundary = -self.spec.model.p * self.spec.r
            if x == 0.0 or x == boundary:
                raise UndefinedDerivativeError(
                    f"derivative does not exist at x={x} for the bounded-variation model"
                )
            if x < boundary:
                return 0.0
            if x < 0.0:
                return self._middle_cl(x, with_derivative=True)[1]
            return self.positive_pair.derivative(x)
        if x >= 0.0:
            return self.positive_pair.derivative(x)
        return self._neg_brownian(x, with_derivative=True)[1]

    def derivative_argmin(self) -> float:
        """Argmin of dV/dx over (0, inf), closed form; 0 if V' is increasing."""
        return self.positive_pair.derivative_argmin()

    def compound_window(self) -> Optional[CompoundPoissonWindow]:
        if not self._is_cl:
            return None
        m = self.spec.model
        return CompoundPoissonWindow(m.lam, m.mu_claim, self.spec.r)

    # ---------- quadrature oracle ----------

    def quadrature_value(self, x: float, abs_tol: float = 1e-10) -> float:
        """V at x via the defining integral of ``w(x; -z)`` against the
        one-window displacement law.  Independent of the closed forms."""
        if self._is_cl:
            if x < -self.spec.model.p * self.spec.r:
                # the window displacement cannot lift the start back to 0 in time
                return 0.0
            # at x = -p*r exactly the no-claim atom still counts (recovery exactly
            # at the deadline is recovery), matching the right limit convention
            return self._quad_cl(x, abs_tol)
        return self._quad_brownian(x, abs_tol)

    def _quad_cl(self, x: float, abs_tol: float) -> float:
        # imported on use: scipy.integrate loads scipy.optimize, about 0.3 s
        from scipy.integrate import quad

        spec = self.spec
        m = spec.model
        cs = self.coefficient_set
        pr = m.p * spec.r
        window = self.compound_window()
        lo = max(0.0, -x)
        total = window.atom * m.p * refracted_scale(cs, x, pr)

        def integrand(z: float) -> float:
            return refracted_scale(cs, x, z) * (z / spec.r) * window.density(pr - z)

        if lo < pr:
            val, err = quad(integrand, lo, pr, epsabs=abs_tol, epsrel=1e-11, limit=500)
            if err > 1e3 * max(abs_tol, 1e-14) and err > 1e-8 * max(abs(val), 1.0):
                raise QuadratureFailureError(
                    f"window integral error estimate {err:.2e} too large at x={x}"
                )
            total += val
        return total

    def _quad_brownian(self, x: float, abs_tol: float) -> float:
        from scipy.integrate import quad

        spec = self.spec
        m = spec.model
        cs = self.coefficient_set
        mean = m.mu * spec.r
        sd = m.sigma * math.sqrt(spec.r)

        def integrand(z: float) -> float:
            dens = math.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            return refracted_scale(cs, x, z) * (z / spec.r) * dens

        lo = max(0.0, -x)
        hi = mean + 12.0 * sd
        if lo >= hi:
            return 0.0
        total = 0.0
        for a, b in ((lo, max(lo, mean)), (max(lo, mean), hi)):
            if b <= a:
                continue
            val, err = quad(integrand, a, b, epsabs=abs_tol, epsrel=1e-11, limit=500)
            if err > 1e3 * max(abs_tol, 1e-14) and err > 1e-8 * max(abs(val), 1.0):
                raise QuadratureFailureError(
                    f"window integral error estimate {err:.2e} too large at x={x}"
                )
            total += val
        return total


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def parisian_scale(spec: ProblemSpec) -> ParisianScale:
    """Shared, cached ParisianScale instance for a spec."""
    return ParisianScale(spec)

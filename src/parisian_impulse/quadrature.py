"""Adaptive Gauss-Kronrod quadrature on NumPy arrays, and the oracles built on it.

The rule is QUADPACK's QK15: the 15-point Kronrod extension of the 7-point
Gauss rule, with QUADPACK's error estimate (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, 1983, *QUADPACK*, Springer).  On an
interval of half-length ``h`` the estimate starts from the gap
``|K15 - G7|`` and is scaled by the variation ``h * sum_k w_k |f_k - mean|``
as ``var * min(1, (200 * gap / var) ** 1.5)``; it never drops below 50 ulps
of ``h * sum_k w_k |f_k|``.

The adaptive loop keeps a list of intervals.  Each round bisects the one
with the worst error estimate together with every interval whose estimate
exceeds its length's share of the tolerance, and evaluates the 15 nodes of
all the new halves in one call of the integrand on an array.

The oracles built on the rule live here, apart from what they check:
``quadrature_value``, V from its defining window integral, one integrand for
both models, which supply only the window density (compound Poisson's is
``CompoundPoissonWindow``), its breakpoints and the no-claim atom; and
``generator_residual``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailureError, SeriesConvergenceError
from .models import ArrayLike, BrownianMotion, CramerLundberg, ImpulsePolicy
from .optimizer import value_function
from .parisian import _SQRT_2PI, SERIES_RTOL, ParisianScale, _log_factorials, _term_budget
from .scale import refracted_scale

QUAD_RTOL = 1e-11  # relative tolerance of the window integral
QUAD_ATOL = 1e-10  # absolute tolerance of the window integral
GENERATOR_STEP = 1e-4  # central-difference step of generator_residual

# Kronrod abscissae on [0, 1] and their weights; the odd-indexed ones are
# the Gauss nodes, and _GAUSS_WEIGHTS belong to them in the same order
_KRONROD_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# the 15 nodes on [-1, 1], left to right, and both rules' weights on them
NODES = np.concatenate([-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]])
KRONROD = np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]])
GAUSS = np.zeros(15)
GAUSS[1::2] = np.concatenate([_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[-2::-1]])

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _rule(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """K15 integrals and their error estimates on each interval [lo, hi]."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fv = np.asarray(f((centre[:, None] + half[:, None] * NODES).ravel()), dtype=float)
    fv = fv.reshape(len(lo), len(NODES))
    kronrod = fv @ KRONROD
    gap = np.abs(half * (kronrod - fv @ GAUSS))
    variation = half * (np.abs(fv - 0.5 * kronrod[:, None]) @ KRONROD)
    size = half * (np.abs(fv) @ KRONROD)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = variation * np.minimum(1.0, (200.0 * gap / variation) ** 1.5)
    err = np.where((variation != 0.0) & (gap != 0.0), scaled, gap)
    err = np.where(size > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * size, err), err)
    return half * kronrod, err


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    epsabs: float,
    epsrel: float,
    limit: int = 500,
) -> tuple[float, float]:
    """``int_a^b f`` and its error estimate, for ``a < b``.

    ``f`` maps a 1-D array of points to the array of its values there.  The
    loop stops once the summed estimate is at most
    ``max(epsabs, epsrel * |integral|)``.  Raises ``QuadratureFailureError``
    when the integral or its estimate is not finite, or when reaching the
    tolerance would take more than ``limit`` intervals.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    value, err = _rule(f, lo, hi)
    while True:
        total, error = float(value.sum()), float(err.sum())
        if not (np.isfinite(total) and np.isfinite(error)):
            raise QuadratureFailureError(
                f"integral over [{a:.6g}, {b:.6g}] is not finite (estimate {total}, error {error})"
            )
        tol = max(epsabs, epsrel * abs(total))
        if error <= tol:
            return total, error
        split = err > tol * (hi - lo) / (b - a)
        split[np.argmax(err)] = True
        if len(lo) + np.count_nonzero(split) > limit:
            raise QuadratureFailureError(
                f"error estimate {error:.2e} above tolerance {tol:.2e} on "
                f"[{a:.6g}, {b:.6g}] after {len(lo)} intervals (limit {limit})"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _rule(f, new_lo, new_hi)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


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

    def density(self, y: ArrayLike) -> ArrayLike:
        """Density of the continuous part at ``y > 0`` (zero elsewhere)."""
        if isinstance(y, np.ndarray):
            return self._density_block(np.asarray(y, dtype=float))
        return float(self._density_block(np.array([y], dtype=float))[0])

    def _density_block(self, y: np.ndarray) -> np.ndarray:
        """The density on an array: one block of log-space terms
        ``log(c^{m+1} y^m / (m! (m+1)!))``, a row per point, sized from the
        largest ``sqrt(c*y)``.  The prefactor ``e^{-lam*r - mu*y}`` joins in
        the log, so no intermediate sum leaves the double range."""
        out = np.zeros_like(y)
        pos = y > 0.0
        if not pos.any():
            return out
        yp = y[pos]
        c = self.mu_claim * self.lam * self.r
        n = _term_budget(math.sqrt(c * float(yp.max())))
        m, log_m_factorial = _log_factorials(n + 1)
        log_terms = (
            (m[:-1] + 1.0) * math.log(c) - log_m_factorial[:-1] - log_m_factorial[1:]
            + np.log(yp)[:, None] * m[:-1]
        )
        peak = log_terms.max(axis=1)
        scaled = np.exp(log_terms - peak[:, None])
        total = scaled.sum(axis=1)
        if np.any(scaled[:, -2:].max(axis=1) >= SERIES_RTOL * total):
            raise SeriesConvergenceError(
                f"compound density series did not converge within {n} terms"
            )
        out[pos] = np.exp(peak + np.log(total) - self.lam * self.r - self.mu_claim * yp)
        return out


def quadrature_value(ps: ParisianScale, x: float) -> float:
    """V at x via the defining integral of ``w(x; -z)`` against the
    one-window displacement law.  Independent of the closed forms.

    The integral runs over ``z >= max(0, -x)``, split at the model's
    breakpoints; compound Poisson adds the no-claim atom at ``z = p*r``."""
    spec = ps.spec
    m = spec.model
    cs = ps.coefficient_set
    if isinstance(m, CramerLundberg):
        pr = m.p * spec.r
        window = CompoundPoissonWindow(m.lam, m.mu_claim, spec.r)
        density = lambda z: window.density(pr - z)
        breaks = (pr,)
        # the atom counts from x = -p*r on (recovery exactly at the deadline is
        # recovery); below it w(x; -p*r) = W(x + p*r) = 0 and nothing is integrated
        total = window.atom * m.p * refracted_scale(cs, x, pr)
    else:
        mean = m.mu * spec.r
        sd = m.sigma * math.sqrt(spec.r)
        density = lambda z: np.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * _SQRT_2PI)
        breaks = (mean, mean + 12.0 * sd)
        total = 0.0

    def integrand(z: np.ndarray) -> np.ndarray:
        return refracted_scale(cs, x, z) * (z / spec.r) * density(z)

    lo = max(0.0, -x)
    ends = [lo, *(max(lo, b) for b in breaks)]
    for a, b in zip(ends, ends[1:]):
        if a < b:
            total += integrate(integrand, a, b, QUAD_ATOL, QUAD_RTOL)[0]
    return total


def generator_residual(ps: ParisianScale, policy: ImpulsePolicy, x: float) -> float:
    """Residual of the discounted generator applied to the policy value.

    Zero (to discretization error) on (0, upper) where the value function is
    harmonic for the stopped process; nonpositive above upper where paying
    out dominates.  Derivatives by central differences with step
    ``GENERATOR_STEP``; the Cramer-Lundberg jump average by adaptive
    quadrature over the actual piecewise value function.
    """
    spec = ps.spec
    h, x = GENERATOR_STEP, float(x)  # an np.float32 x would step in float32
    v = lambda y: value_function(ps, policy, y)
    vx = v(x)
    d1 = (v(x + h) - v(x - h)) / (2.0 * h)
    m = spec.model
    if isinstance(m, BrownianMotion):
        d2 = (v(x + h) - 2.0 * vx + v(x - h)) / (h * h)
        drift = m.mu - (spec.delta if x > 0.0 else 0.0)
        return drift * d1 + 0.5 * m.sigma**2 * d2 - spec.q * vx
    assert isinstance(m, CramerLundberg)
    drift = m.p - (spec.delta if x > 0.0 else 0.0)
    pr = m.p * spec.r
    # E[v(x - claim)] - v(x); v vanishes below -p*r, so the claim integral stops
    # at z = x + pr.  Split at the claim sizes that land on kinks of v.
    cuts = {0.0, x + pr}
    if x > policy.upper:
        cuts.add(x - policy.upper)
    if 0.0 < x:
        cuts.add(x)
    kinks = sorted(c for c in cuts if 0.0 <= c <= x + pr)
    jump_avg = 0.0
    for a, b in zip(kinks, kinks[1:]):
        if b <= a:
            continue
        jump_avg += integrate(
            lambda z: v(x - z) * m.mu_claim * np.exp(-m.mu_claim * z),
            a, b, epsabs=1e-12, epsrel=1e-10, limit=300,
        )[0]
    return drift * d1 + m.lam * (jump_avg - vx) - spec.q * vx

"""Optimal impulse dividend policy under the Parisian ruin clock.

The candidate policies pay the surplus down from ``upper`` to ``lower``
(``upper - lower`` per lump, net of the fixed cost ``beta``).  The optimal
pair minimizes the payout ratio

    g(lower, upper) = (V(upper) - V(lower)) / (upper - lower - beta)

over ``lower >= 0``, ``upper > lower + beta``; the candidate value function
then scales V by the minimized ratio below ``upper`` and grows with unit
slope above it.

On x >= 0, V is two exponentials, ``a*e^{kp x} - b*e^{km x}``, so V' falls to
a closed-form argmin ``a*`` and rises beyond it, and the search reduces to one
scalar root (the structure of Loeffen, 2009, Insurance Math. Econ. 45).  An
interior optimum has ``V'(c1) = V'(c2)`` and
``G = V(c2) - V(c1) - V'(c1) * (c2 - c1 - beta) = 0``.  With the gap
``s = c2 - c1``, ``E = expm1(kp s)`` and ``F = expm1(km s)``, the first fixes
``e^{(kp - km) c1} = b*km*F / (a*kp*E)`` (the ratio); the second is psi(s) = 0,

    psi(s) = (kp - km) E F - kp km (s - beta) (E - F) = -G km F / (a e^{kp c1}),

which knows only kp, km and beta: the delay r moves an interior c1*, never the
gap.  Along the pairing ``dG/dc1 = -V''(c1) (c2 - c1 - beta)`` with V''(c1) < 0,
and the gap shrinks to 0 as c1 rises to a*, where ``G = beta * V'(a*) > 0``; so
psi is negative on (0, beta], grows like ``-kp km s E`` and changes sign once,
at s*.  The optimum is interior exactly when ``a* > 0`` and the ratio at s*
exceeds 1: then ``c1* = log(ratio) / (kp - km)`` and ``c2* = c1* + s*``.
Otherwise ``c1* = 0`` and ``c2*`` is the root of the increasing function
``h(c2) = V'(c2) * (c2 - beta) - (V(c2) - V(0))`` on ``(max(a*, beta), inf)``.
Roots, certificates, payout ratios and the policy value on ``[0, upper]`` read V
by ``ExponentialPair.at``, bit for bit ``ps.value``; each root is a bracketed
Newton-bisection up to the pair's edge, past which its reads raise.  The policy
value keeps its factor and ``V(lower)`` per ``(ps, policy)``: a read is one ``at``.

The sufficiency certificate (V' nondecreasing beyond the trigger) is closed
form too.  With ``V = a*e^{kp x} - b*e^{km x}``, ``a > 0`` and ``km < 0``:
if ``b >= 0``, ``V''' = a*kp^3*e^{kp x} - b*km^3*e^{km x} > 0``, so V' is
convex with its minimum at ``a*``; if ``b < 0``, both terms of V'' are
positive, so V' increases throughout and ``a* = 0``.  Either way the
certificate holds on all of [upper, inf) exactly when ``upper >= a*``.

The transfer inequality is exact too.  With ``F(t) = v(t) - t`` its margin is
``F(x) - F(y) + beta``.  F is constant above ``upper`` and ``V/g - t`` below
it, where g is the policy's payout ratio.  So the least margin over
``0 <= y <= x`` is beta (the diagonal) or sits at a pair ``y < x`` with x
either upper or in L and y either 0 or in L, where L is the level set
``V' = g`` on [0, upper]: at most one root on each side of ``a*``, found by
the same Newton-bisection.

This module imports only ``errors``, ``models`` and ``parisian``: the
generator residual that checks its policies is in ``quadrature``.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, SolverFailureError
from .models import SPEC_CACHE_SIZE, ArrayLike, ExponentialPair, ImpulsePolicy
from .parisian import ParisianScale

# Relative step at which a root counts as converged: a Newton step this
# small leaves an error at rounding level, and a bisection step this small
# bounds the error by itself.
ROOT_RTOL = 1e-12
ROOT_MAX_ITER = 200
ARGMIN_TOL = 1e-12  # a trigger this close below a* counts as at it
TRANSFER_TOL = 1e-9  # least margin the transfer check accepts
FO_TOL = 1e-8  # largest relative first-order residual a solve returns


@dataclass(frozen=True)
class SufficiencyReport:
    passed: bool
    worst_slack: float
    derivative_argmin: float


@dataclass(frozen=True)
class TransferReport:
    passed: bool
    worst_margin: float
    worst_x: float
    worst_y: float


@dataclass(frozen=True)
class OptimalPolicyResult:
    policy: ImpulsePolicy
    payout_ratio: float
    case: str  # "interior" or "boundary"
    fo_residual: float  # relative first-order residual
    derivative_argmin: float
    sufficiency_pass: bool
    iterations: int  # evaluations of psi and h over the whole solve


def payout_ratio(ps: ParisianScale, lower: float, upper: float) -> float:
    """g(lower, upper); raises DomainError outside the admissible wedge."""
    beta, policy = ps.spec.beta, ImpulsePolicy(lower, upper)
    policy.validate(beta)
    lo, up, pair = policy.lower, policy.upper, ps.positive_pair
    return _gain(pair.at(up)[0], pair.at(lo)[0], lo, up, beta) / (up - lo - beta)


def _gain(v_upper: float, v_lower: float, lower: float, upper: float, beta: float) -> float:
    """``V(upper) - V(lower)``, the numerator of every payout ratio, checked: where
    a tiny q leaves V flat in doubles, so that it or the net payout
    ``upper - lower - beta`` is not positive, it raises ``SolverFailureError``."""
    gain = v_upper - v_lower
    if not (gain > 0.0 and upper > lower + beta and upper - lower - beta > 0.0):
        raise SolverFailureError(f"V is flat in doubles across ({lower:.17g}, {upper:.17g})")
    return gain


def _find_root(
    f: Callable[[float], tuple[float, float]], lo: float, cap: float, width: float
) -> tuple[float, int]:
    """Root of f on (lo, cap], where f is negative left of the root and
    positive right of it; f returns (value, slope) and f(lo) < 0 is given.

    The right end of the bracket starts ``width`` past lo and moves right,
    tripling the step, until f turns positive; it never passes ``cap``.
    Newton steps that stay inside the bracket and at least halve the previous
    step alternate with bisection.  Returns (root, evaluations of f).
    """
    if not lo < cap:
        raise SolverFailureError(
            f"root search starts at {lo:.6g}, at or past the finite exp range end {cap:.6g}"
        )
    hi = min(lo + width, cap)
    for its in range(1, ROOT_MAX_ITER + 1):
        fx, dfx = f(hi)
        if fx > 0.0:
            break
        if not fx <= 0.0 or hi >= cap:
            raise SolverFailureError(f"no sign change on [{lo:.6g}, {cap:.6g}]")
        width *= 3.0
        lo, hi = hi, min(hi + width, cap)
    else:
        raise SolverFailureError(f"no sign change on [{lo:.6g}, {cap:.6g}]")
    x, last_step = hi, hi - lo
    for its in range(its + 1, ROOT_MAX_ITER + 1):
        step = fx / dfx if dfx != 0.0 else math.inf
        if abs(step) <= ROOT_RTOL * abs(x):
            return x - step, its
        nx = x - step
        if not (lo < nx < hi and abs(step) <= 0.5 * last_step):
            nx = 0.5 * (lo + hi)
        last_step = abs(nx - x)
        if last_step <= ROOT_RTOL * abs(nx):
            return nx, its
        x = nx
        fx, dfx = f(x)
        if fx > 0.0:
            hi = x
        elif fx < 0.0:
            lo = x
        elif fx == 0.0:
            return x, its
        else:
            raise SolverFailureError(f"non-finite residual at x={x:.6g}")
    raise SolverFailureError(f"root search did not converge in {ROOT_MAX_ITER} steps")


def _level_point(pair: ExponentialPair, level: float, lo: float, hi: float, sign: float) -> float:
    """The point of (lo, hi] where V' = level, on a piece where ``sign * V'``
    rises and ``sign * (V'(lo) - level) < 0``."""

    def f(x: float) -> tuple[float, float]:
        _, d1, d2 = pair.at(x)
        return sign * (d1 - level), sign * d2

    return _find_root(f, lo, hi, 1.0 / pair.kp)[0]


def find_optimal_policy(ps: ParisianScale) -> OptimalPolicyResult:
    """Minimize the payout ratio g over admissible (lower, upper) pairs.

    One root of psi gives the case and an interior optimum, one of h a boundary
    optimum (see the module docstring); ``iterations`` counts both.  A policy
    failing its own first-order or transfer check raises ``SolverFailureError``.
    """
    beta = ps.spec.beta
    pair = ps.positive_pair
    kp, km = pair.kp, pair.km
    a_star = pair.derivative_argmin()
    # every c2 lies past a*, where V/V' >= (1 + kp/km)/kp: the resolution check below cannot
    # pass (2 covers FO_TOL and rounding) where 2**-53 times that bound exceeds TRANSFER_TOL
    best = 2.0**-53 * (1.0 + kp / km) / kp
    if best > 2.0 * TRANSFER_TOL:
        raise SolverFailureError(f"V is flat in doubles: V/g* resolved at best to {best:.3g}")

    def psi(s: float) -> tuple[float, float]:
        e, f = math.expm1(kp * s), math.expm1(km * s)
        de, df = kp * (e + 1.0), km * (f + 1.0)
        return ((kp - km) * e * f - kp * km * (s - beta) * (e - f),
                (kp - km) * (de * f + e * df) - kp * km * (e - f + (s - beta) * (de - df)))

    def h(c2: float) -> tuple[float, float]:
        _, d1, d2 = pair.at(c2)
        # V(c2) - V(0) by expm1: the difference of the two values cancels
        gain = pair.a * math.expm1(kp * c2) - pair.b * math.expm1(km * c2)
        return d1 * (c2 - beta) - gain, d2 * (c2 - beta)

    ratio, iterations = 0.0, 0
    if a_star > 0.0:
        gap, iterations = _find_root(psi, 0.0, pair.edge, 1.0 / (kp - km))
        ratio = pair.b * km * math.expm1(km * gap) / (pair.a * kp * math.expm1(kp * gap))
    if ratio > 1.0:
        case, c1 = "interior", math.log(ratio) / (kp - km)
        c2 = c1 + gap
    else:
        case, c1 = "boundary", 0.0
        c2, its = _find_root(h, max(a_star, beta), pair.edge, 1.0 / kp)
        iterations += its
    policy = ImpulsePolicy(c1, c2)
    v2, d2, _ = pair.at(c2)
    v1, d1, _ = pair.at(c1)
    g_star = _gain(v2, v1, c1, c2, beta) / (c2 - c1 - beta)
    # V/g* is known only to about ulp(V(c2)) / g* in x, and so is every transfer
    # margin: a tiny q leaves V nearly flat out to a huge c2
    resolution = math.ulp(v2) / g_star
    if not resolution <= TRANSFER_TOL:
        raise SolverFailureError(f"V/g* resolved only to {resolution:.3g} (tol {TRANSFER_TOL:g})")
    fo = abs(d2 - g_star) / g_star
    if case == "interior":
        fo = max(fo, abs(d1 - g_star) / g_star)
    if not fo <= FO_TOL:
        raise SolverFailureError(f"first-order residual {fo:.3g} above {FO_TOL:g}")
    sufficiency = check_sufficiency_pair(ps, c2)
    return OptimalPolicyResult(
        policy=policy,
        payout_ratio=g_star,
        case=case,
        fo_residual=fo,
        derivative_argmin=a_star,
        sufficiency_pass=sufficiency.passed,
        iterations=iterations,
    )


def value_function(ps: ParisianScale, policy: ImpulsePolicy, x: ArrayLike) -> ArrayLike:
    """Candidate value of the policy started from x (a float or an array).

    Scales V below ``upper`` and continues with unit slope above; continuous
    at ``upper`` by construction.  A float x in ``[0, upper]`` reads V by ``at``,
    once: the scale factor and ``V(lower)`` are kept per ``(ps, policy)``.
    """
    lo, up = policy.lower, policy.upper
    factor, v_lo = _policy_terms(weakref.ref(ps), lo, up)
    if isinstance(x, np.ndarray):
        below = factor * ps.value(np.minimum(x, up))
        return np.where(x <= up, below, x - lo - ps.spec.beta + factor * v_lo)
    x = float(x)
    if 0.0 <= x <= up:
        return factor * ps.positive_pair.at(x)[0]
    if x > up:
        return x - lo - ps.spec.beta + factor * v_lo
    return factor * ps.value(x)  # below 0; NaN lands here, and V raises


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _policy_terms(ps_ref: weakref.ref, lo: float, up: float) -> tuple[float, float]:
    """``(upper - lower - beta) / (V(upper) - V(lower))`` and ``V(lower)``; an
    inadmissible policy or a flat V raises on every call (errors are not kept).
    Keyed by a weak reference: the cache keeps no ``ParisianScale`` alive."""
    ps = ps_ref()
    beta, pair = ps.spec.beta, ps.positive_pair
    ImpulsePolicy(lo, up).validate(beta)
    v_lo = pair.at(lo)[0]
    return (up - lo - beta) / _gain(pair.at(up)[0], v_lo, lo, up, beta), v_lo


def check_sufficiency_pair(ps: ParisianScale, upper: float) -> SufficiencyReport:
    """V' nondecreasing on [upper, inf): the optimality certificate.

    Closed form (see the module docstring): it holds exactly when ``a > 0``
    and ``upper >= a*``.  ``worst_slack`` is the least V'' on [upper, inf):
    V'' at upper, or at the zero of V''' when ``b < 0`` puts that further
    right.  V' is also read at both ends of ``[upper, far]``, where its terms are
    largest: past the pair's edge it raises ``OverflowRangeError``, never passes.
    """
    upper = float(upper)
    if not 0.0 <= upper < math.inf:
        raise DomainError(f"the trigger must be finite and nonnegative, got {upper}")
    pair = ps.positive_pair
    a_star = pair.derivative_argmin()
    far = max(upper + 10.0, 3.0 * max(a_star, 1.0))
    pair.at(upper), pair.at(far)  # past the pair's edge these raise
    least = max(upper, pair.derivative_zero(3))  # V'' is least at the zero of V''' if past upper
    passed = pair.a > 0.0 and upper >= a_star - ARGMIN_TOL
    return SufficiencyReport(
        passed=passed, worst_slack=pair.at(least)[2], derivative_argmin=a_star
    )


def check_transfer_inequality(ps: ParisianScale, policy: ImpulsePolicy) -> TransferReport:
    """v(x) - v(y) >= x - y - beta for all 0 <= y <= x, exactly.

    Any policy value function must beat an immediate transfer from x down to
    y net of the fixed cost.  The least margin is beta or sits at a candidate
    pair built from the level set ``V' = g`` (see the module docstring).
    """
    beta = ps.spec.beta
    policy.validate(beta)
    lo, up = policy.lower, policy.upper
    pair = ps.positive_pair
    v_up, d_up, _ = pair.at(up)
    g = _gain(v_up, pair.at(lo)[0], lo, up, beta) / (up - lo - beta)
    # V' is monotone on each side of a*, so V' - g has at most one root on each
    a_star = pair.derivative_argmin()
    knots = [0.0, a_star, up] if 0.0 < a_star < up else [0.0, up]
    slopes = [pair.at(t)[1] for t in knots[:-1]] + [d_up]
    level = [
        _level_point(pair, g, s, e, 1.0 if de > ds else -1.0)
        for s, e, ds, de in zip(knots, knots[1:], slopes, slopes[1:])
        if min(ds, de) < g < max(ds, de)
    ]
    v = {t: pair.at(t)[0] for t in [0.0, *level]}
    v[up] = v_up
    margins = [
        ((v[x] - v[y]) / g - (x - y - beta), x, y)
        for x in [up, *level] for y in [0.0, *level] if y < x
    ]
    worst, x, y = min([(beta, 0.0, 0.0), *margins])  # beta on the diagonal
    return TransferReport(passed=worst >= -TRANSFER_TOL, worst_margin=worst, worst_x=x, worst_y=y)

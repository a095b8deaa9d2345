"""Independent numerical oracles for the test suite.

Everything here is re-derived from the model definitions alone: roots of the
exponent equation come from the quadratic formula, weights from the residues
of 1/(psi - q), and the refracted scale function from its defining
convolution evaluated with adaptive quadrature.  None of it shares code with
the package's closed forms, so agreement is a genuine cross-check rather
than a tautology.  The one exception is ``brute_force_payout_grid``, which
checks the optimizer's search rather than V: it takes V from the package and
only replaces the root solves with an exact lattice minimum (a convex hull
sweep, checked against the exhaustive ``brute_force_payout_table``).
``search_bound``, the right end of that lattice in acceptance criterion 6, is
solved with the optimizer's bracketed root, as the optimizer once did on every
solve, but on its own ``math.exp`` reads of V'.  ``reference_optimum`` solves the policy's
first-order conditions in mpmath, on V from ``reference_positive_pair``.

The certificate grids check the package's closed-form certificates: they
scan V' on a fine grid, or the transfer margin on a table of point pairs, as
the package did before it used the two-exponential structure.  A grid past
the positive pair's edge raises the pair's own ``OverflowRangeError`` before
any V' leaves the double range.  ``refracted_scale_derivative`` and
``refracted_derivative_argmin`` check the refracted scale function's shape.

``regularized_lower_gamma`` evaluates ``P(order, x)`` one scalar at a time,
term by term; it checks the vectorized incomplete gamma terms
``_log_gamma_terms`` of ``band_sums_by_gamma_tail``: the compound Poisson
band's two bracketed series summed term by term in ``P(m+1, u*c)`` (on the
package's log-factorial table and term budget), as the package did before
it read the band from a per-spec coefficient table (``band_by_gamma_tail``
gives V and V' from them).  ``series_constant_by_window`` builds the series
constant C as the package did before it read C from the band table alone:
the table's slope rows plus ``CompoundPoissonWindow.density`` at ``p*r``.

The single-path simulators at the end follow one refracted path at a time in
plain Python; they check the vectorized Monte Carlo kernels' conventions
(excursion clock, barrier ties, drift per step) path by path.
``brownian_block`` steps one seeded substream's Euler paths on their own, and
``cl_block`` one substream's exact compound Poisson paths, claim round by
claim round; the package steps the substreams together in one array (the
exact kernel in a working set that whole substreams join as room frees up)
and must give the same estimates bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from parisian_impulse.errors import (
    DomainError,
    OverflowRangeError,
    SeriesConvergenceError,
    UndefinedDerivativeError,
)
from parisian_impulse.models import (
    BrownianMotion,
    CoefficientSet,
    CramerLundberg,
    Model,
    ProblemSpec,
)
from parisian_impulse.optimizer import (
    TRANSFER_TOL,
    ImpulsePolicy,
    SufficiencyReport,
    TransferReport,
    _find_root,
    value_function,
)
from parisian_impulse.parisian import (
    SERIES_RTOL,
    ParisianScale,
    _log_factorials,
    _term_budget,
)
from parisian_impulse.models import EXP_ARG_MAX
from parisian_impulse.quadrature import CompoundPoissonWindow
from parisian_impulse.scale import ScaleFunction, refracted_pair
from parisian_impulse.simulate import (
    _U_HI,
    _U_LO,
    SimulationConfig,
    _block_size,
    _pair_average,
    _start_payment,
)


def exponent_roots_and_weights(model: Model, q: float) -> tuple[float, float, float, float]:
    """(k_plus, k_minus, w_plus, w_minus) with the scale function equal to
    ``w_plus * exp(k_plus * x) - w_minus * exp(k_minus * x)`` on x >= 0.

    The weights are the residues of 1/(psi(theta) - q) at the two roots.
    """
    if isinstance(model, BrownianMotion):
        mu, s2 = model.mu, model.sigma**2
        disc = math.sqrt(mu * mu + 2.0 * q * s2)
        # 1/(psi - q) = (2/s2) / ((theta - k_plus) (theta - k_minus))
        return (disc - mu) / s2, -(disc + mu) / s2, 1.0 / disc, 1.0 / disc
    p, lam, mu = model.p, model.lam, model.mu_claim
    # psi(theta) = q  <=>  p theta^2 + (p mu - lam - q) theta - q mu = 0
    b = p * mu - lam - q
    disc = math.sqrt(b * b + 4.0 * p * q * mu)
    kp = (-b + disc) / (2.0 * p)
    km = (-b - disc) / (2.0 * p)
    # 1/(psi - q) = (mu + theta) / (p (theta - k_plus) (theta - k_minus))
    return kp, km, (mu + kp) / (p * (kp - km)), (mu + km) / (p * (kp - km))


def scale_value(model: Model, q: float, x: float) -> float:
    if x < 0.0:
        return 0.0
    kp, km, wp, wm = exponent_roots_and_weights(model, q)
    return wp * math.exp(kp * x) - wm * math.exp(km * x)


def scale_derivative(model: Model, q: float, x: float) -> float:
    """Right derivative on x >= 0 (a.e. density for the compound Poisson
    model; its boundary mass never enters the convolutions below)."""
    kp, km, wp, wm = exponent_roots_and_weights(model, q)
    return wp * kp * math.exp(kp * x) - wm * km * math.exp(km * x)


def reduced_model(spec: ProblemSpec) -> Model:
    m = spec.model
    if isinstance(m, BrownianMotion):
        return BrownianMotion(m.mu - spec.delta, m.sigma)
    return CramerLundberg(m.p - spec.delta, m.lam, m.mu_claim)


def refracted_scale_by_convolution(spec: ProblemSpec, x: float, depth: float) -> float:
    """w(x; -depth) straight from the defining convolution: the surplus scale
    shifted by the depth plus delta times the convolution of the reduced-drift
    scale with the shifted scale density."""
    m, q, delta = spec.model, spec.q, spec.delta
    base = scale_value(m, q, x + depth)
    if x <= 0.0:
        return base
    reduced = reduced_model(spec)
    val, err = quad(
        lambda y: scale_value(reduced, q, x - y) * scale_derivative(m, q, y + depth),
        0.0,
        x,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    if err > 1e-9:
        raise RuntimeError(
            f"convolution oracle error estimate {err:.2e} at x={x}, depth={depth}"
        )
    return base + delta * val


class CramerLundbergWindowOracle:
    """High-precision ``V`` on ``x >= -p r`` for the compound Poisson model,
    straight from the defining window integral

        V(x) = int_0^{p r} w(x; -z) (z / r) P(X_r in dz),   X_r = p r - S_r,

    where the claims ``S_r`` over one delay window have an atom ``e^{-lam r}``
    at 0 plus the density ``e^{-lam r - mu s} sum_{n>=1} (lam r mu)^n
    s^{n-1} / (n! (n-1)!)``.  The surplus and reduced-premium scale functions
    are the residue sums ``sum_k e^{k x} / psi'(k)`` over the roots of
    ``psi = q``; ``w(x; -z) = W(x + z) + delta int_0^x Wr(x - y) W'(y + z) dy``
    is convolved exponential by exponential; below 0, ``w(x; -z) = W(x + z)``
    vanishes for ``z < -x``, so the window integral starts at ``z = -x``.  The
    integral is done by ``mpmath.quad`` on an integrand scaled to a rough size
    of the integral, which makes its error goal relative.  Takes plain numbers
    and shares no code with the package.  Results are mpf values computed at
    ``dps + 10`` digits; compare them inside ``mpmath.workdps``.
    """

    def __init__(self, p, lam, mu_claim, delta, q, r, dps: int = 30):
        import mpmath

        self.mp = mpmath
        self.dps = dps
        with mpmath.workdps(dps + 10):
            self.p, self.lam, self.mu, self.delta, self.q, self.r = (
                mpmath.mpf(v) for v in (p, lam, mu_claim, delta, q, r)
            )
            self.surplus = self._residue_terms(self.p)
            self.reduced = self._residue_terms(self.p - self.delta)
        self._kernel_cache = {}

    def _residue_terms(self, premium):
        """[(root, 1 / psi'(root))] for psi(t) = premium t - lam t / (mu + t)."""
        mp, lam, mu, q = self.mp, self.lam, self.mu, self.q
        # psi(t) = q  <=>  premium t^2 + (premium mu - lam - q) t - q mu = 0,
        # whose roots are real with opposite signs (their product is -q mu / premium)
        roots = mp.polyroots([premium, premium * mu - lam - q, -q * mu], extraprec=60)
        return [(k, 1 / (premium - lam * mu / (mu + k) ** 2)) for k in roots]

    def _refracted(self, x, z):
        """``w(x; -z)`` and its x-derivative for x >= 0, z > 0."""
        exp = self.mp.exp
        value = sum(a * exp(k * (x + z)) for k, a in self.surplus)
        slope = sum(a * k * exp(k * (x + z)) for k, a in self.surplus)
        # int_0^x e^{m (x - y)} e^{k (y + z)} dy = e^{k z} (e^{k x} - e^{m x}) / (k - m)
        for m, b in self.reduced:
            for k, a in self.surplus:
                c = self.delta * b * a * k * exp(k * z) / (k - m)
                value += c * (exp(k * x) - exp(m * x))
                slope += c * (k * exp(k * x) - m * exp(m * x))
        return value, slope

    def _kernel(self, z):
        """(z / r) times the claims density at ``p r - z``, memoized because
        every quadrature over [0, p r] reuses the same nodes.  With
        ``c = lam r mu`` the density's series is the Bessel function
        ``sqrt(c / s) I_1(2 sqrt(c s))`` (DLMF 10.25.2), which tends to c as
        s falls to 0."""
        if z not in self._kernel_cache:
            mp = self.mp
            s = self.p * self.r - z
            c = self.lam * self.r * self.mu
            total = mp.sqrt(c / s) * mp.besseli(1, 2 * mp.sqrt(c * s)) if s > 0 else c
            density = mp.exp(-self.lam * self.r - self.mu * s) * total
            self._kernel_cache[z] = z / self.r * density
        return self._kernel_cache[z]

    def _surplus(self, y):
        """``W(y)`` and ``W'(y)`` for y >= 0: ``w(x; -z) = W(x + z)`` when x < 0."""
        exp = self.mp.exp
        return (sum(a * exp(k * y) for k, a in self.surplus),
                sum(a * k * exp(k * y) for k, a in self.surplus))

    def _window(self, x, part: int):
        mp = self.mp
        with mp.workdps(self.dps + 10):
            x, pr = mp.mpf(x), self.p * self.r
            if x < -pr:
                raise ValueError(f"V vanishes below -p*r = {pr}, got {x}")
            if x >= 0:
                w = self._refracted
                lo = mp.mpf(0)
            else:
                # below 0 the refraction never acts inside the window, and the
                # displacement must lift the start back to 0: z >= -x
                def w(x, z):
                    return self._surplus(x + z)
                lo = -x
            atom = mp.exp(-self.lam * self.r) * self.p * w(x, pr)[part]

            def integrand(z):
                return w(x, z)[part] * self._kernel(z)

            # mpmath.quad stops at an absolute error near 10^-(dps+10), which
            # left a V as tiny as deep in the band right to a few digits only.
            # Divided by 10^10 times a rough size of the integral (its largest
            # sampled value times the length; 1 on an empty interval), the
            # integrand meets a goal of about 10^-dps relative to the integral.
            size = max(integrand(z) for z in mp.linspace(lo, pr, 9)) * (pr - lo)
            scale = mp.mpf(10) ** 10 * size or 1
            inner = scale * mp.quad(lambda z: integrand(z) / scale, [lo, pr])
            if part == 1 and x < 0:
                # the moving lower limit z = -x contributes W(0) * kernel(-x)
                inner += w(x, lo)[0] * self._kernel(lo)
            return atom + inner

    def value(self, x):
        return self._window(x, 0)

    def derivative(self, x):
        """Derivative in x; the right derivative at x = 0, where V' jumps."""
        return self._window(x, 1)

    def best_boundary_trigger(self, beta, upper):
        """The trigger c in (beta, upper) minimizing the boundary payout ratio
        ``g(0, c) = (V(c) - V(0)) / (c - beta)``.

        ``dg/dc`` has the sign of ``h(c) = V'(c) (c - beta) - (V(c) - V(0))``,
        which is negative at ``beta`` and must be positive at ``upper``; the
        root of h is found with a bracketing solver.
        """
        mp = self.mp
        with mp.workdps(self.dps + 10):
            beta, v0 = mp.mpf(beta), self.value(0)

            def h(c):
                return self.derivative(c) * (c - beta) - (self.value(c) - v0)

            return mp.findroot(
                h, (beta, mp.mpf(upper)), solver="anderson", tol=mp.mpf(10) ** -self.dps
            )


def reference_positive_pair(spec: ProblemSpec) -> tuple:
    """``(A, B, kp, km)`` with ``V = A e^{kp x} - B e^{km x}`` on x >= 0, as
    mpmath numbers, and the digits they carry.

    Brownian motion: the closed form of the window integral, roots included,
    at 50 digits.  Compound Poisson: ``V(0)`` and ``V'(0+)`` from
    :class:`CramerLundbergWindowOracle` at 25 digits, with the refracted roots
    ``kp > km`` of its residue sums; as ``V = A e^{kp x} - B e^{km x}``,
    ``A = (V'(0) - km V(0)) / (kp - km)`` and ``B = (V'(0) - kp V(0)) / (kp - km)``.
    Nothing comes from the package.
    """
    import mpmath as mp

    m = spec.model
    if isinstance(m, CramerLundberg):
        oracle = CramerLundbergWindowOracle(m.p, m.lam, m.mu_claim, spec.delta, spec.q, spec.r,
                                            dps=25)
        with mp.workdps(35):
            v0, d0 = oracle.value(0), oracle.derivative(0)
            kp, km = sorted((k for k, _ in oracle.reduced), reverse=True)
            return (d0 - km * v0) / (kp - km), (d0 - kp * v0) / (kp - km), kp, km, 25
    with mp.workdps(50):
        mu, sigma, q, r = (mp.mpf(v) for v in (m.mu, m.sigma, spec.q, spec.r))
        s2 = sigma**2
        disc = mp.sqrt(mu**2 + 2 * q * s2)  # the surplus roots are (-mu +- disc) / s2
        drift = mu - spec.delta
        disc_y = mp.sqrt(drift**2 + 2 * q * s2)
        kp, km = (disc_y - drift) / s2, -(disc_y + drift) / s2
        eqr = mp.exp(q * r)
        # int W' against the window's Gaussian displacement, W the surplus scale function
        i1 = (2 / mp.sqrt(2 * mp.pi * s2 * r) * mp.exp(-r * mu**2 / (2 * s2))
              + (disc - mu) / s2 * eqr - 2 * disc / s2 * eqr * mp.ncdf(-mp.sqrt(r / s2) * disc))
        return (i1 - eqr * km) / (kp - km), (i1 - eqr * kp) / (kp - km), kp, km, 50


def reference_optimum(spec: ProblemSpec, case: str, c1: float, c2: float) -> tuple:
    """``(c1*, c2*, g*)`` as floats from :func:`reference_positive_pair`,
    solved with ``mpmath.findroot`` from the start ``(c1, c2)`` in the given
    case: ``V'(c1) = V'(c2)`` and ``G = V(c2) - V(c1) - V'(c1) (c2 - c1 - beta) = 0``
    (interior), or ``h = V'(c2) (c2 - beta) - (V(c2) - V(0)) = 0`` with ``c1 = 0``
    (boundary).  V is divided by ``V(0)`` for the solve, so that its tolerance
    is relative, and g* scaled back."""
    import mpmath as mp

    a, b, kp, km, dps = reference_positive_pair(spec)
    with mp.workdps(dps + 10):
        v0 = a - b
        a, b, beta = a / v0, b / v0, mp.mpf(spec.beta)

        def v(x):
            return a * mp.exp(kp * x) - b * mp.exp(km * x)

        def d(x):
            return a * kp * mp.exp(kp * x) - b * km * mp.exp(km * x)

        if case == "interior":
            c1, c2 = mp.findroot(
                lambda s, t: (d(s) - d(t), v(t) - v(s) - d(s) * (t - s - beta)),
                (mp.mpf(c1), mp.mpf(c2)))
        else:
            c1, c2 = 0, mp.findroot(lambda t: d(t) * (t - beta) - (v(t) - 1), mp.mpf(c2))
        return float(c1), float(c2), float(d(c2) * v0)


def regularized_lower_gamma(order: int, x: float) -> float:
    """Regularized lower incomplete gamma P(order, x) for integer order >= 1.

    Two cancellation-free branches: for ``order <= x`` subtract the short
    Poisson head from 1 (the head is at most ~0.6 there); for ``order > x``
    sum the all-positive Poisson tail directly.  Each branch starts from its
    largest term, computed in log space, so neither can overflow and an
    ``e^{-x}`` that underflows on its own (x > 745) does no harm.
    """
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    if x <= 0.0:
        return 0.0
    if order <= x:
        # P = 1 - e^{-x} sum_{k < order} x^k / k!, summed down from k = order - 1,
        # the largest term since x / k >= 1 below it
        term = math.exp((order - 1) * math.log(x) - x - math.lgamma(order))
        head = term
        for k in range(order - 1, 0, -1):
            term *= k / x
            head += term
            if term <= 1e-17 * head:
                break
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


def _log_gamma_terms(x: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``log P(m+1, x)`` and ``log(e^{-x} x^m / m!)`` for ``m = 0 .. n-1``
    and ``x >= 0``.

    ``P(m+1, x)`` is the Poisson tail ``sum_{k > m} e^{-x} x^k / k!``
    (DLMF 8.4.10): one pmf, summed from the far end, where it has fallen
    by ``e^{-50}`` below its mode.  A sum of positive terms has no
    cancellation on either side of ``m = x``; a ``P`` that underflows
    gives ``-inf``.  Call inside ``np.errstate(divide="ignore",
    invalid="ignore")``.
    """
    reach = max(n, math.ceil(x))
    k, log_k_factorial = _log_factorials(reach + 10 * math.isqrt(reach) + 10)
    log_pmf = k * np.log(x) - x - log_k_factorial
    log_pmf[0] = -x  # not 0 * log(0) at x = 0
    tail = np.exp(log_pmf[:0:-1]).cumsum()[::-1]
    return np.log(tail[:n]), log_pmf[:n]


def band_sums_by_gamma_tail(ps: ParisianScale, u: float, with_derivative: bool):
    """The two bracketed incomplete-gamma series, each times its prefactor
    ``e^{-lam*r + rate*u}``, and (optionally) their u-derivatives.

    For ``(rate, other)`` = ``(q_plus, q_minus)``, then ``(q_minus, q_plus)``:
    base = p*r*(other + mu), c = rate + mu, and
    S(u)  = sum_m base^m / (m! (m+1)!) * gamma(m+1, u*c) * [p*r*c - (m+1)].

    Each term is exponentiated once, from the sum of its logs and the
    prefactor's, so a huge ``base^m / (m+1)!`` meets a tiny
    ``P(m+1, u*c)`` or ``e^{-lam*r}`` before either leaves the double
    range: the folded sums are of the size of V itself.
    """
    spec = ps.spec
    X = ps.coefficient_set.surplus
    pr = spec.model.p * spec.r
    mu = spec.model.mu_claim
    log_elr = -spec.model.lam * spec.r
    sums = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rate, other in ((X.kp, X.km), (X.km, X.kp)):
            base = pr * (other + mu)
            c = rate + mu
            # terms peak near m = base where P ~ 1, and near sqrt(base*u*c) below
            n = _term_budget(max(base, math.sqrt(base * pr * c)))
            m, log_m_factorial = _log_factorials(n + 1)
            # log(e^{-lam*r + rate*u} base^m / (m+1)!) and the bracket, m = 0 .. n-1
            log_a = m[:-1] * math.log(base) + (rate * u + log_elr - log_m_factorial[1:])
            bracket = pr * c - m[1:]
            log_p, log_pmf = _log_gamma_terms(u * c, n)
            terms = np.exp(log_a + log_p) * bracket
            total = float(terms.sum())
            last = max(abs(terms[-1]), abs(terms[-2]))
            total_d = 0.0
            if with_derivative:
                # d/du P(m+1, u*c) = c * e^{-uc} (uc)^m / m!
                terms_d = np.exp(log_a + log_pmf) * (c * bracket)
                total_d = float(terms_d.sum())
                last = max(last, abs(terms_d[-1]), abs(terms_d[-2]))
            if not (math.isfinite(total) and math.isfinite(total_d)):
                raise OverflowRangeError(
                    f"bracketed gamma series leaves the double range (base {base:.6g})"
                )
            if last >= SERIES_RTOL * max(abs(total), abs(total_d), 1e-300):
                raise SeriesConvergenceError(
                    f"bracketed gamma series did not converge within {n} terms"
                )
            sums.append((total, total_d))
    return sums


def band_by_gamma_tail(ps: ParisianScale, x: float, with_derivative: bool = False) -> float:
    """V, or V', at a band point ``-p*r <= x < 0`` from
    ``band_sums_by_gamma_tail``: the two series plus ``e^{-lam*r} p W(u)``,
    ``u = x + p*r``, as the package evaluated the band before its per-spec
    coefficient table."""
    spec = ps.spec
    m = spec.model
    X = ps.coefficient_set.surplus
    u = x + m.p * spec.r
    (f_plus, d_plus), (f_minus, d_minus) = band_sums_by_gamma_tail(ps, u, with_derivative)
    e_p = math.exp(X.kp * u - m.lam * spec.r)
    e_m = math.exp(X.km * u - m.lam * spec.r)
    a_plus = m.p * X.a
    a_minus = m.p * X.b
    if not with_derivative:
        # e^{-lam*r} p W(u) = a_plus*e_p - a_minus*e_m
        return a_plus * e_p - a_minus * e_m + a_minus * f_plus - a_plus * f_minus
    slope = (X.kp * (a_plus * e_p + a_minus * f_plus)
             - X.km * (a_minus * e_m + a_plus * f_minus))
    return slope + a_minus * d_plus - a_plus * d_minus


class WindowConstantScale(ParisianScale):
    """A ``ParisianScale`` whose series constant C is the band table's two
    ``rate D_k`` rows summed at ``x = 0`` plus the window claims density at
    ``p*r`` from its own series: the build's one three-row sum (C) loses its
    density row to ``CompoundPoissonWindow.density``."""

    def _band_point(self, x: float, log_coef: np.ndarray, sign: np.ndarray) -> float:
        if log_coef.shape[0] != 3:  # V or V' at a band point
            return super()._band_point(x, log_coef, sign)
        slope = super()._band_point(x, log_coef[:2], sign[:2])
        m = self.spec.model
        window = CompoundPoissonWindow(m.lam, m.mu_claim, self.spec.r)
        return slope + window.density(m.p * self.spec.r)


def series_constant_by_window(spec: ProblemSpec) -> float:
    """C of a compound Poisson spec by the window density route; raises as
    that route's build raises."""
    return WindowConstantScale(spec).series_constant


SEARCH_DERIVATIVE_FACTOR = 10.0


def _slopes(pair, x: float) -> tuple[float, float]:
    """V' and V'' of the two-exponential branch at one point, by ``math.exp``."""
    ep = pair.a * math.exp(pair.kp * x)
    em = pair.b * math.exp(pair.km * x)
    return pair.kp * ep - pair.km * em, pair.kp**2 * ep - pair.km**2 * em


def search_bound(ps: ParisianScale) -> float:
    """The point ``c >= a*`` where V' has grown to ``SEARCH_DERIVATIVE_FACTOR``
    times its least value ``V'(a*)`` on x >= 0: the right end of criterion
    6's brute-force grid, by the optimizer's bracketed root on this module's
    own ``math.exp`` reads of V' (``_slopes``), not the optimizer's."""
    pair = ps.positive_pair
    a_star = pair.derivative_argmin()
    d_min = _slopes(pair, a_star)[0]
    level = SEARCH_DERIVATIVE_FACTOR * d_min
    if level <= d_min:
        return a_star

    def f(x: float) -> tuple[float, float]:
        d1, d2 = _slopes(pair, x)
        return d1 - level, d2

    return _find_root(f, a_star, EXP_ARG_MAX / pair.kp, 1.0 / pair.kp)[0]


def brute_force_payout_grid(
    ps: ParisianScale, x_max: float, step: float = 1e-3
) -> tuple[float, float, float]:
    """Exact grid minimum of g with the given step (test oracle), in O(n log n).

    For a lower level ``x_i``, ``g = (V_j - V_i) / (x_j - x_i - beta)`` is the
    slope from ``(x_i + beta, V_i)`` to ``(x_j, V_j)``, so its least value over
    the admissible ``j`` (gap ``> 1e-12``, a suffix of the grid) sits at the
    tangent from that point to the lower convex hull of those points.  The
    sweep runs ``i`` from right to left and pushes each newly admissible point
    onto the hull (monotone chain), then finds the tangent by bisection: the
    slope falls and then rises along the hull (Preparata and Shamos, 1985,
    *Computational Geometry*, ch. 3).  Same grid, V values, admissibility rule
    and ``g`` arithmetic as :func:`brute_force_payout_table`, which checks it;
    ties go to the least ``i``, then the least ``j``, as there.
    """
    beta = ps.spec.beta
    n = int(math.floor(x_max / step)) + 1
    grid = np.arange(n, dtype=float) * step
    xs, vs = grid.tolist(), ps.positive_pair.value(grid).tolist()
    hull: list[int] = []  # the lower hull of the admitted points, leftmost last
    best = (math.inf, 0.0, 0.0)
    j = n
    for i in range(n - 1, -1, -1):
        xi, vi = xs[i], vs[i]
        while j > 0 and xs[j - 1] - xi - beta > 1e-12:
            j -= 1
            # drop the leftmost hull point while it is not strictly below the
            # segment from the new point to the one after it
            while len(hull) >= 2 and not ((vs[hull[-1]] - vs[j]) / (xs[hull[-1]] - xs[j])
                                          < (vs[hull[-2]] - vs[hull[-1]])
                                          / (xs[hull[-2]] - xs[hull[-1]])):
                hull.pop()
            hull.append(j)
        if not hull:
            continue

        def g(k: int) -> float:  # the slope to the k-th hull point from the left
            h = hull[-1 - k]
            return (vs[h] - vi) / (xs[h] - xi - beta)

        lo, hi = 0, len(hull) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if g(mid + 1) < g(mid):
                lo = mid + 1
            else:
                hi = mid
        if g(lo) <= best[0]:
            best = (g(lo), xi, xs[hull[-1 - lo]])
    return best


def brute_force_payout_table(
    ps: ParisianScale, x_max: float, step: float = 1e-3
) -> tuple[float, float, float]:
    """Exhaustive grid minimum of g with the given step: the check of
    :func:`brute_force_payout_grid`, on every admissible pair.

    Chunked over the lower boundary so the full pair table never
    materializes.  The gap ``upper - lower - beta`` falls as the lower level
    rises, so the columns a chunk's first row cannot use (gap <= 1e-12) are
    inadmissible for the whole chunk and are never formed; the remaining
    block is computed into buffers reused across chunks.
    """
    beta = ps.spec.beta
    n = int(math.floor(x_max / step)) + 1
    grid = np.arange(n, dtype=float) * step
    vals = ps.positive_pair.value(grid)
    best = (math.inf, 0.0, 0.0)
    chunk = max(1, int(1e7) // n)
    gap_buf, g_buf = np.empty(chunk * n), np.empty(chunk * n)
    bad_buf = np.empty(chunk * n, dtype=bool)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        admissible = grid - grid[start] - beta > 1e-12
        if not admissible.any():
            break  # later chunks start higher and admit even fewer columns
        lo = int(np.argmax(admissible))
        shape = (stop - start, n - lo)
        size = shape[0] * shape[1]
        gap = gap_buf[:size].reshape(shape)
        g = g_buf[:size].reshape(shape)
        bad = bad_buf[:size].reshape(shape)
        np.subtract(grid[None, lo:], grid[start:stop, None], out=gap)
        np.subtract(gap, beta, out=gap)
        np.subtract(vals[None, lo:], vals[start:stop, None], out=g)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(g, gap, out=g)
        np.less_equal(gap, 1e-12, out=bad)
        np.copyto(g, np.inf, where=bad)
        i, j = np.unravel_index(int(np.argmin(g)), shape)
        if g[i, j] < best[0]:
            best = (float(g[i, j]), float(grid[start + i]), float(grid[lo + j]))
    return best


# ---------------------------------------------------------------------------
# Certificate grids and the refracted scale derivative
# ---------------------------------------------------------------------------


def check_sufficiency_pair_by_grid(
    ps: ParisianScale, upper: float, tol: float = 1e-9, grid_n: int = 2000
) -> SufficiencyReport:
    """V' nondecreasing on [upper, far], scanned on ``grid_n`` points.

    The closed form gives the exact argmin of V'; the grid double-checks the
    monotonicity numerically out to where V' has grown far past its minimum.
    """
    pair = ps.positive_pair
    a_star = pair.derivative_argmin()
    far = max(upper + 10.0, 3.0 * max(a_star, 1.0))
    dv = pair.derivative(np.linspace(upper, far, grid_n))  # past the pair's edge this raises
    worst = float(np.min(np.diff(dv)))
    passed = upper >= a_star - 1e-12 and worst >= -tol
    return SufficiencyReport(passed=passed, worst_slack=worst, derivative_argmin=a_star)


def check_unimodal_by_grid(ps: ParisianScale, hi: float = 20.0, n: int = 2000) -> tuple[bool, str]:
    """V' falls before its argmin and rises after it, scanned on (0, hi]."""
    a_star = ps.positive_pair.derivative_argmin()
    xs = np.linspace(1e-6, hi, n)
    vals = ps.positive_pair.derivative(xs)  # past the pair's edge this raises
    tol = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    left = xs <= a_star
    worst_left = float(np.max(np.diff(vals[left]))) if np.count_nonzero(left) > 1 else 0.0
    worst_right = float(np.min(np.diff(vals[~left]))) if np.count_nonzero(~left) > 1 else 0.0
    ok = worst_left <= tol and worst_right >= -tol
    return ok, f"argmin={a_star:.6g} worst_rise_before={worst_left:.2e} worst_drop_after={worst_right:.2e}"


TRANSFER_GRID_N = 200  # points per axis of the transfer table on [0, 2*upper]


def check_transfer_inequality_by_grid(ps: ParisianScale, policy: ImpulsePolicy) -> TransferReport:
    """v(x) - v(y) >= x - y - beta for 0 <= y <= x on a grid.

    The worst margin over the ordered pairs of ``TRANSFER_GRID_N`` points on
    [0, 2*upper]; the package takes the exact minimum over a few candidate
    pairs instead.
    """
    beta = ps.spec.beta
    xs = np.linspace(0.0, 2.0 * policy.upper, TRANSFER_GRID_N)
    v = value_function(ps, policy, xs)
    margin = v[:, None] - v[None, :] - (xs[:, None] - xs[None, :] - beta)
    margin[xs[:, None] < xs[None, :]] = np.inf  # only ordered pairs y <= x
    flat = int(np.argmin(margin))
    i, j = np.unravel_index(flat, margin.shape)
    worst = float(margin[i, j])
    return TransferReport(
        passed=worst >= -TRANSFER_TOL,
        worst_margin=worst,
        worst_x=float(xs[i]),
        worst_y=float(xs[j]),
    )


def refracted_scale_derivative(cs: CoefficientSet, x: float, depth: float) -> float:
    """d/dx of ``w(x; -depth)``.

    For the bounded-variation model the derivative jumps at 0 and is left
    undefined there (``UndefinedDerivativeError``); for Brownian motion the
    two one-sided limits agree.
    """
    if x == 0.0 and isinstance(cs.spec.model, CramerLundberg):
        raise UndefinedDerivativeError(
            "refracted scale derivative jumps at 0 for the bounded-variation model"
        )
    if x < 0.0:
        return ScaleFunction(cs.surplus, cs.spec.q).derivative(x + depth)
    return refracted_pair(cs, depth).derivative(x)


def refracted_derivative_argmin(cs: CoefficientSet, depth: float) -> float:
    """Argmin over [0, inf) of the refracted scale derivative in x.

    Closed form from the two-exponential representation; 0 when the
    decreasing component is absent.
    """
    return refracted_pair(cs, depth).derivative_argmin()


# ---------------------------------------------------------------------------
# Single-path reference simulators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathOutcome:
    """Terminal state of a single simulated path."""

    value: float
    time: float
    reason: str  # "hit" | "ruin" | "censored"


def parisian_clock(times: np.ndarray, values: np.ndarray, delay: float) -> float | None:
    """First sample time at which the path has spent ``delay`` or more below zero.

    Works on a sampled path (per-step convention): the excursion clock counts
    from the last sample at or above zero, or from the first sample if the path
    starts negative.  Returns None when no excursion completes.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size == 0:
        raise ValueError("times and values must be matching 1-D arrays")
    anchor = np.where(values >= 0.0, times, -np.inf)
    anchor[0] = times[0] if values[0] < 0.0 else anchor[0]
    last_ok = np.maximum.accumulate(anchor)
    ruined = (values < 0.0) & (times - last_ok >= delay)
    hits = np.flatnonzero(ruined)
    return float(times[hits[0]]) if hits.size else None


def simulate_refracted_path(spec: ProblemSpec, x0: float, barrier: float | None,
                            config: SimulationConfig,
                            rng: np.random.Generator | None = None,
                            record_path: bool = False):
    """Simulate one refracted path until it exits above ``barrier``, is ruined,
    or reaches the horizon.

    Returns a :class:`PathOutcome`; with ``record_path`` also returns the
    sampled (times, values) arrays (per step for the Brownian scheme, per event
    for the compound Poisson one).
    """
    gen = rng if rng is not None else np.random.default_rng(config.seed)
    dt, t_max = config.resolve(spec)
    if isinstance(spec.model, BrownianMotion):
        outcome, ts, us = _single_brownian(spec, x0, barrier, dt, t_max, gen)
    else:
        outcome, ts, us = _single_cl(spec, x0, barrier, t_max, gen)
    if record_path:
        return outcome, np.asarray(ts), np.asarray(us)
    return outcome


def _single_brownian(spec, x0, barrier, dt, t_max, gen):
    model = spec.model
    mu, sigma, delta, r = model.mu, model.sigma, spec.delta, spec.r
    sig_dt = sigma * math.sqrt(dt)
    u, t, exc = float(x0), 0.0, 0.0
    ts, us = [0.0], [u]
    if barrier is not None and u >= barrier:
        return PathOutcome(u, 0.0, "hit"), ts, us
    n_steps = int(math.ceil(t_max / dt))
    for step in range(n_steps):
        drift = mu - (delta if u > 0.0 else 0.0)
        u += drift * dt + sig_dt * float(gen.standard_normal())
        t = (step + 1) * dt
        ts.append(t)
        us.append(u)
        exc = exc + dt if u < 0.0 else 0.0
        if barrier is not None and u >= barrier:
            return PathOutcome(u, t, "hit"), ts, us
        if exc >= r:
            return PathOutcome(u, t, "ruin"), ts, us
    return PathOutcome(u, t, "censored"), ts, us


def _single_cl(spec, x0, barrier, t_max, gen):
    model = spec.model
    p, lam, mu_c = model.p, model.lam, model.mu_claim
    slope_up = p - spec.delta
    r = spec.r
    u, t = float(x0), 0.0
    deadline = t + r if u < 0.0 else math.inf
    ts, us = [0.0], [u]
    if barrier is not None and u >= barrier:
        return PathOutcome(u, 0.0, "hit"), ts, us
    while True:
        e = float(gen.exponential(1.0 / lam))
        c = float(gen.exponential(1.0 / mu_c))
        t_claim = t + e
        t_stop = min(t_claim, t_max)
        if u < 0.0:
            t_rec = t + (0.0 - u) / p
            if deadline < t_rec and deadline <= t_stop:
                ts.append(deadline)
                us.append(u + p * (deadline - t))
                return PathOutcome(us[-1], deadline, "ruin"), ts, us
            if t_rec <= t_stop:
                ts.append(t_rec)
                us.append(0.0)
                u, t, deadline = 0.0, t_rec, math.inf
            else:
                if t_claim > t_max:
                    return PathOutcome(u + p * (t_max - t), t_max, "censored"), ts, us
                u += p * (t_claim - t) - c
                t = t_claim
                ts.append(t)
                us.append(u)
                continue
        if barrier is not None:
            t_hit = t + (barrier - u) / slope_up
            if t_hit <= t_stop:
                ts.append(t_hit)
                us.append(barrier)
                return PathOutcome(barrier, t_hit, "hit"), ts, us
        if t_claim > t_max:
            return PathOutcome(u + slope_up * (t_max - t), t_max, "censored"), ts, us
        u += slope_up * (t_claim - t) - c
        t = t_claim
        ts.append(t)
        us.append(u)
        if u < 0.0 and deadline == math.inf:
            deadline = t + r


def brownian_block(spec: ProblemSpec, x: float, upper: float, lower: float | None,
                   dt: float, t_max: float, gen: np.random.Generator, n_paths: int,
                   antithetic: bool) -> tuple[np.ndarray, int, int]:
    """Payoffs of one block of paths, with the raw and censored path counts.

    With ``lower`` None a touch of ``upper`` pays ``exp(-q t)`` and absorbs the
    path (exit functional); otherwise it pays the surplus down to ``lower`` at
    cost ``spec.beta`` and the path goes on (impulse policy NPV).
    """
    model = spec.model
    assert isinstance(model, BrownianMotion)
    n_pairs, n = _block_size(n_paths, antithetic)
    value, x0 = _start_payment(spec, x, upper, lower, n)
    if lower is None and x0 >= upper:
        return _pair_average(value + 1.0, antithetic), n, 0

    u = np.full(n, x0)
    exc = np.zeros(n)  # current excursion length; starts counting at time zero
    idx = np.arange(n)
    sig_dt = model.sigma * math.sqrt(dt)
    mu, delta, q, r = model.mu, spec.delta, spec.q, spec.r
    n_steps = int(math.ceil(t_max / dt))

    for step in range(n_steps):
        if idx.size == 0:
            break
        t = (step + 1) * dt
        if antithetic:
            z_full = gen.standard_normal(n_pairs)
            z_full = np.concatenate([z_full, -z_full])
            z = z_full[idx]
        else:
            z = gen.standard_normal(idx.size)
        # drift indicator from the step start, barrier and clock at step end
        u += (mu - delta * (u > 0.0)) * dt + sig_dt * z
        pay = u >= upper
        if pay.any():
            if lower is None:
                value[idx[pay]] = math.exp(-q * t)
            else:
                # the Euler step can overshoot the trigger; pay the whole excess
                net = u[pay] - lower - spec.beta
                assert lower >= 0.0 and float(net.min()) > 0.0
                value[idx[pay]] += math.exp(-q * t) * net
                u[pay] = lower
        # an absorbed path is dropped below before its clock is read again
        exc = np.where(u < 0.0, exc + dt, 0.0)
        done = exc >= r
        if lower is None:
            done |= pay
        if done.any():
            keep = ~done
            u, exc, idx = u[keep], exc[keep], idx[keep]
    return _pair_average(value, antithetic), n, idx.size


def _draw_uniform_pair(gen: np.random.Generator, n_pairs: int, antithetic: bool,
                       n_plain: int) -> np.ndarray:
    """One round of uniforms: mirrored across the half-blocks when antithetic.

    Antithetic draws cover the full block every round (dead paths included) so
    the two halves stay aligned event for event.
    """
    if antithetic:
        u = gen.random(n_pairs)
        u = np.concatenate([u, 1.0 - u])
    else:
        u = gen.random(n_plain)
    return np.clip(u, _U_LO, _U_HI)


def cl_block(spec: ProblemSpec, x: float, upper: float, lower: float | None,
             t_max: float, gen: np.random.Generator, n_paths: int,
             antithetic: bool) -> tuple[np.ndarray, int, int]:
    """Payoffs of one block of paths, with the raw and censored path counts.

    ``lower`` selects the functional as in :func:`brownian_block`.  A payment
    returns the path to ``lower``, from where it may reach ``upper`` again
    before the next claim, so payments come in evenly spaced chains.
    """
    model = spec.model
    assert isinstance(model, CramerLundberg)
    n_pairs, n = _block_size(n_paths, antithetic)
    p, lam, mu_c = model.p, model.lam, model.mu_claim
    slope_up = p - spec.delta
    q, r = spec.q, spec.r
    value, x0 = _start_payment(spec, x, upper, lower, n)
    if lower is not None:
        net = upper - lower - spec.beta
        tau = (upper - lower) / slope_up  # spacing of back-to-back payments
        disc_tau = math.expm1(-q * tau)

    u = np.full(n, x0)
    t = np.zeros(n)
    # time at which the running excursion turns into ruin; inf while at or above 0
    deadline = np.where(u < 0.0, r, np.inf)
    idx = np.arange(n)
    n_censored = 0

    while idx.size:
        live = idx.size
        ue = _draw_uniform_pair(gen, n_pairs, antithetic, live)
        uc = _draw_uniform_pair(gen, n_pairs, antithetic, live)
        if antithetic:
            ue, uc = ue[idx], uc[idx]
        t_claim = t - np.log(ue) / lam
        claim = -np.log(uc) / mu_c
        t_stop = np.minimum(t_claim, t_max)

        below = u < 0.0
        t_rec = np.where(below, t + (0.0 - u) / p, t)
        ruined = below & (deadline < t_rec) & (deadline <= t_stop)
        recovers = below & ~ruined & (t_rec <= t_stop)

        # paths at or above zero, plus the ones that recover this round
        u_eff = np.where(recovers, 0.0, u)
        t_eff = np.where(recovers, t_rec, t)
        upper_track = ~below | recovers
        t_hit = np.where(upper_track, t_eff + (upper - u_eff) / slope_up, np.inf)
        pays = upper_track & (t_hit <= t_stop)  # payment wins claim-time ties
        done = ruined
        if lower is None:
            if pays.any():
                value[idx[pays]] = np.exp(-q * t_hit[pays])
            done = done | pays
        elif pays.any():
            assert lower >= 0.0 and net > 0.0
            # whole chain of evenly spaced payments inside this claim interval
            k = np.floor((t_stop[pays] - t_hit[pays]) / tau).astype(np.int64) + 1
            chain = np.exp(-q * t_hit[pays]) * np.expm1(-q * tau * k) / disc_tau
            value[idx[pays]] += net * chain
            u_eff[pays] = lower
            t_eff[pays] = t_hit[pays] + (k - 1) * tau

        censored = ~done & (t_claim > t_max)
        n_censored += int(np.count_nonzero(censored))
        done = done | censored

        cont = ~done
        if not cont.any():
            break
        still_below = below[cont] & ~recovers[cont]
        drift = np.where(still_below, p, slope_up)
        u_new = u_eff[cont] + drift * (t_claim[cont] - t_eff[cont]) - claim[cont]
        went_below = u_new < 0.0
        # a fresh excursion starts at the claim; an ongoing one keeps its deadline
        deadline_new = np.where(
            went_below & ~still_below, t_claim[cont] + r,
            np.where(went_below, deadline[cont], np.inf),
        )
        u, t, deadline, idx = u_new, t_claim[cont], deadline_new, idx[cont]
    return _pair_average(value, antithetic), n, n_censored

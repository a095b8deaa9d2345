"""The Parisian refracted scale function V and its ingredients.

``V(x)`` is the expected discount factor collected on reaching an upper level
before Parisian ruin, normalized so that the two-sided exit identity reads
``E_x[e^{-q T_a} ; T_a before ruin] = V(x) / V(a)``.  It is the integral of
the refracted scale function ``w(x; -z)`` against the displaced surplus law
over one delay window:

* Brownian motion displaces by a Gaussian, and V has a closed form with
  normal CDF tails below 0 and a two-exponential branch above 0;
* Cramer-Lundberg displaces by ``p*r`` minus a compound Poisson sum of
  exponential claims, and V needs one scalar series constant C plus two
  bracketed incomplete-gamma series on the middle band ``[-p*r, 0)``.  Both
  come from a table of log-space coefficients built once per spec
  (``_band_table``): a band point, and C at ``x = 0``, is one Poisson log-pmf
  row against it, an array a few blocks of rows, bit for bit equal.  Every
  term is exponentiated from its log: only a V out of the double range
  overflows.  A table entry carries a bound on its terms inside the band, and
  where it keeps every sum in range a scalar read needs no errstate guard.

On x >= 0 a scalar V or V' is one ``ExponentialPair.at`` read of the double x
converts to, bit for bit the array route.  The closed forms use NumPy and
``math`` only (normal CDF tails: ``math.erfc`` and a Mills-ratio expansion);
this module imports only ``errors`` and ``models``, and the window integral
``quadrature.quadrature_value`` is the route that checks them.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    OverflowRangeError,
    SeriesConvergenceError,
    UndefinedDerivativeError,
)
from .models import (
    _LOG_TERM_MAX,
    SPEC_CACHE_SIZE,
    ArrayLike,
    BrownianMotion,
    CramerLundberg,
    ExponentialPair,
    ProblemSpec,
    compute_coefficients,
)

SERIES_RTOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_ROOT = -0.5 * math.log(2.0 * math.pi)  # log of the normal density's factor
_SIDES = np.array([[1.0], [-1.0]])  # the q_plus and q_minus variants' signs
_BAND_BLOCK = 2**14  # most band terms in one block of points: 128 KB an array ran fastest
BAND_MAX_TERMS = 10**6  # under 1 s and 0.3 GB to build; the benchmark box needs a few thousand

# (k, log k!) for k < its length; shared by every spec, grown on demand and
# replaced as one tuple so a reader never pairs tables of different lengths
_FACTORIAL_TABLE = (np.zeros(0), np.zeros(0))


def _log_factorials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``k`` and ``log k!`` for ``k = 0 .. n-1``."""
    global _FACTORIAL_TABLE
    k, log_k_factorial = _FACTORIAL_TABLE
    if len(k) < n:
        size = max(n, 2 * len(k), 256)
        k = np.arange(float(size))
        log_k_factorial = np.array([math.lgamma(i + 1.0) for i in range(size)])
        _FACTORIAL_TABLE = (k, log_k_factorial)
    return k[:n], log_k_factorial[:n]


def _log(product: float, name: str) -> float:
    """``log(product)`` of positive numbers; NumericalError where it underflows to 0."""
    if product == 0.0:
        raise NumericalError(f"{name} underflows to 0 in doubles")
    return math.log(product)


def _term_budget(peak: float) -> int:
    """Terms for a series whose terms peak near index ``peak`` and fall off
    like a Gaussian of width about ``sqrt(peak)`` beyond it."""
    return int(peak + 10.0 * math.sqrt(peak)) + 30


def _mills_series(x: float) -> float:
    """``sum_k (-1)^k (2k-1)!! / x^{2k}`` for ``x <= -20``, so that
    ``Phi(x) = phi(x) / |x|`` times the sum (DLMF 7.12.1)."""
    inv = 1.0 / (x * x)
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * total:
        k += 1
        term *= -(2 * k - 1) * inv
        total += term
    return total


def _ndtr(x: float) -> float:
    """Standard normal CDF.

    ``erfc`` loses about ``x^2`` ulps to the rounding of its argument; beyond
    ``|x| = 20`` the Mills-ratio expansion loses about half as many.
    """
    if x < -20.0:
        return math.exp(-0.5 * x * x) * _mills_series(x) / (-x * _SQRT_2PI)
    return 0.5 * math.erfc(-x / _SQRT2)


def _log_ndtr(x: float) -> float:
    """Log of the standard normal CDF, accurate in both tails."""
    if x > 20.0:
        # log(1 - t) = -t to double precision for t = Phi(-x) < 1e-88
        return -_ndtr(-x)
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    return -0.5 * x * x - math.log(-x * _SQRT_2PI) + math.log(_mills_series(x))


class ParisianScale:
    """Closed-form Parisian refracted scale function for one problem spec.

    Everything reusable (scale coefficients, the positive-side exponential
    pair, and for Cramer-Lundberg the series constant C) is computed once at
    construction.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.coefficient_set = compute_coefficients(spec)
        self._is_cl = isinstance(spec.model, CramerLundberg)
        self.series_constant: Optional[float] = None
        try:
            if self._is_cl:  # p*r and mu as floats: the band point reads them per call
                self._pr, self._mu = spec.model.p * spec.r, spec.model.mu_claim
                self._band_k, self._band_terms = self._band_table()
                self.series_constant = self._band_point(0.0, *self._band_terms[2])
                self.positive_pair = self._positive_pair_cl()
            else:
                self.positive_pair = self._positive_pair_brownian()
        except (OverflowError, OverflowRangeError) as exc:
            # exp(q*r) = V(0), or a series of a long window
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
        disc = 0.5 * s2 * (X.kp - X.km)  # sqrt(mu^2 + 2 q sigma^2)
        self._tails = (X.kp, X.km, spec.r * disc, m.sigma * math.sqrt(spec.r), spec.q * spec.r)
        eqr = math.exp(spec.q * spec.r)
        if 2.0 * math.pi * s2 * spec.r == 0.0:  # 2 / sqrt of it below
            raise NumericalError("2*pi*sigma**2*r underflows to 0 in doubles")
        # integral of W' against the window displacement law
        i1 = (
            2.0 / math.sqrt(2.0 * math.pi * s2 * spec.r) * math.exp(-spec.r * m.mu**2 / (2.0 * s2))
            + X.kp * eqr
            - (X.kp - X.km) * eqr * _ndtr(-math.sqrt(spec.r) * disc / m.sigma)
        )
        span = Y.kp - Y.km
        return ExponentialPair(
            (i1 - eqr * Y.km) / span,
            (i1 - eqr * Y.kp) / span,
            Y.kp,
            Y.km,
        )

    def _positive_pair_cl(self) -> ExponentialPair:
        spec = self.spec
        m = spec.model
        assert isinstance(m, CramerLundberg)
        Y = self.coefficient_set.refracted
        p_y = m.p - spec.delta
        eqr = math.exp(spec.q * spec.r)
        d = (spec.q + m.lam) * eqr - m.p * self.series_constant
        g = d / (p_y * (Y.kp - Y.km))
        return ExponentialPair(
            eqr * p_y * Y.a - g,
            eqr * p_y * Y.b - g,
            Y.kp,
            Y.km,
        )

    # ---------- Cramer-Lundberg series machinery ----------

    def _band_table(self):
        """``k`` and the coefficient rows (log magnitudes, signs) of ``V``, ``V'``
        and the series constant C.

        With ``u = x + p*r``, base = p*r*(other + mu), c = rate + mu for
        ``(rate, other)`` = ``(q_plus, q_minus)``, then ``(q_minus, q_plus)``,
        ``A_m = base^m / (m+1)!`` and ``B_m = p*r*c - (m+1)``, a bracketed
        series ``sum_m A_m B_m P(m+1, u*c)`` is ``sum_k pmf_k(u*c) C_k`` with
        ``C_k = sum_{m < k} A_m B_m`` (DLMF 8.4.10: ``P(m+1, y)`` is a Poisson
        tail); its u-derivative is ``sum_k pmf_k(u*c) c A_k B_k``.  As
        ``sum_k pmf_k = 1`` carries ``e^{-lam*r} p W(u)`` too, a variant adds
        ``pmf_k(u*c) e^{-lam*r + rate*u}`` times ``D_k = own + cross C_k`` to
        ``V`` (weights ``p W_plus``, ``p W_minus``; the ``q_minus`` variant with
        a minus sign) and times ``cross c A_k B_k`` and ``rate D_k`` to ``V'``;
        a term's log is ``k log(u / (p*r)) - mu*x`` plus its entry.  ``C_k`` is
        summed in log space, its two signs apart: under one common scale its
        small-k entries underflow.  One K serves every u: ``u*c <= p*r*c``.
        C is the ``rate D_k`` rows at ``x = 0`` plus the window claims density
        at ``p*r``, ``e^{-log_scale} c' sum_m (c'*p*r)^m / (m! (m+1)!)`` with
        ``c' = lam*mu*r``: as ``(q_plus + mu)(q_minus + mu) = lam*mu/p``, its
        term logs are ``log c'`` less log_scale plus the ``q_plus`` variant's
        two ``k_logs``, one more row of the sum.
        """
        spec = self.spec
        m = spec.model
        X = self.coefficient_set.surplus
        pr, mu = m.p * spec.r, m.mu_claim
        rates, weights = (X.kp, X.km), (m.p * X.a, m.p * X.b)
        log_scale = m.lam * spec.r + mu * pr  # every term carries e^{-lam*r - mu*p*r}
        # per variant: p*r*c, log base, log(p*r*c), log|rate|, and less
        # log_scale: log own, log cross, log(c cross)
        columns = np.array([
            [pr * (rate + mu), _log(pr * (other + mu), "p*r*(mu+km)"), math.log(pr * (rate + mu)),
             math.log(abs(rate)), math.log(own) - log_scale, _log(cross, "p*b") - log_scale,
             _log((rate + mu) * cross, "(mu+root)*p*weight") - log_scale]
            for rate, other, own, cross in zip(rates, rates[::-1], weights, weights[::-1])
        ]).T[:, :, None]
        prc, _, _, log_rate, log_own, log_cross, log_c_cross = columns
        n = _term_budget(float(prc[0, 0]))
        if n > BAND_MAX_TERMS:
            raise SeriesConvergenceError(f"band series need {n} terms, over {BAND_MAX_TERMS}")
        k, log_k_factorial = _log_factorials(n + 1)
        bracket = prc - k[1:]
        k_logs = columns[1:3] * k[:-1]  # less log (k+1)!: k log base; less log k!: k log(p*r*c)
        k_logs[0] -= log_k_factorial[1:]
        k_logs[1] -= log_k_factorial[:-1]
        log_coef, sign = np.empty((2, 7, n))  # rows D, c A B, rate D by variant, density
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # log(A_m B_m) where B_m > 0, then log(-A_m B_m) where B_m < 0, else -inf
            log_ab = k_logs[0] + np.log(np.maximum(bracket * _SIDES[:, :, None], 0.0))
            parts = np.full((2, 2, n), -np.inf)  # cross times the two parts of C_k
            np.logaddexp.accumulate(log_ab[..., :-1], axis=2, out=parts[..., 1:])
            parts += log_cross
            # D_k = e^a - e^b, and log|e^a - e^b| = log(e^a + e^b) + log|tanh((a - b) / 2)|
            pos = np.logaddexp(log_own, parts[0])
            gap = pos - parts[1]
            np.log(np.abs(np.tanh(0.5 * gap)), out=log_coef[:2])
            log_coef[:2] += np.logaddexp(pos, parts[1])
            np.add(log_c_cross, np.maximum(log_ab[0], log_ab[1]), out=log_coef[2:4])
            by_kind = log_coef[:4].reshape(2, 2, n)
            np.add(by_kind, k_logs[1], out=by_kind)
            np.add(log_coef[:2], log_rate, out=log_coef[4:6])
            np.sign(gap, out=sign[4:6])  # the variant's sign times its rate's is +1
            np.multiply(sign[4:6], _SIDES, out=sign[:2])
            np.multiply(np.sign(bracket), _SIDES, out=sign[2:4])
            log_coef[6] = (_log(m.lam * mu * spec.r, "lam*mu*r") - log_scale
                           + k_logs[0, 0] + k_logs[1, 0])
            sign[6] = 1.0
        return k[:-1], tuple(self._band_entry(log_coef[i:j], sign[i:j])
                             for i, j in ((0, 2), (2, 6), (4, 7)))

    def _band_entry(self, log_coef: np.ndarray, sign: np.ndarray) -> tuple:
        """Rows and a bound on the log of their term sum on the band (NaN for a NaN row):
        ``k log((x + p*r) / (p*r)) - mu*x <= mu*p*r`` there, and there are ``size`` terms."""
        bound = float(log_coef.max()) + self._mu * self._pr
        return log_coef, sign, bound + math.log(log_coef.size)

    def _window_sums(self, ratio: np.ndarray, shift: np.ndarray, kind: int) -> np.ndarray:
        """``V``, ``V'`` or C (``kind`` 0-2) at band points x from ``(x + p*r) / (p*r)``
        and ``mu*x``: one log-pmf row ``k log(ratio) - shift`` per point; a row sum out
        of the double range, or not converged in its last two terms (floor 1e-300), raises."""
        log_coef, sign, _ = self._band_terms[kind]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_pmf = np.log(ratio)[:, None] * self._band_k
            log_pmf[:, 0] = 0.0  # u^0 = 1 at u = 0
            log_pmf -= shift[:, None]
            block = np.add(log_pmf[:, None, :], log_coef)
            np.exp(block, out=block)
            tail = np.maximum(block[:, :, -1], block[:, :, -2])
            block *= sign
            sums = np.add.reduce(block, axis=2)
            size = np.abs(sums)
            if not math.isfinite(np.maximum.reduce(size, axis=None)):
                raise self._band_error(overflow=True)
            if np.maximum.reduce(tail - SERIES_RTOL * size, axis=None) >= SERIES_RTOL * 1e-300:
                raise self._band_error(overflow=False)
        return np.add.reduce(sums, axis=1)

    def _band_point(self, x: float, log_coef: np.ndarray, sign: np.ndarray, bound: float) -> float:
        """The band sum at one point x: one log-pmf row against the ``(rows, K)`` table,
        checked on its row sums as floats, equal to :meth:`_window_sums` on one point; with
        the table's ``bound`` in range, x in ``(-p*r, 0]`` reads unguarded (no errstate)."""
        if not (bound <= _LOG_TERM_MAX and x > -self._pr):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return self._band_sum(x, log_coef, sign, guarded=True)
        return self._band_sum(x, log_coef, sign, guarded=False)

    def _band_sum(self, x: float, log_coef: np.ndarray, sign: np.ndarray, guarded: bool) -> float:
        pr = self._pr
        block = np.log((x + pr) / pr) * self._band_k
        if guarded:  # else the log is finite, and its k = 0 entry 0 or -0.0
            block[0] = 0.0  # u^0 = 1 at u = 0
        block -= self._mu * x
        block = np.add(block, log_coef)
        np.exp(block, out=block)
        tails = block[:, -2:].tolist()
        block *= sign
        rows = np.add.reduce(block, axis=1).tolist()
        if guarded and not all(map(math.isfinite, rows)):  # NaN too, as np.maximum.reduce
            raise self._band_error(overflow=True)
        total = 0.0  # the block's row reduction: from 0.0, in row order (no -0.0 result)
        for (before, last), s in zip(tails, rows):
            if max(before, last) - SERIES_RTOL * abs(s) >= SERIES_RTOL * 1e-300:
                raise self._band_error(overflow=False)
            total += s
        return total

    def _band_error(self, overflow: bool) -> Exception:
        pr, n = self._pr, self._band_k.size
        if overflow:
            return OverflowRangeError(f"band series leave the double range (p*r = {pr:.6g})")
        return SeriesConvergenceError(f"band series did not converge within {n} terms")

    # ---------- Brownian negative branch ----------

    def _neg_brownian(self, x: float, with_derivative: bool):
        kp, km, rdisc, sr, qr = self._tails
        alpha = (-x - rdisc) / sr
        beta = (-x + rdisc) / sr
        # log-space tails keep exp(-km * x) * survival finite far below 0
        t_plus = math.exp(qr + kp * x + _log_ndtr(-alpha))
        t_minus = math.exp(qr + km * x + _log_ndtr(-beta))
        value = t_plus + t_minus
        if not with_derivative:
            return value, None
        d_plus = kp * t_plus + math.exp(qr + kp * x - 0.5 * alpha * alpha + _LOG_ROOT) / sr
        d_minus = km * t_minus + math.exp(qr + km * x - 0.5 * beta * beta + _LOG_ROOT) / sr
        return value, d_plus + d_minus

    # ---------- public evaluation ----------

    def value(self, x: ArrayLike) -> ArrayLike:
        """V at x.  Zero at ``-inf`` and, for Cramer-Lundberg, below ``-p*r``
        (with the value at ``-p*r`` itself taken as the right limit).  Takes
        arrays too; NaN raises ``DomainError``."""
        if isinstance(x, np.ndarray):
            return self._on_array(x.astype(float, copy=False), with_derivative=False)
        x = float(x)  # an np.float32 would keep kp * x in float32 on NumPy 2
        if x >= 0.0:
            return self.positive_pair.at(x)[0]
        return self._below_zero(x, with_derivative=False)

    def derivative(self, x: ArrayLike) -> ArrayLike:
        """dV/dx.  Undefined at the Cramer-Lundberg kinks x = 0 and x = -p*r:
        a scalar there raises, an array holds NaN there.  As for :meth:`value`,
        an input NaN raises ``DomainError`` and ``-inf`` gives 0."""
        if isinstance(x, np.ndarray):
            return self._on_array(x.astype(float, copy=False), with_derivative=True)
        x = float(x)
        if self._is_cl and (x == 0.0 or x == -self._pr):
            raise UndefinedDerivativeError(
                f"derivative does not exist at x={x} for the bounded-variation model"
            )
        if x >= 0.0:
            return self.positive_pair.at(x)[1]
        return self._below_zero(x, with_derivative=True)

    def _below_zero(self, x: float, with_derivative: bool) -> float:
        """V or V' at one point below 0, where NaN lands too and raises.  Both
        vanish at ``-inf`` and, for Cramer-Lundberg, below ``-p*r``."""
        if self._is_cl:
            if x >= -self._pr:
                return self._band_point(x, *self._band_terms[with_derivative])
        elif x > -math.inf:
            return self._neg_brownian(x, with_derivative)[with_derivative]
        if math.isnan(x):  # NaN fails every comparison above
            raise DomainError("V and V' are undefined at NaN")
        return 0.0

    def _on_array(self, x: np.ndarray, with_derivative: bool) -> np.ndarray:
        """V or V' on an array.  The x >= 0 branch is one array call, the
        compound Poisson band a few blocks of points; the other points below 0
        (the Brownian tails) are looped over."""
        pair = self.positive_pair
        out = np.zeros_like(x)
        pos = x >= 0.0
        out[pos] = (pair.derivative if with_derivative else pair.value)(x[pos])
        below = ~pos
        if self._is_cl:
            pr = self._pr
            band = below & (x >= -pr)
            below &= ~band
            if with_derivative:  # V' is undefined at the kinks 0 and -p*r
                out[(x == 0.0) | (x == -pr)] = np.nan
                band &= x > -pr
            xb = x[band]
            ratio, shift = (xb + pr) / pr, self._mu * xb
            step = max(1, _BAND_BLOCK // self._band_terms[with_derivative][0].size)
            out[band] = np.concatenate([np.empty(0)] + [  # blocks of at most _BAND_BLOCK terms
                self._window_sums(ratio[i:i + step], shift[i:i + step], int(with_derivative))
                for i in range(0, xb.size, step)])
        out[below] = [self._below_zero(v, with_derivative) for v in x[below].tolist()]
        return out


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def parisian_scale(spec: ProblemSpec) -> ParisianScale:
    """Shared, cached ParisianScale instance for a spec."""
    return ParisianScale(spec)

"""The Parisian refracted scale function V, its series pieces and oracles."""
from __future__ import annotations

import copy
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.special import gammainc, i1, log_ndtr, ndtr

from parisian_impulse import (
    BrownianMotion,
    CompoundPoissonWindow,
    CramerLundberg,
    DomainError,
    ExponentialPair,
    ImpulsePolicy,
    NumericalError,
    OverflowRangeError,
    ProblemSpec,
    SeriesConvergenceError,
    UndefinedDerivativeError,
    check_sufficiency_pair,
    check_transfer_inequality,
    find_optimal_policy,
    payout_ratio,
    value_function,
)
from parisian_impulse.models import _LOG_TERM_MAX, compute_coefficients
from parisian_impulse.parisian import ParisianScale, _log_ndtr, _ndtr, parisian_scale
from parisian_impulse.quadrature import generator_residual, quadrature_value
from parisian_impulse.scale import refracted_pair, refracted_scale

from oracles import (
    CramerLundbergWindowOracle,
    _log_gamma_terms,
    regularized_lower_gamma,
    series_constant_by_window,
)
from params import (brownian_spec, census_box_specs, cramer_lundberg_spec, log_uniform,
                    outcome)

# Frozen from a 50-digit evaluation of the defining window integral
# (independent implementation; the package never saw these numbers).
FROZEN_BM = {
    -2.5: 0.322765978016,
    -1.0: 0.88701849337,
    0.5: 1.24983991652,
    1.2: 1.35807047177,
    2.0: 1.48068697706,
    5.0: 2.02658713148,
}
FROZEN_CL = {
    -5.9: 0.0274271338041,
    -3.0: 0.579438153478,
    0.5: 1.16974095353,
    1.5: 1.291304137,
    3.0: 1.46242268909,
    6.0: 1.79851610864,
}

# p*r = 265.6: the terms A_m B_m of the q_minus series' C_k span e^838, more
# than the double range, so under one common scale C_k loses its small-k
# entries, which carry V deep in the band (about 1e-76 at -0.999*p*r)
DEEP_BAND_SPEC = ProblemSpec(
    CramerLundberg(p=2.1270796045706537, lam=1.528179327336928, mu_claim=1.8648678035272548),
    delta=0.4765025451616983, q=2.183171373368243, r=124.87391203189162, beta=0.5)


def test_value_at_zero_is_discounted_delay(bm_scale, cl_scale):
    for ps in (bm_scale, cl_scale):
        assert ps.value(0.0) == pytest.approx(
            math.exp(ps.spec.q * ps.spec.r), rel=1e-12, abs=0.0
        )


def test_frozen_values_brownian(bm_scale):
    for x, v in FROZEN_BM.items():
        assert bm_scale.value(x) == pytest.approx(v, rel=1e-9), f"x={x}"


def test_brownian_tails_keep_their_bits(bm_scale):
    # the tails read kp, km, r*disc, sigma*sqrt(r) and q*r formed once at the build,
    # by the expressions each read used to form: V and V' keep their bits
    for x, v, d in ((-0.5, "0x1.0b74050e05d0cp+0", "0x1.19a3fd62685a5p-2"),
                    (-3.0, "0x1.7bfcbdda5d21fp-3", "0x1.d29e569d582dcp-3"),
                    (-30.0, "0x1.ea6cea870b0f2p-353", "0x1.035902c65d09bp-348")):
        assert (bm_scale.value(x).hex(), bm_scale.derivative(x).hex()) == (v, d), x


def test_frozen_values_compound_poisson(cl_scale):
    for x, v in FROZEN_CL.items():
        assert cl_scale.value(x) == pytest.approx(v, rel=1e-9), f"x={x}"


def test_series_constant_frozen(cl_scale):
    assert cl_scale.series_constant == pytest.approx(0.121275151374, rel=1e-9)
    assert parisian_scale(brownian_spec()).series_constant is None


def test_compound_poisson_support_boundary(cl_scale):
    # V vanishes where even a claim-free window cannot reach back to zero
    pr = 6.0
    assert cl_scale.value(-pr - 1e-12) == 0.0
    assert cl_scale.value(-8.0) == 0.0
    # right-continuous at the boundary: the claim-free atom still counts
    v_edge = cl_scale.value(-pr)
    assert v_edge > 0.0
    assert cl_scale.value(-pr + 1e-9) == pytest.approx(v_edge, rel=1e-6)


def test_value_increasing(bm_scale, cl_scale):
    xs = np.linspace(-4.0, 8.0, 200)
    assert np.all(np.diff([bm_scale.value(float(x)) for x in xs]) > 0.0)
    xs = np.linspace(-5.95, 8.0, 200)
    assert np.all(np.diff([cl_scale.value(float(x)) for x in xs]) > 0.0)


@pytest.mark.parametrize(
    "which,points",
    [
        ("bm", (-2.0, -0.5, 0.0, 0.7, 2.5)),
        ("cl", (-5.0, -2.0, -0.5, 0.7, 2.5)),
    ],
)
def test_derivative_matches_finite_differences(which, points, bm_scale, cl_scale):
    ps = bm_scale if which == "bm" else cl_scale
    h = 1e-5
    for x in points:
        fd = (ps.value(x + h) - ps.value(x - h)) / (2.0 * h)
        assert ps.derivative(x) == pytest.approx(fd, rel=1e-5), f"x={x}"


@pytest.mark.parametrize("which", ["bm", "cl"])
def test_value_and_derivative_on_arrays_match_scalar_calls(which, bm_scale, cl_scale):
    # every branch: below the band, its edge, the band or the tails, 0, x > 0
    ps = bm_scale if which == "bm" else cl_scale
    xs = np.array([-8.0, -6.0, -5.9, -3.0, -1e-9, 0.0, 1e-9, 0.5, 3.0, 12.0])
    assert ps.value(xs).tolist() == [ps.value(float(x)) for x in xs]
    want = []
    for x in xs:
        try:
            want.append(ps.derivative(float(x)))
        except UndefinedDerivativeError:
            want.append(math.nan)
    got = ps.derivative(xs)
    assert np.array_equal(got, np.array(want), equal_nan=True)
    assert np.isnan(got).sum() == (2 if which == "cl" else 0)


@pytest.mark.parametrize("which", ["bm", "cl"])
@pytest.mark.parametrize("x", [math.nan, [math.nan], [1.0, math.nan], [-1.0, math.nan, 2.0]],
                         ids=["scalar", "alone", "with_positive", "with_negative"])
def test_nan_raises_domain_error(which, x, bm_scale, cl_scale):
    # NaN fails every branch test: as a scalar it gave NaN (Brownian) or an
    # untyped ValueError (compound Poisson V), and inside an array it gave 0.0
    ps = bm_scale if which == "bm" else cl_scale
    x = np.array(x) if isinstance(x, list) else x
    for f in (ps.value, ps.derivative):
        with pytest.raises(DomainError, match="NaN"):
            f(x)


@pytest.mark.parametrize("which", ["bm", "cl"])
def test_minus_infinity_gives_the_limit_zero(which, bm_scale, cl_scale):
    # the Brownian normal tails gave NaN at -inf: inf - inf in a log-space term
    ps = bm_scale if which == "bm" else cl_scale
    for f in (ps.value, ps.derivative):
        assert f(-math.inf) == 0.0
        assert f(np.array([-math.inf, -1.0, 1.0])).tolist() == [0.0, f(-1.0), f(1.0)]


def test_derivative_undefined_at_compound_poisson_kinks(cl_scale):
    with pytest.raises(UndefinedDerivativeError):
        cl_scale.derivative(0.0)
    with pytest.raises(UndefinedDerivativeError):
        cl_scale.derivative(-6.0)
    assert cl_scale.derivative(-7.0) == 0.0


def test_derivative_continuous_at_zero_for_diffusion(bm_scale):
    left = bm_scale.derivative(-1e-9)
    right = bm_scale.derivative(1e-9)
    assert left == pytest.approx(right, rel=1e-6)
    assert bm_scale.derivative(0.0) == pytest.approx(0.1956133031, rel=1e-9)


def test_derivative_jump_at_zero_for_compound_poisson(cl_scale):
    # bounded variation: V' jumps up when the refraction switches on
    left = cl_scale.derivative(-1e-12)
    right = cl_scale.derivative(1e-12)
    assert right > left
    assert right == pytest.approx(0.1323001651, rel=1e-9)


def test_derivative_argmin(bm_scale, cl_scale):
    assert bm_scale.positive_pair.derivative_argmin() == pytest.approx(1.222869037, rel=1e-8)
    assert cl_scale.positive_pair.derivative_argmin() == pytest.approx(3.816323204, rel=1e-8)
    for ps in (bm_scale, cl_scale):
        xm = ps.positive_pair.derivative_argmin()
        dm = ps.derivative(xm)
        assert dm < ps.derivative(xm - 1e-3)
        assert dm < ps.derivative(xm + 1e-3)


@pytest.mark.parametrize(
    "which,points",
    [
        ("bm", (-2.5, -1.0, 0.0, 0.5, 2.0)),
        ("cl", (-6.0, -5.9, -3.0, 0.0, 0.5, 3.0)),
    ],
)
def test_quadrature_route_agrees(which, points, bm_scale, cl_scale):
    ps = bm_scale if which == "bm" else cl_scale
    for x in points:
        closed = ps.value(x)
        direct = quadrature_value(ps, x)
        assert closed == pytest.approx(direct, rel=1e-9), f"x={x}"


def test_regularized_lower_gamma_against_scipy():
    for order in (1, 2, 3, 5, 10, 40, 120):
        for x in (1e-8, 0.1, 1.0, 5.0, 30.0, 200.0):
            mine = regularized_lower_gamma(order, x)
            ref = float(gammainc(order, x))
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-300), (order, x)


@pytest.mark.parametrize("x", [1e-8, 0.3, 1.0, 5.0, 17.5, 40.0, 120.0, 300.0, 700.0, 900.0])
def test_gamma_terms_match_scalar_oracle_and_scipy(x):
    # both sides of m + 1 = x, the seam itself at integer x, and the far tail;
    # beyond x = 745 e^{-x} alone underflows
    n = max(60, int(2 * x))
    with np.errstate(divide="ignore"):
        log_p, log_pmf = _log_gamma_terms(x, n)
    for m in range(n):
        ref = float(gammainc(m + 1, x))
        if ref < 1e-300:  # exp(log_p) would be subnormal
            continue
        assert math.exp(log_p[m]) == pytest.approx(ref, rel=5e-12, abs=0.0), m
        assert math.exp(log_p[m]) == pytest.approx(
            regularized_lower_gamma(m + 1, x), rel=5e-12, abs=0.0
        ), m
    pmf = np.exp(np.arange(n) * math.log(x) - x - np.array([math.lgamma(k + 1.0) for k in range(n)]))
    assert np.exp(log_pmf) == pytest.approx(pmf, rel=1e-12, abs=0.0)


def test_gamma_terms_at_zero():
    with np.errstate(divide="ignore", invalid="ignore"):  # as its docstring asks
        log_p, log_pmf = _log_gamma_terms(0.0, 5)
    assert np.all(np.exp(log_p) == 0.0)
    assert list(np.exp(log_pmf)) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_band_matches_mpmath_window_oracle(cl_scale):
    mpmath = pytest.importorskip("mpmath")
    m, spec = cl_scale.spec.model, cl_scale.spec
    oracle = CramerLundbergWindowOracle(m.p, m.lam, m.mu_claim, spec.delta, spec.q, spec.r)
    pr = m.p * spec.r
    for i in range(8):
        x = -pr * (i + 0.5) / 8
        with mpmath.workdps(40):
            v, d = oracle.value(x), oracle.derivative(x)
            assert float(abs(cl_scale.value(x) / v - 1)) <= 1e-12, x
            assert float(abs(cl_scale.derivative(x) / d - 1)) <= 1e-12, x


# V and V' of a long-window spec (p*r = 100) from the term-by-term series this
# package used before its series became term vectors
LONG_WINDOW_BEFORE = [
    (-6.25, 34.05412963262963, 2.572034420902392),
    (-18.75, 13.247693532407133, 1.000732605119206),
    (-31.25, 5.14054476862354, 0.3923795777285371),
    (-43.75, 1.8701953004727148, 0.16961570529561992),
    (-56.25, 0.40844068620438617, 0.06882556869114079),
    (-68.75, 0.01687817010371039, 0.006176428529569992),
    (-81.25, 1.7667255294162162e-05, 1.3956901405291199e-05),
    (-93.75, 1.4061042011904834e-12, 3.1017192415797034e-12),
]


def test_long_window_band_no_further_from_oracle_than_before():
    mpmath = pytest.importorskip("mpmath")
    spec = ProblemSpec(CramerLundberg(p=2.5, lam=1.5, mu_claim=1.2),
                       delta=0.3, q=0.1, r=40.0, beta=0.5)
    ps = ParisianScale(spec)
    oracle = CramerLundbergWindowOracle(2.5, 1.5, 1.2, 0.3, 0.1, 40.0, dps=20)
    for x, v_before, d_before in LONG_WINDOW_BEFORE:
        with mpmath.workdps(30):
            v, d = oracle.value(x), oracle.derivative(x)
            assert abs(ps.value(x) - v) <= abs(v_before - v), x
            assert abs(ps.derivative(x) - d) <= abs(d_before - d), x


@pytest.mark.parametrize("r", [150.0, 200.0])
def test_long_delay_gives_value_or_overflow(r):
    # the window series used to run out of its fixed 500-term budget at r = 200
    base = cramer_lundberg_spec()
    spec = ProblemSpec(base.model, base.delta, base.q, r, base.beta)
    try:
        ps = ParisianScale(spec)
    except OverflowRangeError:
        return
    for x in (-0.75 * spec.model.p * r, -1.0, 0.0, 2.0):
        assert math.isfinite(ps.value(x))


def test_value_past_the_pair_edge_is_typed_on_every_route():
    # V(0) = e^{300} and kp = 1.25: V(500) overflows although 500*kp is inside the
    # exp range; ps.value and ps.derivative returned inf with a RuntimeWarning.
    # The positive pair refuses the read itself, on floats, 0-d arrays, arrays and at
    ps = parisian_scale(ProblemSpec(BrownianMotion(0.5, 0.75), delta=0.05, q=1.0, r=300.0,
                                    beta=0.05))
    pair = ps.positive_pair
    assert pair.kp * 500.0 < 700.0 and pair.edge < 500.0
    calls = [lambda: ps.value(500.0), lambda: ps.derivative(500.0),
             lambda: ps.value(np.array(500.0)), lambda: ps.derivative(np.array(500.0)),
             lambda: ps.value(np.array([1.0, 500.0])),
             lambda: ps.derivative(np.array([1.0, 500.0])), lambda: pair.at(500.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(OverflowRangeError, match=r"^a term of the pair leaves the "
                                                         r"double range .* at x = 500, past"):
                call()
        # the edge itself is read, finite, on every route
        edge = np.array([pair.edge])
        assert ps.value(edge)[0] == ps.value(pair.edge) == pair.at(pair.edge)[0]
        assert ps.derivative(edge)[0] == ps.derivative(pair.edge) == pair.at(pair.edge)[1]
        assert math.isfinite(pair.at(pair.edge)[2])


@settings(max_examples=300, deadline=None)
@given(spec=census_box_specs(), x=log_uniform(1e-3, 1e3))
def test_float_route_equals_one_point_array_route(spec, x):
    # a float x >= 0 reads V and V' by ExponentialPair.at, a one-point array by the
    # pair's array route: the same bits, or the same error type and text, at 0, -0,
    # an int, an np.float64, the pair's edge and past it, and +inf; at the compound
    # Poisson kink 0 the float V' raises where the array holds NaN
    try:
        ps = parisian_scale(spec)
    except NumericalError:
        return
    edge = float(ps.positive_pair.edge)
    points = [0.0, -0.0, int(x), np.float64(x), x, edge, math.nextafter(edge, math.inf),
              math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (ps.value, ps.derivative):
            for point in points:
                got = outcome(lambda: f(point))
                if f == ps.derivative and ps._is_cl and point == 0.0:
                    assert got[0] is UndefinedDerivativeError, got
                    assert math.isnan(f(np.array([float(point)]))[0])
                    continue
                want = outcome(lambda: f(np.array([float(point)]))[0])
                assert got == want, (spec, f.__name__, point)


def test_float_read_on_x_nonnegative_never_calls_the_pair_array_route(bm_scale, cl_scale,
                                                                     monkeypatch):
    # a float x >= 0 reads V and V' by ExponentialPair.at alone: the route cannot
    # fall back on the pair's 0-d value or derivative silently
    points = [0.0, 1e-9, 0.5, 3, np.float64(2.5), np.float32(1.3), 12.0]
    expected = {}
    for ps in (bm_scale, cl_scale):
        slopes = [p for p in points if not (ps._is_cl and p == 0.0)]
        expected[ps] = slopes, [ps.value(p) for p in points], [ps.derivative(p) for p in slopes]

    def refuse(self, x):
        raise AssertionError(f"ExponentialPair read at {x} called")

    monkeypatch.setattr(ExponentialPair, "value", refuse)
    monkeypatch.setattr(ExponentialPair, "derivative", refuse)
    for ps, (slopes, values, derivatives) in expected.items():
        assert [ps.value(p) for p in points] == values
        assert [ps.derivative(p) for p in slopes] == derivatives
        with pytest.raises(AssertionError, match="called"):
            ps.value(np.array([1.0]))  # an array still reads the pair's array route


def _bits(evaluate):
    """The hex bits of the float ``evaluate()`` returns (of each field of a
    report), or the type and text of its error."""
    try:
        out = evaluate()
    except (DomainError, NumericalError) as exc:
        return type(exc), str(exc)
    fields = dataclasses.astuple(out) if dataclasses.is_dataclass(out) else (out,)
    assert all(type(v) in (float, bool) for v in fields), out
    return [v.hex() if type(v) is float else v for v in fields]


def test_numpy_scalars_are_read_as_their_doubles(bm_scale, cl_scale, optimum):
    # on NumPy 2 kp * np.float32(x) stays float32 (NEP 50): value_function, refracted_scale,
    # refracted_pair, payout_ratio, the certificates and generator_residual read a float32
    # x in float32 (or returned an np.float32). Every float route converts at its entry,
    # and ImpulsePolicy its levels, so a NumPy scalar gives the Python float of its double
    specs = [ProblemSpec(BrownianMotion(0.5, 0.75), delta=0.05, q=0.1, r=2.0, beta=0.3),
             bm_scale.spec, cl_scale.spec]
    # float32(0.3) + 0.3 stays float32 and equals float32(0.3), so (0, 0.3) is at the
    # wedge's edge in float32 arithmetic but admissible as doubles
    assert float(np.float32(0.3)) > 0.3
    for spec in specs:
        ps, cs = parisian_scale(spec), compute_coefficients(spec)
        opt = optimum(spec).policy
        calls = [
            lambda x, lo, up: ps.value(x),
            lambda x, lo, up: ps.derivative(x),
            lambda x, lo, up: value_function(ps, ImpulsePolicy(lo, up), x),
            lambda x, lo, up: refracted_scale(cs, x, up),
            lambda x, lo, up: refracted_pair(cs, up),
            lambda x, lo, up: generator_residual(ps, ImpulsePolicy(lo, up), x),
            lambda x, lo, up: payout_ratio(ps, lo, up),
            lambda x, lo, up: check_sufficiency_pair(ps, up),
            lambda x, lo, up: check_transfer_inequality(ps, ImpulsePolicy(lo, up)),
        ]
        for lo, up in np.float32([(opt.lower, opt.upper), (0.0, spec.beta)]):
            for x in map(np.float32, (1.3, 0.0, -0.7, 2.0 * opt.upper + 0.1)):
                for call in calls:
                    if call is calls[1] and ps._is_cl and x == 0.0:
                        continue  # the compound Poisson kink
                    got = _bits(lambda: call(x, lo, up))
                    want = _bits(lambda: call(float(x), float(lo), float(up)))
                    assert got == want, (spec, x, lo, up, call)
        if spec.beta == 0.3:  # the edge pair is admissible as doubles
            assert type(payout_ratio(ps, np.float32(0.0), np.float32(0.3))) is float


def test_normal_cdf_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([-np.logspace(3, -3, 300), [0.0], np.logspace(-3, math.log10(40.0), 200),
                         np.linspace(-40.0, 10.0, 201)])
    tiny = mpmath.mpf(np.finfo(float).tiny)
    with mpmath.workdps(40):
        for mine, theirs, exact in (
            (_ndtr, ndtr, mpmath.ncdf),
            # log(1 - t) for x > 0 needs more than 40 digits through log(ncdf)
            (_log_ndtr, log_ndtr,
             lambda x: mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))),
        ):
            worst_mine = worst_scipy = 0.0
            for x in map(float, xs):
                ref = exact(mpmath.mpf(x))
                if abs(ref) < tiny:  # subnormal or zero in double
                    continue
                worst_mine = max(worst_mine, float(abs(mine(x) / ref - 1)))
                worst_scipy = max(worst_scipy, float(abs(float(theirs(x)) / ref - 1)))
            assert worst_mine <= worst_scipy, (mine.__name__, worst_mine, worst_scipy)
            assert worst_mine < 1e-13, mine.__name__


def test_regularized_lower_gamma_edges():
    assert regularized_lower_gamma(3, 0.0) == 0.0
    assert regularized_lower_gamma(3, -1.0) == 0.0
    with pytest.raises(ValueError):
        regularized_lower_gamma(0, 1.0)
    # deep underflow region returns a clean zero
    assert regularized_lower_gamma(400, 1e-3) == 0.0


def test_compound_window_density():
    window = CompoundPoissonWindow(lam=2.0, mu_claim=1.0, r=2.0)
    assert window.atom == pytest.approx(math.exp(-4.0), rel=1e-15, abs=0.0)
    assert window.density(0.0) == 0.0
    assert window.density(-1.0) == 0.0
    # closed Bessel form of the same density
    c = 2.0 * 2.0 * 1.0
    for y in (0.05, 0.5, 2.0, 7.0, 20.0):
        ref = math.exp(-4.0 - y) * math.sqrt(c / y) * float(i1(2.0 * math.sqrt(c * y)))
        assert window.density(y) == pytest.approx(ref, rel=1e-10), f"y={y}"
    # on arrays: one log-space term block instead of the scalar recurrence
    ys = np.array([-1.0, 0.0, 0.05, 0.5, 2.0, 7.0, 20.0])
    assert window.density(ys) == pytest.approx([window.density(y) for y in ys.tolist()],
                                               rel=1e-13, abs=0.0)
    # atom plus continuous mass adds to one
    mass, _ = quad(window.density, 0.0, 200.0, epsabs=1e-12, epsrel=1e-11, limit=300)
    assert window.atom + mass == pytest.approx(1.0, abs=1e-9)


def test_window_series_term_budget():
    # far outside the design envelope the log-space block neither spins nor
    # overflows: the density near e^{-3686} underflows to zero
    window = CompoundPoissonWindow(lam=5000.0, mu_claim=1.0, r=1.0)
    assert window.density(100.0) == 0.0
    assert window.density(np.array([100.0])).tolist() == [0.0]


def test_series_constant_from_band_table(cl_scale):
    # the table's three-row sum at x = 0 and the slope plus window density
    # give the shipped config's C bit for bit
    assert cl_scale.series_constant == 0.12127515137402531
    assert series_constant_by_window(cl_scale.spec) == 0.12127515137402531


@pytest.mark.parametrize("spec, constant", [
    (cramer_lundberg_spec(), "0x1.f0be368f8090ep-4"),
    (DEEP_BAND_SPEC, "0x1.a431f409f1eeap+393"),
], ids=["shipped", "deep_band"])
def test_band_point_equals_one_point_block(spec, constant):
    # a float x is one log-pmf row against the table, its checks run on floats:
    # bit for bit the array route's block of one point, at the band's ends too
    ps = ParisianScale(spec)
    pr = spec.model.p * spec.r
    for x in (-pr, -pr * (1.0 - 1e-12), -pr / 2.0, -1e-300):
        assert ps.value(x).hex() == ps.value(np.array([x]))[0].hex(), x
        if x > -pr:  # V' has a kink at -p*r
            assert ps.derivative(x).hex() == ps.derivative(np.array([x]))[0].hex(), x
    # C is the same row at x = 0 against its three table rows, as before
    assert ps.series_constant.hex() == constant
    block = ps._window_sums(np.array([1.0]), np.array([0.0]), 2)
    assert ps.series_constant.hex() == block[0].hex()


class _InfiniteConstantScale(ParisianScale):
    """A ``ParisianScale`` whose series constant C, the build's one three-row
    band sum, is ``inf``."""

    def _band_point(self, x, log_coef, sign, bound):
        if log_coef.shape[0] != 3:  # V or V' at a band point
            return super()._band_point(x, log_coef, sign, bound)
        return math.inf


def test_infinite_series_constant_is_typed():
    with pytest.raises(OverflowRangeError, match=r"^V on x >= 0 is not finite: .*"
                                                 r"\(series constant inf\)$"):
        _InfiniteConstantScale(cramer_lundberg_spec())


@pytest.mark.parametrize("fault, error", [
    ("truncated", SeriesConvergenceError),
    ("overflow", OverflowRangeError),
    ("nan", OverflowRangeError),
    ("negative_zero", None),
])
def test_patched_band_point_matches_one_point_block(cl_scale, fault, error):
    # a table cut to 8 terms does not converge; a term of e^1000 overflows its
    # row sum, and times a zero sign makes it NaN, which the float checks must
    # catch as np.maximum.reduce does (max() would pass over a NaN in the last
    # row); rows of -0.0 add to a zero whose sign is the reduction's own
    ps = copy.copy(cl_scale)
    n = 8 if fault == "truncated" else ps._band_k.size
    ps._band_k = ps._band_k[:n]
    tables = [(c[:, :n].copy(), s[:, :n].copy()) for c, s, _ in ps._band_terms]
    for log_coef, sign in tables:
        if fault == "negative_zero":
            log_coef[:], sign[:] = -np.inf, -1.0
        elif fault != "truncated":
            log_coef[-1, 3], sign[-1, 3] = 1000.0, 0.0 if fault == "nan" else 1.0
    # each patched table carries the bound of its own rows, as a built one does
    ps._band_terms = tuple(ps._band_entry(c, s) for c, s in tables)
    x = -0.5 * ps.spec.model.p * ps.spec.r
    pairs = [(lambda: f(x), lambda: f(np.array([x]))[0]) for f in (ps.value, ps.derivative)]
    pairs.append((lambda: ps._band_point(0.0, *ps._band_terms[2]),
                  lambda: ps._window_sums(np.array([1.0]), np.array([0.0]), 2)[0]))
    for scalar, block in pairs:
        got = outcome(scalar)
        assert got == outcome(block)
        assert got[0] is error if error else float.fromhex(got) == 0.0


@pytest.mark.parametrize("spec", [
    cramer_lundberg_spec(), dataclasses.replace(cramer_lundberg_spec(), r=20.0), DEEP_BAND_SPEC,
], ids=["shipped", "r20", "deep_band"])
def test_fast_band_route_matches_guarded_route(spec):
    # a table whose bound fits reads inside the band with no errstate; an infinite
    # bound forces the guarded route, which gives the same bits or error at -p*r,
    # just inside it, mid-band and at -1e-300 (and C's x = 0)
    ps = ParisianScale(spec)
    pr = ps._pr
    for kind, (log_coef, sign, bound) in enumerate(ps._band_terms):
        # the deep band's e^{qr} = e^{272} and mu*p*r = 495 leave its bound past the limit
        assert (bound <= _LOG_TERM_MAX) is (spec is not DEEP_BAND_SPEC), bound
        for x in (-pr, -pr * (1.0 - 1e-12), -pr / 2.0, -1e-300, 0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="raise", under="ignore"):  # no route raises a flag
                    read = outcome(lambda: ps._band_point(x, log_coef, sign, bound))
            assert read == outcome(lambda: ps._band_point(x, log_coef, sign, math.inf)), (kind, x)


def test_band_bound_counts_the_window_shift():
    # a k = 0 term of log 700 reaches 700 + mu*p*r = 760 as x nears -p*r, past exp's
    # range: the bound (without mu*p*r it would fit) sends every read to the guarded
    # route, which raises the typed error where the unguarded one would warn
    ps = ParisianScale(dataclasses.replace(cramer_lundberg_spec(), r=20.0))
    pr = ps._pr
    tables = [(c.copy(), s.copy()) for c, s, _ in ps._band_terms]
    for log_coef, _ in tables:
        log_coef[0, 0] = 700.0
    ps._band_terms = tuple(ps._band_entry(c, s) for c, s in tables)
    for log_coef, sign, bound in ps._band_terms:
        assert bound - ps._mu * pr <= _LOG_TERM_MAX < bound
        for x in (-pr * (1.0 - 1e-12), -pr / 2.0):
            got = outcome(lambda: ps._band_point(x, log_coef, sign, bound))
            assert got[0] is OverflowRangeError, (x, got)
    for f in (ps.value, ps.derivative):
        for x in (-pr * (1.0 - 1e-12), -pr / 2.0, -1e-300):
            assert outcome(lambda: f(x)) == outcome(lambda: f(np.array([x]))), x


def test_compound_poisson_build_skips_window_density(monkeypatch):
    # C takes its density part from the band table: the window's own series
    # serves the quadrature route only
    def refuse(self, y):
        raise AssertionError("the build evaluated the window density series")

    monkeypatch.setattr(CompoundPoissonWindow, "_density_block", refuse)
    for r in (2.0, 50.0, 200.0):
        ps = ParisianScale(dataclasses.replace(cramer_lundberg_spec(), r=r))
        assert math.isfinite(ps.series_constant)


def test_parisian_scale_cache():
    assert parisian_scale(cramer_lundberg_spec()) is parisian_scale(cramer_lundberg_spec())
    # direct construction still works and agrees
    fresh = ParisianScale(cramer_lundberg_spec())
    assert fresh.value(1.5) == parisian_scale(cramer_lundberg_spec()).value(1.5)


def test_spec_caches_stay_bounded():
    base = brownian_spec(1.0)
    limit = parisian_scale.cache_info().maxsize
    assert limit is not None and limit == compute_coefficients.cache_info().maxsize
    for i in range(limit + 20):
        spec = ProblemSpec(base.model, base.delta, base.q, base.r, 1.0 + 1e-3 * i)
        find_optimal_policy(parisian_scale(spec))
        for cached in (parisian_scale, compute_coefficients):
            assert cached.cache_info().currsize <= limit
    assert parisian_scale.cache_info().currsize == limit


@pytest.mark.parametrize("spec", [
    # q*r = 131, p*r = 270: the window series of the series constant passed
    # the double range in linear space
    ProblemSpec(
        CramerLundberg(p=2.68956546879706, lam=2.747048294530684, mu_claim=1.7277246454377586),
        delta=0.4294724124360556,
        q=1.30526300043215,
        r=100.40425596173607,
        beta=0.4775314543234669,
    ),
    # q*r = 15.5, p*r = 586: the bracketed series term base^m / (m+1)! passed
    # the double range before its prefactor e^{-lam*r + rate*u} joined it
    ProblemSpec(CramerLundberg(p=3.78, lam=2.37, mu_claim=1.61),
                delta=0.43, q=0.10, r=155.0, beta=0.5),
], ids=["series_constant", "cl_long_window"])
def test_long_window_matches_window_oracle(spec):
    # V(0) = e^{qr} fits, so only intermediate sums ever left the double range
    mpmath = pytest.importorskip("mpmath")
    ps = ParisianScale(spec)
    result = find_optimal_policy(ps)
    assert result.sufficiency_pass
    m = spec.model
    oracle = CramerLundbergWindowOracle(m.p, m.lam, m.mu_claim, spec.delta, spec.q, spec.r, dps=20)
    # deep in the band V is tiny (about 1e-43 and 1e-40 at -0.9*p*r)
    for x in (result.policy.upper, -0.5 * m.p * spec.r, -0.9 * m.p * spec.r):
        with mpmath.workdps(30):
            assert float(abs(ps.value(x) / oracle.value(x) - 1)) <= 1e-10, x


def test_deep_band_matches_window_oracle():
    mpmath = pytest.importorskip("mpmath")
    spec = DEEP_BAND_SPEC
    m = spec.model
    ps = ParisianScale(spec)
    oracle = CramerLundbergWindowOracle(m.p, m.lam, m.mu_claim, spec.delta, spec.q, spec.r, dps=20)
    for depth in (0.999, 0.99, 0.5):
        x = -depth * m.p * spec.r
        with mpmath.workdps(30):
            assert float(abs(ps.value(x) / oracle.value(x) - 1)) <= 1e-10, depth


@pytest.mark.parametrize("spec", [
    # q*r = 720: V(0) = e^{qr} itself is not a finite double
    ProblemSpec(CramerLundberg(p=3.0, lam=2.0, mu_claim=1.5), delta=0.3, q=4.0, r=180.0, beta=0.5),
    # q*r = 823
    ProblemSpec(BrownianMotion(mu=0.5, sigma=0.75), delta=0.05, q=4.2, r=196.0, beta=0.5),
], ids=["cl_large_qr", "bm_large_qr"])
def test_exp_overflow_in_construction_is_typed(spec):
    with pytest.raises(OverflowRangeError, match="double range"):
        ParisianScale(spec)


def test_incomplete_gamma_rejects_non_finite_argument(bounded_python):
    # P(3, nan) used to spin forever in the tail loop
    code = f"""
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from parisian_impulse import DomainError
from oracles import regularized_lower_gamma
for x in (float("nan"), float("inf"), -float("inf")):
    try:
        regularized_lower_gamma(3, x)
        print("returned")
    except DomainError:
        print("DomainError")
"""
    assert bounded_python(code, timeout=30.0).split() == ["DomainError"] * 3

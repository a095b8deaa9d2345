"""Exponential-pair machinery, scale functions and the refracted scale."""
from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from parisian_impulse import (
    BrownianMotion,
    DomainError,
    ExponentialPair,
    NumericalError,
    OverflowRangeError,
    ProblemSpec,
    UndefinedDerivativeError,
    compute_coefficients,
)
from parisian_impulse.models import EXP_ARG_MAX
from parisian_impulse.scale import ScaleFunction, refracted_pair, refracted_scale

import oracles
from params import brownian_spec, census_box_specs, cramer_lundberg_spec, log_uniform, outcome

PAIR = ExponentialPair(a=2.0, b=1.5, kp=0.3, km=-0.7)


def test_pair_value_matches_definition():
    x = 1.7
    assert PAIR.value(x) == pytest.approx(
        2.0 * math.exp(0.3 * x) - 1.5 * math.exp(-0.7 * x), rel=1e-15, abs=0.0
    )


def test_pair_derivatives_match_finite_differences():
    x = 0.9
    h = 1e-6
    fd1 = (PAIR.value(x + h) - PAIR.value(x - h)) / (2.0 * h)
    assert PAIR.derivative(x) == pytest.approx(fd1, rel=1e-8)


def test_pair_integral_from_zero():
    h, x = 1e-6, 1.3
    fd = (PAIR.integral_from_zero(x + h) - PAIR.integral_from_zero(x - h)) / (2.0 * h)
    assert fd == pytest.approx(PAIR.value(x), rel=1e-9)
    assert PAIR.integral_from_zero(0.0) == 0.0


def test_pair_accepts_arrays():
    xs = np.array([0.0, 0.5, 2.0])
    out = PAIR.value(xs)
    assert isinstance(out, np.ndarray)
    assert out[1] == pytest.approx(PAIR.value(0.5))
    assert isinstance(PAIR.value(0.5), float)


def test_pair_derivative_argmin():
    pair = ExponentialPair(a=1.0, b=5.0, kp=0.3, km=-0.7)
    xm = pair.derivative_argmin()
    xs = np.linspace(0.0, 4.0 * xm, 4001)
    grid_argmin = xs[np.argmin(pair.derivative(xs))]
    assert xm == pytest.approx(grid_argmin, abs=2e-3)
    assert pair.derivative(xm) <= min(pair.derivative(xm - 1e-4), pair.derivative(xm + 1e-4))
    # no decaying component (or one too weak to matter): minimum sits at 0
    assert ExponentialPair(1.0, -0.5, 0.3, -0.7).derivative_argmin() == 0.0
    assert ExponentialPair(1.0, 0.01, 0.9, -0.1).derivative_argmin() == 0.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a, b", [(1.0, 5.0), (1.0, -5.0), (2.0, 1.5), (-1.0, 5.0)])
def test_pair_derivative_zero(a, b, n):
    # the zero of the n-th derivative: n = 2 gives the argmin of f', n = 3
    # the point of least f'' when b < 0
    pair = ExponentialPair(a, b, 0.3, -0.7)
    ratio = b * (-0.7) ** n / (a * 0.3**n)
    z = pair.derivative_zero(n)
    if a > 0.0 and ratio > 0.0:
        assert z == math.log(ratio) / (0.3 - -0.7)
        grow, decay = a * 0.3**n * math.exp(0.3 * z), b * (-0.7) ** n * math.exp(-0.7 * z)
        assert grow - decay == pytest.approx(0.0, abs=1e-15 * grow)
    else:
        assert z == -math.inf
    # a tiny q: a * kp**n underflows, and the ratio would leave the double range
    with pytest.raises(OverflowRangeError, match=rf"a \* kp\*\*{n} underflows"):
        ExponentialPair(1.0, 1.0, 1e-170, -0.7).derivative_zero(n)


def test_pair_overflow_guard():
    with pytest.raises(OverflowRangeError):
        PAIR.value(1e5)
    with pytest.raises(OverflowRangeError):
        PAIR.derivative(np.array([1.0, 1e5]))


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_scale_function_basics(spec):
    w = ScaleFunction(compute_coefficients(spec).surplus, spec.q)
    assert w.value(-1.0) == 0.0
    assert w.derivative(-0.5) == 0.0
    assert w.second_scale(-2.0) == 1.0
    assert w.second_scale(0.0) == 1.0
    assert w.value(0.0) == pytest.approx(w.pair.a - w.pair.b, abs=1e-16)
    # companion function integrates q * W
    h = 1e-6
    fd = (w.second_scale(1.5 + h) - w.second_scale(1.5 - h)) / (2.0 * h)
    assert fd == pytest.approx(spec.q * w.value(1.5), rel=1e-8)
    # matches the independently derived two-exponential form
    for x in (0.0, 0.4, 2.0, 5.0):
        assert w.value(x) == pytest.approx(
            oracles.scale_value(spec.model, spec.q, x), rel=1e-12, abs=0.0
        )


def test_scale_derivative_at_zero_known_values():
    bm_spec, cl_spec = brownian_spec(), cramer_lundberg_spec()
    bm = ScaleFunction(compute_coefficients(bm_spec).surplus, bm_spec.q)
    assert bm.derivative(0.0) == pytest.approx(2.0 / 0.75**2, rel=1e-13, abs=0.0)
    cl = ScaleFunction(compute_coefficients(cl_spec).surplus, cl_spec.q)
    # (q + lam) / p^2 for the compound Poisson surplus
    assert cl.derivative(0.0) == pytest.approx(2.05 / 9.0, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_refracted_scale_continuity_at_zero(spec):
    cs = compute_coefficients(spec)
    w = ScaleFunction(cs.surplus, spec.q)
    for z in (0.0, 0.5, 2.0, 6.0):
        assert refracted_scale(cs, 0.0, z) == pytest.approx(w.value(z), rel=1e-11)
    # below the refraction level the surplus scale takes over, continuously
    assert refracted_scale(cs, -0.7, 2.0) == pytest.approx(w.value(1.3), rel=1e-13, abs=0.0)
    assert refracted_scale(cs, -3.0, 2.0) == 0.0


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_refracted_scale_on_arrays_matches_scalar_calls(spec):
    cs = compute_coefficients(spec)
    xs = np.array([-3.0, -0.7, 0.0, 0.4, 2.5])
    depths = np.array([0.0, 0.3, 1.7, 5.9])
    # an array of x at one depth takes the scalar code point by point
    assert refracted_scale(cs, xs, 1.3).tolist() == [refracted_scale(cs, x, 1.3) for x in xs]
    # an array of depths at one x
    for x in xs:
        want = [refracted_scale(cs, float(x), float(z)).hex() for z in depths]
        assert [v.hex() for v in refracted_scale(cs, float(x), depths).tolist()] == want
    with pytest.raises(ValueError):
        refracted_pair(cs, np.array([0.5, -0.1]))


NAN_ERROR = (DomainError, "an exponential pair is undefined at NaN")


_outcome = functools.partial(outcome, errors=(DomainError, OverflowRangeError))


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_scale_function_nan_raises(spec):
    # a NaN x gave NaN silently; on a float and inside an array it raises the
    # exponential pair's DomainError, with no warning
    w = ScaleFunction(compute_coefficients(spec).surplus, spec.q)
    for f in (w.value, w.derivative, w.second_scale):
        for x in (math.nan, np.array([1.0, math.nan])):
            assert _outcome(lambda: f(x)) == NAN_ERROR


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_refracted_scale_scalar_depth_matches_one_point_array_bitwise(spec):
    # a float x at a float depth is read on floats by ExponentialPair.at: it must
    # give the bits of the one-point x array and of the one-point depth array,
    # which take one exp with it (math.exp and np.exp differ in the last bit for
    # a few percent of arguments on some CPUs), on both sides of 0, out to the
    # end of the exp range, with no warning; a NaN x raises one DomainError on every route
    cs = compute_coefficients(spec)
    rng = np.random.default_rng(17)
    edge = EXP_ARG_MAX / cs.surplus.kp
    points = list(zip(rng.uniform(-3.0, 6.0, 2000), rng.uniform(0.0, 6.0, 2000)))
    points += [(x, edge * (1.0 - e)) for x in (-edge / 2, -1.0, 0.0, 3.0) for e in (1e-12, 0.0)]
    points += [(-math.inf, 1.3), (-1.3, 1.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, z in points:
            x, z = float(x), float(z)
            scalar = refracted_scale(cs, x, z)
            assert type(scalar) is float, (x, z)
            by_x = _outcome(lambda: refracted_scale(cs, np.array([x]), z))
            by_depth = _outcome(lambda: refracted_scale(cs, x, np.array([z])))
            assert scalar.hex() == by_x == by_depth, (x, z)
        # errors: the type and text of the array route; an array of depths prints as one
        past, far = edge * (1.0 + 1e-12), EXP_ARG_MAX / cs.refracted.kp * (1.0 + 1e-12)
        for x, z in [(0.0, past), (3.0, past), (math.inf, 1.3), (far, 1.3),
                     (-1.0, -0.5), (0.5, -0.5), (-1.0, math.nan), (0.5, math.nan)]:
            error = _outcome(lambda: refracted_scale(cs, x, z))
            assert error[0] in (DomainError, OverflowRangeError), (x, z)
            assert error == _outcome(lambda: refracted_scale(cs, np.array([x]), z)), (x, z)
            assert error[0] == _outcome(lambda: refracted_scale(cs, x, np.array([z])))[0]
        for z in (1.3, 0.0):
            assert {_outcome(lambda: refracted_scale(cs, math.nan, z)),
                    _outcome(lambda: refracted_scale(cs, np.array([math.nan]), z)),
                    _outcome(lambda: refracted_scale(cs, math.nan, np.array([z])))} == {NAN_ERROR}
    pair = refracted_pair(cs, 1.0)
    assert isinstance(pair.a, float) and isinstance(pair.b, float)


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_refracted_scale_array_reads_each_branch_on_its_own_points(spec):
    # an array of x once read the surplus branch on every point and the refracted
    # pair on every point too: a depth past the pair's exp range raised for points
    # below 0 whose surplus branch is finite (x = -3687 at z = 7373.79 on the
    # Brownian spec).  At both ends of the exp range, in depth and in x, each
    # point of an array equals the float call, bit for bit and error for error
    cs = compute_coefficients(spec)
    edge, far = EXP_ARG_MAX / cs.surplus.kp, EXP_ARG_MAX / cs.refracted.kp
    below = [-0.5 * edge, -1.0]  # inside the exp range at every depth below
    xs = below + [-1e-300, -0.0, 0.0, 3.0, far * (1.0 - 1e-12), far * (1.0 + 1e-12), math.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (edge * (1.0 - 1e-12), edge * (1.0 + 1e-12), 1.3, 0.0):
            for x in xs:
                want = _outcome(lambda: refracted_scale(cs, x, z))
                assert _outcome(lambda: refracted_scale(cs, np.array([x]), z)) == want, (x, z)
            got = refracted_scale(cs, np.array(below), z).tolist()
            assert [v.hex() for v in got] == [refracted_scale(cs, x, z).hex() for x in below]
        z = edge * (1.0 + 1e-12)
        assert math.isfinite(refracted_scale(cs, np.array([-0.5 * edge]), z)[0])
        with pytest.raises(OverflowRangeError):
            refracted_scale(cs, np.array([-0.5 * edge, 0.0]), z)


def test_refracted_scale_out_of_double_range_is_typed():
    # kp*x is 10.4 inside the exp range, but w(100; -z) overflows: both routes
    # returned inf, the array one with "overflow encountered in multiply"
    cs = compute_coefficients(brownian_spec())
    z = 0.999999 * EXP_ARG_MAX / cs.surplus.kp
    # mu = 0 and a small sigma and q put W(z) = 7e5 * e^{kp z} past the double range
    # below 0 too, and the refracted coefficients with it
    flat = compute_coefficients(ProblemSpec(BrownianMotion(0.0, 1e-3), delta=1e-6, q=1e-6,
                                            r=1.0, beta=0.1))
    z_flat = 0.999999 * EXP_ARG_MAX / flat.surplus.kp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cs_, x, depth in [(cs, 100.0, z), (flat, 0.0, z_flat), (flat, -1e-9, z_flat)]:
            for arg in (x, np.array([x]), np.array([-1.0, 3.0, x])):
                with pytest.raises(OverflowRangeError, match="double range"):
                    refracted_scale(cs_, arg, depth)
        # NaN x raises one DomainError on both routes, and a finite result is kept
        for arg in (math.nan, np.array([math.nan])):
            assert _outcome(lambda: refracted_scale(cs, arg, z)) == NAN_ERROR
        assert refracted_scale(cs, np.array([3.0]), z)[0] == refracted_scale(cs, 3.0, z)
        assert math.isfinite(refracted_scale(cs, 3.0, z))
        with pytest.raises(OverflowRangeError):
            refracted_scale(cs, 100.0, np.array([1.0, z]))  # an array of depths


@settings(max_examples=150, deadline=None)
@given(spec=census_box_specs(), x=log_uniform(1e-3, 1e3), z=log_uniform(1e-3, 1e3))
def test_float_refracted_scale_reads_the_refracted_pair_unbuilt(spec, x, z):
    # a float x >= 0 at a float depth reads the refracted weights through the pair's
    # one overflow decision without building a pair: the bits, or the error type and
    # text, of refracted_pair(cs, depth).at(x) and of the one-point array route, also
    # at depths on the surplus pair's edge and for x past the refracted pair's edge
    try:
        cs = compute_coefficients(spec)
    except NumericalError:
        return
    edge = float(cs.surplus.edge)
    for depth in (z, 0.0, edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
        try:
            far = float(refracted_pair(cs, depth).edge)
        except OverflowRangeError:
            far = x
        for point in (x, 0.0, -0.0, far, math.nextafter(far, math.inf), 2.0 * far, math.inf,
                      math.nan):
            got = outcome(lambda: refracted_scale(cs, point, depth), python_float=True)
            assert got == outcome(lambda: refracted_pair(cs, depth).at(point)[0]), (point, depth)
            assert got == outcome(lambda: refracted_scale(cs, np.array([point]), depth))


def test_refracted_scale_frozen_values():
    # frozen from a 50-digit evaluation of the defining convolution
    bm = compute_coefficients(brownian_spec())
    assert refracted_scale(bm, 1.5, 0.8) == pytest.approx(2.27848578271, rel=1e-10)
    cl = compute_coefficients(cramer_lundberg_spec())
    assert refracted_scale(cl, 3.0, 6.0) == pytest.approx(1.30657607759, rel=1e-10)


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
@pytest.mark.parametrize("x,z", [(0.8, 0.0), (1.5, 0.8), (3.2, 2.4)])
def test_refracted_scale_matches_convolution(spec, x, z):
    cs = compute_coefficients(spec)
    target = oracles.refracted_scale_by_convolution(spec, x, z)
    assert refracted_scale(cs, x, z) == pytest.approx(target, rel=1e-10)


def test_refracted_scale_rejects_negative_depth():
    cs = compute_coefficients(brownian_spec())
    for depth in (-0.1, math.nan):
        with pytest.raises(DomainError):
            refracted_pair(cs, depth)
        with pytest.raises(DomainError):
            refracted_scale(cs, -1.0, depth)  # scalar start below zero


def test_refracted_derivative_smooth_for_diffusion():
    cs = compute_coefficients(brownian_spec())
    left = oracles.refracted_scale_derivative(cs, -1e-9, 0.8)
    right = oracles.refracted_scale_derivative(cs, 1e-9, 0.8)
    assert left == pytest.approx(right, rel=1e-6)
    assert oracles.refracted_scale_derivative(cs, 0.0, 0.8) == pytest.approx(right, rel=1e-6)


def test_refracted_derivative_jump_for_compound_poisson():
    spec = cramer_lundberg_spec()
    cs = compute_coefficients(spec)
    with pytest.raises(UndefinedDerivativeError):
        oracles.refracted_scale_derivative(cs, 0.0, 2.0)
    # the jump size is delta * (refracted mass at zero) * W'(depth)
    left = oracles.refracted_scale_derivative(cs, -1e-12, 2.0)
    right = oracles.refracted_scale_derivative(cs, 1e-12, 2.0)
    w = ScaleFunction(cs.surplus, spec.q)
    expected = spec.delta / (spec.model.p - spec.delta) * w.derivative(2.0)
    assert right - left == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("spec", [brownian_spec(), cramer_lundberg_spec()])
def test_refracted_derivative_argmin(spec):
    cs = compute_coefficients(spec)
    xm = oracles.refracted_derivative_argmin(cs, 1.0)
    xs = np.linspace(1e-9, max(4.0 * xm, 8.0), 8001)
    vals = np.array([oracles.refracted_scale_derivative(cs, float(x), 1.0) for x in xs])
    assert xm == pytest.approx(float(xs[np.argmin(vals)]), abs=5e-3)

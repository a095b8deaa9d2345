"""The Parisian refracted scale function V, its series pieces and oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, i1

from parisian_impulse import (
    BrownianMotion,
    CompoundPoissonWindow,
    CramerLundberg,
    OverflowRangeError,
    ProblemSpec,
    SeriesConvergenceError,
    UndefinedDerivativeError,
    find_optimal_policy,
)
from parisian_impulse.models import compute_coefficients
from parisian_impulse.parisian import ParisianScale, parisian_scale, regularized_lower_gamma

from params import brownian_spec, cramer_lundberg_spec

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


def test_value_at_zero_is_discounted_delay(bm_scale, cl_scale):
    for ps in (bm_scale, cl_scale):
        assert ps.value(0.0) == pytest.approx(
            math.exp(ps.spec.q * ps.spec.r), rel=1e-12
        )


def test_frozen_values_brownian(bm_scale):
    for x, v in FROZEN_BM.items():
        assert bm_scale.value(x) == pytest.approx(v, rel=1e-9), f"x={x}"


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
    assert bm_scale.derivative_argmin() == pytest.approx(1.222869037, rel=1e-8)
    assert cl_scale.derivative_argmin() == pytest.approx(3.816323204, rel=1e-8)
    for ps in (bm_scale, cl_scale):
        xm = ps.derivative_argmin()
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
        direct = ps.quadrature_value(x)
        assert closed == pytest.approx(direct, rel=1e-9), f"x={x}"


def test_regularized_lower_gamma_against_scipy():
    for order in (1, 2, 3, 5, 10, 40, 120):
        for x in (1e-8, 0.1, 1.0, 5.0, 30.0, 200.0):
            mine = regularized_lower_gamma(order, x)
            ref = float(gammainc(order, x))
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-300), (order, x)


def test_regularized_lower_gamma_edges():
    assert regularized_lower_gamma(3, 0.0) == 0.0
    assert regularized_lower_gamma(3, -1.0) == 0.0
    with pytest.raises(ValueError):
        regularized_lower_gamma(0, 1.0)
    # deep underflow region returns a clean zero
    assert regularized_lower_gamma(400, 1e-3) == 0.0


def test_compound_window_density():
    window = CompoundPoissonWindow(lam=2.0, mu_claim=1.0, r=2.0)
    assert window.atom == pytest.approx(math.exp(-4.0), rel=1e-15)
    assert window.density(0.0) == 0.0
    assert window.density(-1.0) == 0.0
    # closed Bessel form of the same density
    c = 2.0 * 2.0 * 1.0
    for y in (0.05, 0.5, 2.0, 7.0, 20.0):
        ref = math.exp(-4.0 - y) * math.sqrt(c / y) * float(i1(2.0 * math.sqrt(c * y)))
        assert window.density(y) == pytest.approx(ref, rel=1e-10), f"y={y}"
    # atom plus continuous mass adds to one
    mass, _ = quad(window.density, 0.0, 200.0, epsabs=1e-12, epsrel=1e-11, limit=300)
    assert window.atom + mass == pytest.approx(1.0, abs=1e-9)


def test_window_series_term_budget():
    # far outside the design envelope the series guard must trip, not spin
    window = CompoundPoissonWindow(lam=5000.0, mu_claim=1.0, r=1.0)
    with pytest.raises(SeriesConvergenceError):
        window.density(100.0)


def test_compound_window_accessor(bm_scale, cl_scale):
    assert bm_scale.compound_window() is None
    w = cl_scale.compound_window()
    assert (w.lam, w.mu_claim, w.r) == (2.0, 1.0, 2.0)


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


def test_series_constant_overflow_is_typed():
    # a long window with a fast discount: the series constant overflows, and
    # V on x >= 0 would come out as inf - inf = nan
    spec = ProblemSpec(
        CramerLundberg(p=2.68956546879706, lam=2.747048294530684, mu_claim=1.7277246454377586),
        delta=0.4294724124360556,
        q=1.30526300043215,
        r=100.40425596173607,
        beta=0.4775314543234669,
    )
    with pytest.raises(OverflowRangeError):
        ParisianScale(spec)


@pytest.mark.parametrize("spec", [
    # window p*r = 586: the series term base^m / (m+1)! leaves the double range
    ProblemSpec(CramerLundberg(p=3.78, lam=2.37, mu_claim=1.61),
                delta=0.43, q=0.10, r=155.0, beta=0.5),
    # q*r = 823: V(0) = e^{qr} itself is not a finite double
    ProblemSpec(BrownianMotion(mu=0.5, sigma=0.75), delta=0.05, q=4.2, r=196.0, beta=0.5),
], ids=["cl_long_window", "bm_large_qr"])
def test_exp_overflow_in_construction_is_typed(spec):
    with pytest.raises(OverflowRangeError, match="double range"):
        ParisianScale(spec)


def test_incomplete_gamma_rejects_non_finite_argument(bounded_python):
    # P(3, nan) used to spin forever in the tail loop
    code = """
from parisian_impulse import DomainError
from parisian_impulse.parisian import regularized_lower_gamma
for x in (float("nan"), float("inf"), -float("inf")):
    try:
        regularized_lower_gamma(3, x)
        print("returned")
    except DomainError:
        print("DomainError")
"""
    assert bounded_python(code, timeout=30.0).split() == ["DomainError"] * 3

"""The package's adaptive Gauss-Kronrod rule against SciPy's QUADPACK and mpmath."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from parisian_impulse.cli import _quadrature_points
from parisian_impulse.models import CramerLundberg
from parisian_impulse.parisian import parisian_scale
from parisian_impulse.quadrature import (GAUSS, KRONROD, NODES, CompoundPoissonWindow, integrate,
                                         quadrature_value)
from parisian_impulse.scale import refracted_scale

from params import brownian_spec, cramer_lundberg_spec

mpmath = pytest.importorskip("mpmath")

# (name, NumPy integrand, mpmath integrand, interval, breakpoints for mpmath)
INTEGRANDS = [
    ("smooth", lambda x: np.exp(-x) * np.cos(3.0 * x), lambda x: mpmath.exp(-x) * mpmath.cos(3 * x),
     (0.0, 4.0), []),
    ("peaked", lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), lambda x: 1 / (mpmath.mpf("1e-6") + (x - mpmath.mpf("0.3")) ** 2),
     (0.0, 1.0), [mpmath.mpf("0.3")]),
    ("kinked", lambda x: np.abs(x - 1.0 / 3.0) * np.exp(x), lambda x: abs(x - mpmath.mpf(1) / 3) * mpmath.exp(x),
     (0.0, 2.0), [mpmath.mpf(1) / 3]),
]


def test_rule_weights_integrate_polynomials_exactly():
    # K15 is exact to degree 22, G7 to degree 13
    for degree in range(24):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert KRONROD @ NODES**degree == pytest.approx(exact, abs=1e-15)
        if degree < 14:
            assert GAUSS @ NODES**degree == pytest.approx(exact, abs=1e-15)
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert np.sort(NODES[GAUSS > 0]) == pytest.approx(gauss_nodes, abs=1e-15)
    assert GAUSS[GAUSS > 0] == pytest.approx(gauss_weights, abs=1e-15)


@pytest.mark.parametrize("name,f,f_mp,interval,breaks", INTEGRANDS, ids=[i[0] for i in INTEGRANDS])
def test_integrate_against_quadpack_and_mpmath(name, f, f_mp, interval, breaks):
    a, b = interval
    value, err = integrate(f, a, b, epsabs=1e-12, epsrel=1e-11)
    with mpmath.workdps(40):
        exact = mpmath.quad(f_mp, [mpmath.mpf(a)] + breaks + [mpmath.mpf(b)])
    true_err = float(abs(value - exact))
    assert true_err <= err, (name, true_err, err)
    assert true_err <= 1e-11 * abs(float(exact)) + 1e-12, name
    ref, _ = quad(lambda x: float(f(np.array([x]))[0]), a, b,
                  epsabs=1e-12, epsrel=1e-11, limit=500)
    assert value == pytest.approx(ref, rel=1e-10, abs=1e-12), name


def test_non_integrable_singularity_raises_in_bounded_time(bounded_python):
    code = """
from parisian_impulse import QuadratureFailureError
from parisian_impulse.quadrature import integrate
try:
    integrate(lambda x: 1.0 / x, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)
    print("returned")
except QuadratureFailureError:
    print("QuadratureFailureError")
"""
    assert bounded_python(code, timeout=30.0).split() == ["QuadratureFailureError"]


def test_non_finite_integrand_raises():
    from parisian_impulse import QuadratureFailureError

    with pytest.raises(QuadratureFailureError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)


def _window_integral_by_quadpack(ps, x: float) -> float:
    """The window integral of ``quadrature_value`` on scalar calls through
    SciPy's ``quad``, split where ``quadrature_value`` splits it."""
    spec, cs = ps.spec, ps.coefficient_set
    m = spec.model
    lo = max(0.0, -x)
    if isinstance(m, CramerLundberg):
        pr = m.p * spec.r
        if x < -pr:
            return 0.0
        window = CompoundPoissonWindow(m.lam, m.mu_claim, spec.r)
        total = window.atom * m.p * refracted_scale(cs, x, pr)
        pieces = [(lo, pr)]
        dens = lambda z: window.density(pr - z)
    else:
        mean, sd = m.mu * spec.r, m.sigma * math.sqrt(spec.r)
        total = 0.0
        pieces = [(lo, max(lo, mean)), (max(lo, mean), mean + 12.0 * sd)]
        dens = lambda z: math.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    for a, b in pieces:
        if a < b:
            total += quad(lambda z: refracted_scale(cs, x, z) * (z / spec.r) * dens(z),
                          a, b, epsabs=1e-10, epsrel=1e-11, limit=500)[0]
    return total


@pytest.mark.parametrize("spec,lo", [(brownian_spec(), -4.0), (cramer_lundberg_spec(), -7.0)],
                         ids=["bm", "cl"])
def test_window_integral_matches_quadpack(spec, lo):
    # the points of the verify command and the criterion 2 grid
    ps = parisian_scale(spec)
    for x in _quadrature_points(spec) + [float(x) for x in np.linspace(lo, 8.0, 25)]:
        ref = _window_integral_by_quadpack(ps, x)
        assert quadrature_value(ps, x) == pytest.approx(ref, rel=1e-10, abs=1e-300), x

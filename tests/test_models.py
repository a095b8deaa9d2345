"""Model validation, Laplace exponents, exponent roots and scale coefficients."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from parisian_impulse import (
    BrownianMotion,
    ConfigError,
    CramerLundberg,
    DomainError,
    ExponentialPair,
    InvalidRefractionError,
    OverflowRangeError,
    ProblemSpec,
    compute_coefficients,
    drift_adjusted,
    laplace_exponent,
    right_inverse,
)
from parisian_impulse.models import EXP_ARG_MAX
from parisian_impulse.parisian import parisian_scale

from params import brownian_spec, cramer_lundberg_spec

MODELS = [
    BrownianMotion(0.5, 0.75),
    BrownianMotion(-0.3, 1.2),
    CramerLundberg(3.0, 2.0, 1.0),
    CramerLundberg(1.5, 4.0, 3.0),
]


def test_laplace_exponent_brownian():
    m = BrownianMotion(0.5, 0.75)
    assert laplace_exponent(m, 0.0) == 0.0
    assert laplace_exponent(m, 2.0) == pytest.approx(0.5 * 2.0 + 0.5 * 0.75**2 * 4.0)


def test_laplace_exponent_compound_poisson():
    m = CramerLundberg(3.0, 2.0, 1.0)
    assert laplace_exponent(m, 0.0) == 0.0
    # p - lam * 1 / (mu + 1) at theta = 1
    assert laplace_exponent(m, 1.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        laplace_exponent(m, -1.0)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("q", [0.01, 0.05, 1.0])
def test_right_inverse_solves_exponent(model, q):
    phi = right_inverse(model, q)
    assert phi > 0.0
    assert laplace_exponent(model, phi) == pytest.approx(q, rel=1e-12, abs=0.0)


def test_right_inverse_rejects_negative_q():
    with pytest.raises(DomainError):
        right_inverse(BrownianMotion(0.5, 0.75), -0.1)


def test_right_inverse_double_root_at_zero():
    # q = 0 with zero drift: psi(theta) = theta^2 / 2 has its double root at 0
    assert right_inverse(BrownianMotion(0.0, 1.0), 0.0) == 0.0


@pytest.mark.parametrize("model", MODELS)
def test_both_scale_rates_solve_exponent(model):
    c = compute_coefficients(ProblemSpec(model, 0.01, 0.05, 1.0, 0.5)).surplus
    assert c.kp > 0.0 > c.km
    assert laplace_exponent(model, c.kp) == pytest.approx(0.05, rel=1e-10)
    assert laplace_exponent(model, c.km) == pytest.approx(0.05, rel=1e-10)
    assert c.a > 0.0 and c.b > 0.0


# Drift much larger than the discount rate: the textbook quadratic formula
# cancels in the small root (Brownian kp, compound Poisson kp
# for p*mu_claim >> lam + q, km for lam + q >> p*mu_claim) and is off
# by 3e-14 to 5e-12 relative on these specs.
STEEP_SPECS = [
    ProblemSpec(BrownianMotion(2.274186884288196, 0.3), 0.01, 0.01, 1.0, 0.5),
    ProblemSpec(CramerLundberg(5.0, 0.1, 3.0), 0.5, 0.01, 1.0, 0.5),
    ProblemSpec(CramerLundberg(0.6, 4.0, 0.1), 0.1, 0.002, 1.0, 0.5),
]


@pytest.mark.parametrize("spec", STEEP_SPECS)
def test_scale_rates_match_mpmath_on_steep_specs(spec):
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50

    def roots(model, q):
        if isinstance(model, BrownianMotion):
            a, b, c = mp.mpf(model.sigma) ** 2 / 2, mp.mpf(model.mu), -mp.mpf(q)
        else:
            p, lam, mu = (mp.mpf(v) for v in (model.p, model.lam, model.mu_claim))
            a, b, c = p, p * mu - lam - q, -q * mu
        disc = mp.sqrt(b * b - 4 * a * c)
        return (-b + disc) / (2 * a), (-b - disc) / (2 * a)

    cs = compute_coefficients(spec)
    for model, coeffs in ((spec.model, cs.surplus), (drift_adjusted(spec), cs.refracted)):
        plus, minus = roots(model, spec.q)
        assert coeffs.kp == pytest.approx(float(plus), rel=1e-14, abs=0.0)
        assert coeffs.km == pytest.approx(float(minus), rel=1e-14, abs=0.0)
        assert right_inverse(model, spec.q) == coeffs.kp


NON_FINITE = [
    "BrownianMotion(mu=nan, sigma=0.75)",
    "BrownianMotion(mu=0.5, sigma=inf)",
    "CramerLundberg(p=inf, lam=2.0, mu_claim=1.0)",
    "CramerLundberg(p=3.0, lam=nan, mu_claim=1.0)",
    "CramerLundberg(p=3.0, lam=2.0, mu_claim=inf)",
    "ProblemSpec(CramerLundberg(3.0, 2.0, 1.0), delta=nan, q=0.05, r=2.0, beta=0.5)",
    "ProblemSpec(BrownianMotion(0.5, 0.75), delta=0.05, q=inf, r=2.0, beta=0.5)",
    "ProblemSpec(BrownianMotion(0.5, 0.75), delta=0.05, q=0.05, r=inf, beta=0.5)",
    "ProblemSpec(BrownianMotion(0.5, 0.75), delta=0.05, q=0.05, r=2.0, beta=inf)",
]


def test_non_finite_parameters_rejected(bounded_python):
    # each case goes on to evaluate V; a spec with p=inf used to be accepted
    # and then loop forever in the incomplete gamma series
    code = f"""
from math import inf, nan
from parisian_impulse import *
for expr in {NON_FINITE!r}:
    try:
        built = eval(expr)
        spec = built if isinstance(built, ProblemSpec) else ProblemSpec(
            built, delta=0.05, q=0.05, r=2.0, beta=0.5)
        parisian_scale(spec).value(-1.0)
        print("accepted")
    except ConfigError:
        print("ConfigError")
"""
    assert bounded_python(code).split() == ["ConfigError"] * len(NON_FINITE)


def test_compound_poisson_roots_frozen():
    # frozen from the quadratic formula at 50-digit precision
    X = compute_coefficients(cramer_lundberg_spec()).surplus
    assert X.kp == pytest.approx(0.0459608445355, rel=1e-11)
    assert X.km == pytest.approx(-0.362627511202, rel=1e-11)
    # the negative root stays above the claim-size pole
    assert X.km > -1.0


def test_mass_at_zero():
    assert compute_coefficients(brownian_spec()).surplus.value(0.0) == 0.0
    cl = compute_coefficients(cramer_lundberg_spec()).surplus
    assert cl.value(0.0) == pytest.approx(1.0 / 3.0, rel=1e-13, abs=0.0)


def test_rate_plus_is_right_inverse():
    for spec in (brownian_spec(), cramer_lundberg_spec()):
        cs = compute_coefficients(spec)
        assert cs.surplus.kp == pytest.approx(
            right_inverse(spec.model, spec.q), rel=1e-13, abs=0.0
        )
        assert cs.refracted.kp == pytest.approx(
            right_inverse(drift_adjusted(spec), spec.q), rel=1e-13, abs=0.0
        )


def test_drift_adjusted():
    bm = drift_adjusted(brownian_spec())
    assert bm == BrownianMotion(0.45, 0.75)
    cl = drift_adjusted(cramer_lundberg_spec())
    assert cl == CramerLundberg(2.75, 2.0, 1.0)


def test_coefficients_cached_per_spec():
    # frozen dataclass keys: equal specs share one coefficient set
    assert compute_coefficients(brownian_spec()) is compute_coefficients(brownian_spec())


def test_refraction_slows_growth():
    # removing drift lowers the dominant growth rate of the scale function
    for spec in (brownian_spec(), cramer_lundberg_spec()):
        cs = compute_coefficients(spec)
        assert cs.refracted.kp > cs.surplus.kp


@pytest.mark.parametrize(
    "bad",
    [
        lambda: BrownianMotion(0.5, 0.0),
        lambda: BrownianMotion(0.5, -1.0),
        lambda: CramerLundberg(0.0, 2.0, 1.0),
        lambda: CramerLundberg(3.0, -2.0, 1.0),
        lambda: CramerLundberg(3.0, 2.0, 0.0),
    ],
)
def test_model_validation(bad):
    with pytest.raises(ConfigError):
        bad()


@pytest.mark.parametrize("field,value", [("delta", 0.0), ("q", -0.05), ("r", 0.0), ("beta", 0.0)])
def test_spec_validation(field, value):
    kwargs = dict(model=BrownianMotion(0.5, 0.75), delta=0.05, q=0.05, r=3.0, beta=0.05)
    kwargs[field] = value
    with pytest.raises(ConfigError):
        ProblemSpec(**kwargs)


def test_refraction_must_leave_positive_drift():
    with pytest.raises(InvalidRefractionError):
        ProblemSpec(CramerLundberg(3.0, 2.0, 1.0), delta=3.0, q=0.05, r=2.0, beta=1.0)
    # boundary value delta = p is also rejected
    with pytest.raises(InvalidRefractionError):
        ProblemSpec(CramerLundberg(3.0, 2.0, 1.0), delta=3.5, q=0.05, r=2.0, beta=1.0)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_float_path_equals_array_path_bit_for_bit():
    # ExponentialPair.at is every read of V on x >= 0 in the optimizer and its
    # certificates: its f and f' must carry the array route's bits out to the
    # end of the exp range, and past it raise as the array route does, all
    # without a RuntimeWarning (the last pair's f leaves the double range
    # before its exponent does; the array route warns there, the float path not)
    specs = (brownian_spec(), cramer_lundberg_spec())
    pairs = [compute_coefficients(s).surplus for s in specs]
    pairs += [parisian_scale(s).positive_pair for s in specs]
    pairs += [ExponentialPair(2.0, 1.5, 0.3, -0.7), ExponentialPair(1.0, -0.5, 2.0, -1.0),
              ExponentialPair(1e10, 1.0, 1.0, -1.0)]
    rng = np.random.default_rng(22)
    points = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in pairs:
            end = EXP_ARG_MAX / pair.kp
            xs = np.concatenate([rng.uniform(0.0, end, 20_000),
                                 end * (1.0 - np.logspace(-16, -1, 400)), [0.0, end]])
            floats = np.array([pair.at(x) for x in xs.tolist()])
            with np.errstate(over="ignore", invalid="ignore"):
                value, derivative = pair.value(xs), pair.derivative(xs)
            assert np.array_equal(_bits(floats[:, 0]), _bits(value))
            assert np.array_equal(_bits(floats[:, 1]), _bits(derivative))
            points += xs.size
            for x in (end * (1.0 + 1e-12), 2.0 * end, 1e300, np.inf):
                with pytest.raises(OverflowRangeError) as by_float:
                    pair.at(x)
                with pytest.raises(OverflowRangeError) as by_array:
                    pair.value(np.array([x]))
                assert str(by_float.value) == str(by_array.value)
    assert points >= 100_000
    assert np.isinf(pairs[-1].at(EXP_ARG_MAX)[0])

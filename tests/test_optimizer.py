"""Impulse policy search, value function and optimality certificates."""
from __future__ import annotations

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from parisian_impulse import (
    BrownianMotion,
    CramerLundberg,
    DomainError,
    ImpulsePolicy,
    NumericalError,
    OverflowRangeError,
    ProblemSpec,
    SolverFailureError,
    check_sufficiency_pair,
    check_transfer_inequality,
    find_optimal_policy,
    generator_residual,
    payout_ratio,
    value_function,
)
from parisian_impulse import optimizer
from parisian_impulse.config import build_problem_spec, parse_config_text
from parisian_impulse.cli import result_record
from parisian_impulse.parisian import ParisianScale, parisian_scale
from parisian_impulse.models import EXP_ARG_MAX

import oracles
from params import brownian_spec, cramer_lundberg_spec

# Frozen optima (50-digit stationarity solves of the closed form).  The
# compound Poisson beta=1 pair is interior: it beats the best boundary policy
# by ~5e-9 in the payout ratio, and V'(0+) exceeds that boundary ratio by
# 3.5e-5 (see test_cl_beta1_interior_by_mpmath_window_oracle).
FROZEN = {
    ("bm", 0.05): ("interior", 0.593910211912, 2.16208917931, 0.158989763938),
    ("bm", 1.0): ("boundary", 0.0, 5.2090698049, 0.216066078454),
    ("cl", 1.0): ("interior", 0.00258506708484, 9.36985528927, 0.132265073333),
    ("cl", 0.02): ("interior", 2.68786194109, 5.06398191237, 0.112360847342),
}


def _spec(kind, beta):
    return brownian_spec(beta) if kind == "bm" else cramer_lundberg_spec(beta)


def test_payout_ratio_matches_definition(bm_scale):
    spec = bm_scale.spec
    g = payout_ratio(bm_scale, 0.5, 2.0)
    manual = (bm_scale.value(2.0) - bm_scale.value(0.5)) / (2.0 - 0.5 - spec.beta)
    assert g == pytest.approx(manual, rel=1e-15, abs=0.0)
    assert g > 0.0


def test_payout_ratio_domain(bm_scale):
    with pytest.raises(DomainError):
        payout_ratio(bm_scale, -0.1, 2.0)
    with pytest.raises(DomainError):
        payout_ratio(bm_scale, 1.0, 1.05)  # gap equals beta
    with pytest.raises(DomainError):
        payout_ratio(bm_scale, 1.0, 0.5)


def test_payout_ratio_blows_up_near_gap():
    # g explodes as the net payout shrinks to zero
    for spec in (brownian_spec(1.0), cramer_lundberg_spec(1.0)):
        ps = parisian_scale(spec)
        near = payout_ratio(ps, 0.0, spec.beta + 1e-4)
        far = payout_ratio(ps, 0.0, spec.beta + 1.0)
        assert near > 1e3 * far


def test_policy_validation():
    with pytest.raises(DomainError):
        ImpulsePolicy(-0.2, 3.0).validate(0.05)
    with pytest.raises(DomainError):
        ImpulsePolicy(1.0, 1.04).validate(0.05)
    ImpulsePolicy(0.0, 2.0).validate(0.05)


@pytest.mark.parametrize("kind,beta", list(FROZEN))
def test_optimal_policy_frozen(kind, beta, optimum):
    case, c1, c2, g = FROZEN[(kind, beta)]
    result = optimum(_spec(kind, beta))
    assert result.case == case
    assert result.policy.lower == pytest.approx(c1, rel=1e-8, abs=1e-12)
    assert result.policy.upper == pytest.approx(c2, rel=1e-9)
    assert result.payout_ratio == pytest.approx(g, rel=1e-9)
    assert result.fo_residual < 1e-8
    assert result.sufficiency_pass


def test_cl_beta1_interior_by_mpmath_window_oracle():
    """A boundary policy (0, c2) is beaten by moving c1 off zero whenever
    V'(0+) > g(0, c2), since dg/dc1 at c1 = 0 is (g - V'(0+)) / (c2 - beta).
    The 30-digit window-integral oracle shows this at the best boundary
    trigger, so the compound Poisson beta=1 optimum must be interior."""
    mpmath = pytest.importorskip("mpmath")
    spec = cramer_lundberg_spec(1.0)
    m = spec.model
    oracle = oracles.CramerLundbergWindowOracle(
        m.p, m.lam, m.mu_claim, spec.delta, spec.q, spec.r, dps=30
    )
    ps = parisian_scale(spec)
    with mpmath.workdps(40):
        v0 = oracle.value(0)
        assert abs(v0 / mpmath.exp(mpmath.mpf(spec.q) * spec.r) - 1) < 1e-25
        # g(0, c) >= g_boundary for every c, so rounding the trigger to a
        # float can only shrink the margin asserted below
        c2b = float(oracle.best_boundary_trigger(spec.beta, upper=40.0))
        v_c2b = oracle.value(c2b)
        vp0 = oracle.derivative(0)
        for closed, exact in (
            (ps.value(0.0), v0),
            (ps.value(c2b), v_c2b),
            (ps.positive_pair.derivative(0.0), vp0),
        ):
            assert abs(closed / exact - 1) < 1e-12
        margin = vp0 - (v_c2b - v0) / (c2b - spec.beta)
        assert margin > 0
    closed_margin = ps.positive_pair.derivative(0.0) - payout_ratio(ps, 0.0, c2b)
    assert float(margin) == pytest.approx(closed_margin, rel=1e-8)


def test_boundary_case_is_exact_zero(optimum):
    result = optimum(brownian_spec(1.0))
    assert result.policy.lower == 0.0


def test_first_order_conditions_hold(bm_scale, optimum):
    result = optimum(bm_scale.spec)
    c1, c2 = result.policy.lower, result.policy.upper
    g = result.payout_ratio
    assert bm_scale.derivative(c2) == pytest.approx(g, rel=1e-10)
    assert bm_scale.derivative(c1) == pytest.approx(g, rel=1e-10)  # interior case


def test_brute_force_cannot_beat_polished(bm_scale, optimum):
    result = optimum(bm_scale.spec)
    g_brute, c1_b, c2_b = oracles.brute_force_payout_grid(bm_scale, 8.0, step=5e-3)
    assert g_brute >= result.payout_ratio - 1e-12
    assert g_brute - result.payout_ratio < 1e-4  # grid is that fine
    assert c1_b == pytest.approx(result.policy.lower, abs=6e-3)
    assert c2_b == pytest.approx(result.policy.upper, abs=6e-3)


def test_search_fails_cleanly_for_unpayable_cost():
    with pytest.raises(SolverFailureError):
        find_optimal_policy(parisian_scale(brownian_spec(1e6)))


def test_value_function_shape(bm_scale, optimum):
    result = optimum(bm_scale.spec)
    pol = result.policy
    up = pol.upper
    v = lambda x: value_function(bm_scale, pol, x)
    # continuous at the trigger, unit slope above it
    assert v(up - 1e-10) == pytest.approx(v(up), rel=1e-9)
    assert v(up + 2.0) - v(up + 1.0) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    # at the optimum the scaling factor is exactly 1/V'(c2*)
    for x in (0.0, 0.7, up):
        assert v(x) == pytest.approx(
            bm_scale.value(x) / bm_scale.derivative(up), rel=1e-10
        )
    assert v(0.0) > 0.0


def test_value_function_on_arrays_matches_scalar_calls(bm_scale, cl_scale, optimum):
    for ps in (bm_scale, cl_scale):
        pol = optimum(ps.spec).policy
        xs = np.array([-8.0, -1.0, 0.0, 0.5 * pol.upper, pol.upper, 1.5 * pol.upper])
        got = value_function(ps, pol, xs)
        assert got.tolist() == [value_function(ps, pol, float(x)) for x in xs]


def _drawn_specs(n_per_model, seed):
    """Specs of both models drawn from the benchmark's parameter box, the
    transaction cost wide enough for interior and boundary optima."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform

    def log_uniform(lo, hi):
        return math.exp(uniform(math.log(lo), math.log(hi)))

    specs = []
    for _ in range(n_per_model):
        common = dict(q=log_uniform(0.01, 5.0), r=log_uniform(0.5, 200.0), beta=uniform(0.02, 1.5))
        specs.append(ProblemSpec(BrownianMotion(uniform(0.1, 1.0), uniform(0.3, 1.5)),
                                 delta=uniform(0.01, 0.08), **common))
        model = CramerLundberg(uniform(2.0, 4.0), uniform(0.5, 3.0), uniform(0.8, 2.0))
        specs.append(ProblemSpec(model, delta=uniform(0.05, 0.5), **common))
    return specs


def _replaced_value_function(ps, policy, x):
    """The float route that value_function read V by before ExponentialPair.at:
    ``ps.value`` at x and, above the trigger, at ``lower``."""
    beta = ps.spec.beta
    lo, up = policy.lower, policy.upper
    policy.validate(beta)
    factor = (up - lo - beta) / optimizer._gain(ps.value(up), ps.value(lo), lo, up, beta)
    if x > up:
        return x - lo - beta + factor * ps.value(lo)
    return factor * ps.value(x)


def _float_outcome(call):
    """The bits of the float ``call()`` returns, or the type and text of its error."""
    try:
        value = call()
    except (DomainError, NumericalError) as exc:
        return type(exc), str(exc)
    assert type(value) is float
    return value.hex()


def test_value_function_float_route_equals_replaced_formula_bit_for_bit():
    # a float x in [0, upper] reads V by ExponentialPair.at and one above it reuses
    # V(lower): the bits, error types and texts of factor * ps.value(x), over optimal
    # policies of both cases and one wider policy per spec, and the array route
    # equals the float route
    cases = []
    for spec in _drawn_specs(60, seed=25):  # all 120 solve
        ps = parisian_scale(spec)
        result = find_optimal_policy(ps)
        cases.append(result.case)
        opt = result.policy
        for policy in (opt, ImpulsePolicy(0.5 * opt.lower, 1.5 * opt.upper + spec.beta)):
            lo, up = policy.lower, policy.upper
            points = [0.0, -0.0, 5e-324, lo, 0.5 * lo, 0.5 * (lo + up), 0.9 * up, up,
                      math.nextafter(up, -math.inf), math.nextafter(up, math.inf),
                      1.5 * up, 10.0 * up + 100.0, 1e300, -0.5, math.inf, -math.inf, math.nan]
            with np.errstate(over="ignore"):
                new = [_float_outcome(lambda: value_function(ps, policy, x)) for x in points]
                old = [_float_outcome(lambda: _replaced_value_function(ps, policy, x))
                       for x in points]
            assert new == old, (spec, policy)
            got = value_function(ps, policy, np.array(points[:-1]))  # a NaN raises for all
            assert [v.hex() for v in got.tolist()] == new[:-1], (spec, policy)
    assert {"interior", "boundary"} <= set(cases)
    # each error alike on both routes: a net payout that rounds to 0 and V out of
    # the double range at the trigger
    overflow = ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076, q=3.63,
                           r=191.9, beta=0.677)
    for spec, policy in [(brownian_spec(1.3041003989788345),
                          ImpulsePolicy(0.5006457197522601, 1.8047461187310947)),
                         (overflow, ImpulsePolicy(0.0, 8.0))]:
        ps = parisian_scale(spec)
        with np.errstate(over="ignore"):
            errors = [_float_outcome(lambda: f(ps, policy, 1.0))
                      for f in (value_function, _replaced_value_function)]
        assert errors[0] == errors[1] and isinstance(errors[0], tuple), spec


def test_value_function_float_route_never_calls_ps_value(bm_scale, cl_scale, optimum, monkeypatch):
    # a float x in [0, upper] or above it reads V by ExponentialPair.at alone: the
    # route cannot fall back on the scalar ps.value silently
    expected = {}
    for ps in (bm_scale, cl_scale):
        policy = optimum(ps.spec).policy
        xs = [0.0, policy.lower, 0.5 * policy.upper, policy.upper, 2.0 * policy.upper, math.inf]
        expected[ps] = policy, xs, [value_function(ps, policy, x) for x in xs]

    def refuse(self, x):
        raise AssertionError(f"ps.value({x}) called")

    monkeypatch.setattr(ParisianScale, "value", refuse)
    for ps, (policy, xs, want) in expected.items():
        assert [value_function(ps, policy, x) for x in xs] == want
        with pytest.raises(AssertionError, match="called"):
            value_function(ps, policy, -0.5)  # below 0 it still reads ps.value


def test_value_function_nan_raises_and_minus_infinity_gives_zero(bm_scale, cl_scale, optimum):
    # a scalar NaN failed x <= upper and took the linear branch above the trigger
    for ps in (bm_scale, cl_scale):
        pol = optimum(ps.spec).policy
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError, match="NaN"):
                value_function(ps, pol, x)
        assert value_function(ps, pol, -math.inf) == 0.0
        assert value_function(ps, pol, np.array([-math.inf]))[0] == 0.0


def test_policy_whose_net_payout_rounds_to_zero_is_rejected(bm_spec):
    # upper > lower + beta holds, but the net payout upper - lower - beta that
    # payments and payout ratios use is 0.0: payout_ratio divided by it
    # (ZeroDivisionError) and value_function was 0 everywhere
    spec = ProblemSpec(bm_spec.model, bm_spec.delta, bm_spec.q, bm_spec.r, 1.3041003989788345)
    policy = ImpulsePolicy(0.5006457197522601, 1.8047461187310947)
    assert policy.upper > policy.lower + spec.beta
    assert policy.upper - policy.lower - spec.beta == 0.0
    ps = parisian_scale(spec)
    for call in (lambda: payout_ratio(ps, policy.lower, policy.upper),
                 lambda: value_function(ps, policy, 1.0)):
        with pytest.raises(DomainError, match="upper > lower \\+ beta"):
            call()


def test_value_function_rejects_bad_policies(bm_scale):
    with pytest.raises(DomainError):
        value_function(bm_scale, ImpulsePolicy(1.0, 1.02), 0.5)


def test_value_function_out_of_double_range_is_typed():
    # V(0) = e^{697}, so V(10) overflows although kp*10 is inside the exp
    # range; the scaling factor (10 - 0 - beta)/inf must not read as 0
    ps = parisian_scale(ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076,
                                    q=3.63, r=191.9, beta=0.677))
    for x in (1.0, np.array([-1.0, 1.0, 20.0])):
        with np.errstate(over="ignore"), pytest.raises(OverflowRangeError):
            value_function(ps, ImpulsePolicy(0.0, 10.0), x)


@pytest.mark.parametrize("spec, policy, error", [
    # V(0) = e^{697}: V(8) overflows although kp*8 is inside the exp range
    (ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076, q=3.63, r=191.9,
                 beta=0.677), ImpulsePolicy(0.0, 8.0), OverflowRangeError),
    # a discount rate of 1e-300 leaves V flat in doubles across the pair
    (replace(brownian_spec(), q=1e-300), ImpulsePolicy(1000.0, 1001.0), SolverFailureError),
], ids=["overflow", "flat"])
def test_every_payout_ratio_checks_its_gain(spec, policy, error):
    # one checked gain V(upper) - V(lower) behind every payout ratio: payout_ratio
    # once returned inf on the first pair, and value_function raised an untyped
    # ZeroDivisionError on the second
    ps = parisian_scale(spec)
    xs = np.array([0.0, policy.upper, 2.0 * policy.upper])
    calls = [lambda: payout_ratio(ps, policy.lower, policy.upper),
             lambda: check_transfer_inequality(ps, policy),
             lambda: value_function(ps, policy, policy.upper),
             lambda: value_function(ps, policy, xs)]
    for call in calls:
        with np.errstate(over="ignore"), pytest.raises(error):
            call()


def test_sufficiency_certificate(bm_scale, cl_scale, optimum):
    for ps in (bm_scale, cl_scale):
        result = optimum(ps.spec)
        report = check_sufficiency_pair(ps, result.policy.upper)
        assert report.passed
        assert report.worst_slack >= -1e-9
        # a trigger below the derivative minimum cannot satisfy the condition
        half = check_sufficiency_pair(ps, 0.5 * report.derivative_argmin)
        assert not half.passed


def test_sufficiency_trigger_outside_its_domain_is_a_domain_error(bm_scale):
    # the closed form reads V on x >= 0 only: upper = -5 used to return
    # worst_slack = -600.2, and NaN or inf an OverflowRangeError
    for upper in (math.nan, math.inf, -math.inf, -5.0):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            check_sufficiency_pair(bm_scale, upper)
    report = check_sufficiency_pair(bm_scale, 0.0)
    assert not report.passed  # 0 < a*
    assert report.worst_slack < 0.0 and math.isfinite(report.worst_slack)


def test_sufficiency_argmin_frozen(bm_scale):
    report = check_sufficiency_pair(bm_scale, 2.0)
    assert report.derivative_argmin == pytest.approx(1.222869037, rel=1e-8)


def test_transfer_inequality_at_optimum(bm_scale, cl_scale, optimum):
    for ps in (bm_scale, cl_scale):
        report = check_transfer_inequality(ps, optimum(ps.spec).policy)
        assert report.passed
        assert report.worst_margin >= -1e-9


def test_transfer_inequality_detects_bad_policy(bm_scale):
    # a wildly censored trigger scales V down so far that an immediate
    # transfer beats the policy, and the checker must notice
    report = check_transfer_inequality(bm_scale, ImpulsePolicy(0.0, 20.0))
    assert not report.passed
    assert report.worst_margin < -1e-6


def test_transfer_inequality_out_of_exp_range_is_typed(bm_scale):
    # a trigger with kp*upper past EXP_ARG_MAX must not reach math.exp's
    # untyped OverflowError
    upper = 2.0 * EXP_ARG_MAX / bm_scale.positive_pair.kp
    with pytest.raises(OverflowRangeError):
        check_transfer_inequality(bm_scale, ImpulsePolicy(0.0, upper))
    # V(0) = e^{697}: V itself leaves the double range at a trigger of 10,
    # although kp*10 = 17 is well inside the exp range
    ps = parisian_scale(ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076,
                                    q=3.63, r=191.9, beta=0.677))
    assert ps.positive_pair.kp * 10.0 < EXP_ARG_MAX
    with pytest.raises(OverflowRangeError):
        check_transfer_inequality(ps, ImpulsePolicy(0.0, 10.0))


def test_generator_residual(bm_scale, cl_scale, optimum):
    for ps in (bm_scale, cl_scale):
        result = optimum(ps.spec)
        pol = result.policy
        up = pol.upper
        for x in (0.35 * up, 0.6 * up, 0.9 * up):
            res = generator_residual(ps, pol, x)
            v = value_function(ps, pol, x)
            assert abs(res) <= 1e-4 * (1.0 + v), f"{ps.spec.model} x={x}"
        # above the trigger paying out dominates: residual strictly negative
        for x in (1.2 * up, 1.8 * up):
            assert generator_residual(ps, pol, x) < 0.0


def test_result_record(cl_scale, optimum):
    result = optimum(cl_scale.spec)
    record = result_record(cl_scale, result)
    assert "case: interior" in record
    assert "c1_star:" in record and "sufficiency_pass: true" in record
    # the model line and the parameter lines read back as a config file
    fields = dict(line.split(": ", 1) for line in record.splitlines())
    assert fields["model"] == "cramer_lundberg"
    keys = ("model", "p", "lambda", "mu_claim", "delta", "q", "r", "beta")
    text = "\n".join(f"{k} = {fields[k]}" for k in keys)
    assert build_problem_spec(parse_config_text(text)) == cl_scale.spec


# Compound Poisson with a steep discount: V' is increasing on x >= 0, and the
# boundary optimum c2 = 1.414 lies past oracles.search_bound = 0.989, where V'
# is already ten times V'(0+); the optimizer's search has no such bound.
CL_STEEP = ProblemSpec(
    CramerLundberg(p=3.0, lam=2.0, mu_claim=1.0), delta=0.25, q=5.0, r=2.0, beta=1.0
)


# search_bound as find_optimal_policy returned it while it solved for it on
# every call: the oracle keeps criterion 6's brute-force grids unchanged
SEARCH_BOUNDS = [
    (brownian_spec(0.05), "0x1.7dddda567d278p+4"),
    (brownian_spec(1.0), "0x1.7dddda567d278p+4"),
    (cramer_lundberg_spec(1.0), "0x1.72cb77c3dab39p+5"),
    (CL_STEEP, "0x1.fa548d248250cp-1"),
]


@pytest.mark.parametrize("spec,frozen", SEARCH_BOUNDS, ids=["bm-0.05", "bm-1", "cl-1", "cl-steep"])
def test_search_bound_oracle_frozen(spec, frozen):
    assert oracles.search_bound(parisian_scale(spec)).hex() == frozen


def test_boundary_optimum_beyond_search_bound(optimum):
    ps = parisian_scale(CL_STEEP)
    result = optimum(CL_STEEP)
    assert result.case == "boundary"
    assert result.derivative_argmin == 0.0
    assert result.policy.upper == pytest.approx(1.414, abs=1e-3)
    assert result.policy.upper > oracles.search_bound(ps)
    assert result.fo_residual < 1e-8
    assert result.sufficiency_pass
    assert check_transfer_inequality(ps, result.policy).passed
    g_brute, _, _ = oracles.brute_force_payout_grid(ps, 4.0, step=1e-3)
    assert g_brute >= result.payout_ratio * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "spec,case",
    [
        (brownian_spec(0.05), "interior"),
        (brownian_spec(1.0), "boundary"),
        (cramer_lundberg_spec(1.0), "interior"),
        (CL_STEEP, "boundary"),
    ],
    ids=["bm-interior", "bm-boundary", "cl-interior", "cl-boundary"],
)
def test_result_fields_are_plain_floats(spec, case, optimum):
    # np.float64 fields would print as np.float64(...) and not round-trip
    result = optimum(spec)
    assert result.case == case
    for value in (
        result.policy.lower,
        result.policy.upper,
        result.payout_ratio,
        result.fo_residual,
        result.derivative_argmin,
    ):
        assert type(value) is float


@pytest.mark.parametrize(
    "spec,case,roots",
    [
        (brownian_spec(0.05), "interior", 1),
        (brownian_spec(1.0), "boundary", 2),
        (cramer_lundberg_spec(1.0), "interior", 1),
        (CL_STEEP, "boundary", 1),
    ],
    ids=["bm-interior", "bm-boundary", "cl-interior", "cl-boundary-flat"],
)
def test_iterations_count_every_root_evaluation(spec, case, roots, monkeypatch):
    # one root of psi in the gap, plus one of h for a boundary optimum; where
    # V' has no interior minimum (a* = 0, CL_STEEP) psi is not solved at all
    counts = []
    find_root = optimizer._find_root

    def counted(*args):
        root, evaluations = find_root(*args)
        counts.append(evaluations)
        return root, evaluations

    monkeypatch.setattr(optimizer, "_find_root", counted)
    result = find_optimal_policy(parisian_scale(spec))
    assert (result.case, len(counts)) == (case, roots)
    assert result.iterations == sum(counts) > 1


def test_sufficiency_overflow_is_typed():
    # V(0) = e^{697} is finite, but V' overflows on the certificate grid; the
    # solver used to return g* = 4e303 with a failed certificate
    spec = ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076, q=3.63,
                       r=191.9, beta=0.677)
    ps = parisian_scale(spec)
    assert math.isfinite(ps.value(0.0))
    with pytest.raises(OverflowRangeError, match="certificate grid"):
        find_optimal_policy(ps)


# a half-decade grid from 1e-15 to 1e-30, then deeper
@pytest.mark.parametrize("q", [10.0 ** (-15 - 0.5 * i) for i in range(31)]
                         + [1e-40, 1e-60, 1e-80, 1e-120, 1e-150, 1e-300])
@pytest.mark.parametrize("kind", ["bm", "cl"])
def test_tiny_discount_rate_is_certified_or_typed(kind, q):
    # as q falls, V's growing exponential turns flat in doubles: a solved pair
    # can net no payout over beta or gain nothing in V, and kp**2 or kp**3
    # underflows; these used to end in ZeroDivisionError or DomainError.  From
    # about q = 1e-15, V/g* is known to worse than the transfer tolerance: 38 of
    # the grid's 62 solves returned a policy, 37 of which failed the transfer
    # check or the 1e-8 first-order gate
    ps = parisian_scale(replace(_spec(kind, 0.05 if kind == "bm" else 1.0), q=q))
    try:
        result = find_optimal_policy(ps)
    except NumericalError:
        pass
    else:
        assert result.sufficiency_pass and result.fo_residual <= 1e-8
        assert check_transfer_inequality(ps, result.policy).passed
    for check in (lambda: check_sufficiency_pair(ps, 3.0),
                  lambda: check_transfer_inequality(ps, ImpulsePolicy(0.5, 3.0))):
        try:
            report = check()
        except NumericalError:
            continue
        assert all(math.isfinite(v) for v in astuple(report)[1:])


def test_negative_payout_ratio_is_not_a_solve():
    # q = 1.8e-16: the boundary solve once returned g* = -4.4e-4 and a first-order
    # residual of -1, which passed as certified
    spec = ProblemSpec(CramerLundberg(p=3.7189616464241, lam=0.2628124637264063,
                                      mu_claim=2.844003614109924),
                       delta=1.1100776073576377, q=1.8055933260395934e-16,
                       r=11.593255864584494, beta=0.8418703647785368)
    with pytest.raises(SolverFailureError, match="flat in doubles"):
        find_optimal_policy(parisian_scale(spec))


@pytest.mark.parametrize("kind, beta, q", [("bm", 0.05, 1e-120), ("bm", 1.0, 1e-120),
                                           ("cl", 1.0, 1e-100)])
def test_tiny_discount_rate_names_flat_v_within_few_evaluations(kind, beta, q, monkeypatch):
    # psi cancels to rounding noise where kp*s << 1 << -km*s: the Brownian bracket
    # once ran all 200 steps to "no sign change on [8.30044e+94, 3.15e+122]" and
    # the compound Poisson solve took 181 evaluations to fail its resolution check
    evaluations = []
    find_root = optimizer._find_root

    def counted(*args):
        root, its = find_root(*args)
        evaluations.append(its)
        return root, its

    monkeypatch.setattr(optimizer, "_find_root", counted)
    ps = parisian_scale(replace(_spec(kind, beta), q=q))
    with pytest.raises(SolverFailureError, match=r"flat in doubles|resolved"):
        find_optimal_policy(ps)
    assert sum(evaluations) <= 50


@pytest.mark.parametrize("q", [0.05, 1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("kind", ["bm", "cl"])
def test_resolution_bound_holds_past_the_argmin(kind, q):
    # on [a*, inf) V'' >= 0 bounds the decaying term of V and V', so
    # V/V' >= (1 + kp/km)/kp: find_optimal_policy refuses a spec before any root
    # where 2**-53 times that exceeds twice TRANSFER_TOL, since V/g* at any c2
    # past a* would then fail the resolution check too
    pair = parisian_scale(replace(_spec(kind, 1.0), q=q)).positive_pair
    kp, km, a_star = pair.kp, pair.km, pair.derivative_argmin()
    bound = (1.0 + kp / km) / kp
    for x in [a_star, *(a_star + np.geomspace(1e-6, 0.99 * EXP_ARG_MAX / kp - a_star, 300))]:
        v, d, _ = pair.at(float(x))
        assert v / d >= bound * (1.0 - 1e-12), x


# ---------------------------------------------------------------------------
# the root search's and the solve's own failure checks
# ---------------------------------------------------------------------------


def test_root_search_starting_at_its_cap_fails():
    with pytest.raises(SolverFailureError,
                       match=r"^root search starts at 2, at or past the finite exp range end 2$"):
        optimizer._find_root(lambda x: (x - 3.0, 1.0), 2.0, 2.0, 0.5)


def test_root_search_bracket_that_never_turns_positive_fails():
    # an unbounded cap: the bracket grows for all ROOT_MAX_ITER steps, then gives up
    calls = []

    def f(x):
        calls.append(x)
        return -1.0, 0.0

    with pytest.raises(SolverFailureError, match=r"^no sign change on \[\S+, inf\]$"):
        optimizer._find_root(f, 0.0, math.inf, 1.0)
    assert len(calls) == optimizer.ROOT_MAX_ITER


def test_root_search_non_finite_residual_fails():
    # f(2) > 0 closes the bracket [0, 2]; the Newton step lands on 1, where f is NaN
    f = lambda x: (1.0, 1.0) if x == 2.0 else (math.nan, 1.0)
    with pytest.raises(SolverFailureError, match=r"^non-finite residual at x=1$"):
        optimizer._find_root(f, 0.0, 10.0, 2.0)


def test_root_search_that_never_converges_fails():
    # a sign flip at 0 with no slope: bisection halves towards 0, where the
    # relative step stays near 1, for all ROOT_MAX_ITER steps
    f = lambda x: (1.0 if x > 0.0 else -1.0, 0.0)
    with pytest.raises(SolverFailureError,
                       match=rf"^root search did not converge in {optimizer.ROOT_MAX_ITER} steps$"):
        optimizer._find_root(f, -1.0, 1.0, 2.0)


def test_solve_below_its_resolution_check_fails(cl_scale, monkeypatch):
    result = find_optimal_policy(cl_scale)
    c2, g_star = result.policy.upper, result.payout_ratio
    resolution = math.ulp(cl_scale.positive_pair.at(c2)[0]) / g_star
    monkeypatch.setattr(optimizer, "TRANSFER_TOL", 0.5 * resolution)
    with pytest.raises(SolverFailureError,
                       match=rf"^V/g\* resolved only to {resolution:.3g} "
                             rf"\(tol {0.5 * resolution:g}\)$"):
        find_optimal_policy(cl_scale)


def test_solve_above_its_first_order_check_fails(cl_scale, monkeypatch):
    fo = find_optimal_policy(cl_scale).fo_residual
    assert fo > 0.0
    monkeypatch.setattr(optimizer, "FO_TOL", 0.0)
    with pytest.raises(SolverFailureError, match=rf"^first-order residual {fo:.3g} above 0$"):
        find_optimal_policy(cl_scale)

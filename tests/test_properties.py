"""Property-based invariants over randomized models, specs and paths."""
from __future__ import annotations

import math
import warnings
from dataclasses import astuple, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from parisian_impulse import (
    BrownianMotion,
    ConfigError,
    CramerLundberg,
    DomainError,
    ImpulsePolicy,
    NumericalError,
    OverflowRangeError,
    ProblemSpec,
    check_sufficiency_pair,
    check_transfer_inequality,
    compute_coefficients,
    find_optimal_policy,
    laplace_exponent,
    payout_ratio,
    right_inverse,
    value_function,
)
from parisian_impulse.cli import sig17
from parisian_impulse.config import build_problem_spec, parse_config_text
from parisian_impulse.parisian import ParisianScale, parisian_scale
from parisian_impulse.scale import ScaleFunction, refracted_scale

import oracles
from oracles import parisian_clock
from params import brownian_spec, census_box_specs, cramer_lundberg_spec, log_uniform

finite = dict(allow_nan=False, allow_infinity=False)

brownian_models = st.builds(
    BrownianMotion,
    mu=st.floats(-1.5, 2.5),
    sigma=st.floats(0.3, 2.0),
)
cl_models = st.builds(
    CramerLundberg,
    p=st.floats(0.5, 5.0),
    lam=st.floats(0.1, 4.0),
    mu_claim=st.floats(0.3, 3.0),
)
models = st.one_of(brownian_models, cl_models)


@st.composite
def specs(draw, q_max=0.5, r_max=4.0):
    model = draw(models)
    if isinstance(model, BrownianMotion):
        delta = draw(st.floats(0.01, 1.0))
    else:
        delta = model.p * draw(st.floats(0.05, 0.9))
    return ProblemSpec(
        model=model,
        delta=delta,
        q=draw(st.floats(0.01, q_max)),
        r=draw(st.floats(0.2, r_max)),
        beta=draw(st.floats(0.01, 2.0)),
    )


# the failure census box of the benchmark: q up to 5 and r up to 200 reach
# compound Poisson windows p*r up to 1000 and V(0) = e^{qr} past the double range
@settings(max_examples=40, deadline=None)
@given(spec=specs(q_max=5.0, r_max=200.0))
def certified_or_typed_property(spec):
    try:
        ps = parisian_scale(spec)
        result = find_optimal_policy(ps)
    except NumericalError:
        return
    policy = result.policy
    assert result.fo_residual <= 1e-8
    assert result.sufficiency_pass
    assert check_transfer_inequality(ps, policy).passed
    # no pair of a lattice spanning twice the trigger beats the root solve
    g_brute, _, _ = oracles.brute_force_payout_grid(ps, 2.0 * policy.upper + 1.0, step=1e-2)
    assert g_brute >= result.payout_ratio * (1.0 - 1e-12)


def _run_property(bounded_python, name: str) -> None:
    """Run a property of this module in a subprocess, so that a hang fails at
    the timeout instead of stalling the suite."""
    code = f"""
import traceback
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import test_properties
try:
    test_properties.{name}()
    print("ok")
except Exception:
    traceback.print_exc(file=sys.stdout)
"""
    out = bounded_python(code, timeout=120.0)
    assert out == "ok\n", out


def test_optimizer_certified_or_typed_error(bounded_python):
    # every spec solves with its certificates or raises a typed error
    _run_property(bounded_python, "certified_or_typed_property")


_sizes = log_uniform(1e-3, 1e3)


def _finite_or_typed(call, nan_at=False) -> None:
    """call() returns finite numbers (a float, an array or a report), NaN exactly
    where ``nan_at`` is set, or raises a typed error; a RuntimeWarning is an
    error here too."""
    try:
        out = call()
    except (NumericalError, DomainError, ConfigError):
        return
    values = np.asarray(astuple(out) if is_dataclass(out) else out, dtype=float)
    assert np.where(nan_at, np.isnan(values), np.isfinite(values)).all(), out


@settings(max_examples=500, deadline=None)
@given(spec=census_box_specs(),
       xs=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), _sizes).map(lambda t: t[0] * t[1]),
                   min_size=1, max_size=3),
       depth=_sizes, lower=st.one_of(st.just(0.0), _sizes), gap=_sizes)
# V(148.4) = inf with a NumPy overflow warning before the pair refused it (V(0) = e^{518})
@example(spec=ProblemSpec(BrownianMotion(mu=1.0, sigma=1.0), delta=0.0625, q=math.e,
                          r=math.exp(5.25), beta=1.0),
         xs=[-148.4131591025766], depth=1.0, lower=0.0, gap=1.0)
# x = -p*r, the compound Poisson kink, where an array of V' holds NaN by design
@example(spec=ProblemSpec(CramerLundberg(p=2.0, lam=1.0, mu_claim=1.0), delta=0.5, q=1.0,
                          r=0.5, beta=1.0),
         xs=[-1.0, 1.0], depth=1.0, lower=0.0, gap=1.0)
def finite_or_typed_on_the_domain_property(spec, xs, depth, lower, gap):
    # every evaluator on the documented domain: x out to 1e3 on both sides (on
    # x >= 0 for the pair's own reads), depths out to 1e3, policies up to 2e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cs = compute_coefficients(spec)
        for x in xs:
            _finite_or_typed(lambda: refracted_scale(cs, x, depth))
        _finite_or_typed(lambda: refracted_scale(cs, np.array(xs), depth))
        try:
            ps = parisian_scale(spec)
        except NumericalError:
            return
        pair, policy = ps.positive_pair, ImpulsePolicy(lower, lower + spec.beta + gap)
        # V' is undefined at the compound Poisson kink x = -p*r: a scalar there
        # raises, an array holds NaN at exactly those entries
        kink = np.array(xs) == (-spec.model.p * spec.r if ps._is_cl else math.nan)
        for f, nan_at in ((ps.value, False), (ps.derivative, kink),
                          (lambda x: value_function(ps, policy, x), False)):
            for x in xs:
                _finite_or_typed(lambda: f(x))
            _finite_or_typed(lambda: f(np.array(xs)), nan_at)
        for x in [abs(x) for x in xs] + [0.0]:
            for f in (pair.value, pair.derivative, pair.at):
                _finite_or_typed(lambda: f(x))
        for f in (pair.value, pair.derivative):
            _finite_or_typed(lambda: f(np.abs(xs)))
        _finite_or_typed(lambda: payout_ratio(ps, policy.lower, policy.upper))
        _finite_or_typed(lambda: check_sufficiency_pair(ps, policy.upper))
        _finite_or_typed(lambda: check_transfer_inequality(ps, policy))


def test_finite_or_typed_on_the_domain(bounded_python):
    # the domain contract: a finite value or a typed error, never a warning, inf or NaN
    _run_property(bounded_python, "finite_or_typed_on_the_domain_property")


_doubles = log_uniform(1e-300, 1e300)


@settings(max_examples=1000, deadline=None)
@given(cl=st.booleans(), rates=st.tuples(_doubles, _doubles, _doubles),
       sign=st.sampled_from([-1.0, 1.0]),
       fields=st.tuples(_doubles, _doubles, _doubles, _doubles))
# 2*pi*sigma**2*r underflowed to 0: a ZeroDivisionError (brownian.cfg, sigma and r set)
@example(cl=False, rates=(0.5, 4.68e-37, 1.0), sign=1.0, fields=(0.05, 0.05, 1e-290, 0.05))
# products of the band table that underflowed to 0, each a ValueError from math.log:
# p*r*(mu + km) (cramer_lundberg.cfg with every field set), lam*mu*r and p*b
@example(cl=True, rates=(2.080219800434496e-43, 0.01114664381072907, 4.64120043018534e-199),
         sign=1.0, fields=(5.418555750528317e-221, 1.6961461292741397e-33,
                           2.258028935120023e-252, 2.7975354796660167e+19))
@example(cl=True, rates=(8.065524047132113e+126, 2.5655109975133484e-144, 8.754793555674511e-215),
         sign=1.0, fields=(4.722607676492959e-215, 3.359015560424687e+30,
                           6.723020271777077e-121, 9.303497410773723e+233))
@example(cl=True, rates=(4.929308441168006e-182, 1.1521395273310902e-52, 2.3678729814861487e-197),
         sign=1.0, fields=(6.671649182586641e-286, 2.1935951652268114e-66,
                           3.0678084591676236e+49, 3.04593156062721e-14))
# kp = 4e-295: the pair's edge divided 700 by it with a NumPy overflow warning
@example(cl=False, rates=(1.2559958193910158e+40, 4.844637876769564e+116, 1.0), sign=1.0,
         fields=(6.141591387572904e+30, 4.1330101391626774e-281, 1.0639170191826241e-199,
                 3.6835936378906416e+271))
# km = -7e103: km**3 in the certificate's V''' zero raised OverflowError
@example(cl=False, rates=(1.0, math.exp(-119.0), 1.0), sign=1.0,
         fields=(math.exp(-1.0), 1.0, 1.0, 1.0))
def total_on_finite_configs_property(cl, rates, sign, fields):
    # every finite config: refused at construction, solved with its certificate
    # (the sufficiency check), or a typed error; never a warning or another error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = CramerLundberg(*rates) if cl else BrownianMotion(sign * rates[0], rates[1])
            spec = ProblemSpec(model, *fields)
        except ConfigError:  # InvalidRefractionError too
            return
        try:
            result = find_optimal_policy(ParisianScale(spec))
        except (NumericalError, DomainError, ConfigError):
            return
        assert result.sufficiency_pass and 0.0 < result.payout_ratio < math.inf, (spec, result)


def test_total_on_finite_configs(bounded_python):
    # finite fields out to 1e+-300 end in bounded time with a typed outcome
    _run_property(bounded_python, "total_on_finite_configs_property")


@settings(max_examples=25, deadline=None)
@given(spec=specs(), x_max=st.floats(0.5, 12.0))
def test_payout_grid_hull_matches_table(spec, x_max):
    # the O(n log n) hull sweep of the grid oracle against its exhaustive table at
    # step 1e-2: the same argmin and g to a few ulps (a sweep that kept the upper
    # hull instead was 170-250% off on criterion 6's specs)
    ps = parisian_scale(spec)
    hull = oracles.brute_force_payout_grid(ps, x_max, step=1e-2)
    table = oracles.brute_force_payout_table(ps, x_max, step=1e-2)
    assert hull[1:] == table[1:], (hull, table)
    assert hull[0] == table[0] or abs(hull[0] - table[0]) <= 4.0 * math.ulp(table[0])


def _interior_gaps(spec: ProblemSpec) -> list[float]:
    """``c2* - c1*`` of every interior optimum of the spec at five delays."""
    gaps = []
    for r in (spec.r, 0.5, 3.0, 20.0, 200.0):
        try:
            result = find_optimal_policy(parisian_scale(replace(spec, r=r)))
        except NumericalError:
            continue
        if result.case == "interior":
            gaps.append(result.policy.upper - result.policy.lower)
    return gaps


@settings(max_examples=40, deadline=None)
@given(spec=specs(q_max=5.0, r_max=200.0))
@example(spec=brownian_spec(beta=0.05))
@example(spec=cramer_lundberg_spec(beta=1.0))
def interior_gap_ignores_delay_property(spec):
    # psi, whose root is the gap c2* - c1*, knows only kp, km and beta: the
    # delay r moves a and b, and with them an interior c1*, but not the gap
    gaps = _interior_gaps(spec)
    for gap in gaps[1:]:
        assert gap == pytest.approx(gaps[0], rel=1e-12, abs=0.0), gaps


def test_interior_gap_ignores_delay(bounded_python):
    # the property's examples, the shipped configs, are interior at r = 0.5
    # and at their own delay, so there it compares at least two gaps
    for spec in (brownian_spec(beta=0.05), cramer_lundberg_spec(beta=1.0)):
        assert len(_interior_gaps(spec)) >= 2
    _run_property(bounded_python, "interior_gap_ignores_delay_property")


def _verdict(check):
    """check()'s verdict, or "overflow" for a typed range error."""
    try:
        return check()
    except OverflowRangeError:
        return "overflow"


@settings(max_examples=40, deadline=None)
@given(spec=specs(q_max=5.0, r_max=200.0))
# V(0) = e^{697} is finite but V' overflows past it: both checks must raise
@example(spec=ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076, q=3.63,
                          r=191.9, beta=0.677))
def sufficiency_closed_form_matches_grid_property(spec):
    # the closed form (a > 0 and upper >= a*) against the 2000-point V' scan,
    # at the optimal trigger and on both sides of the argmin of V'
    try:
        ps = parisian_scale(spec)
    except NumericalError:
        return
    a_star = ps.positive_pair.derivative_argmin()
    uppers = [a_star, 0.5 * a_star, a_star + 1e-3, a_star + 1.0]
    try:
        uppers.append(find_optimal_policy(ps).policy.upper)
    except NumericalError:
        pass
    for upper in uppers:
        closed = _verdict(lambda: check_sufficiency_pair(ps, upper).passed)
        grid = _verdict(lambda: oracles.check_sufficiency_pair_by_grid(ps, upper).passed)
        assert closed == grid, (upper, a_star, closed, grid)
    # at a* itself the closed form says that V' falls to a* and rises beyond
    # it.  The scan of V' on (0, 20] reaches points the closed form never
    # evaluates, so either may raise where the other does not.
    closed = _verdict(lambda: check_sufficiency_pair(ps, a_star).passed)
    grid = _verdict(lambda: oracles.check_unimodal_by_grid(ps)[0])
    if "overflow" not in (closed, grid):
        assert closed == grid


def test_sufficiency_closed_form_matches_grid(bounded_python):
    _run_property(bounded_python, "sufficiency_closed_form_matches_grid_property")


def test_grid_oracles_raise_the_pair_overflow():
    # V(0) = e^{697}: both V' scans run past the pair's edge (6.34), which refuses
    # the read before NumPy overflows; the oracles have no finiteness check of their own
    ps = parisian_scale(ProblemSpec(BrownianMotion(mu=0.685, sigma=1.344), delta=0.076,
                                    q=3.63, r=191.9, beta=0.677))
    assert ps.positive_pair.edge < 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scan in (lambda: oracles.check_sufficiency_pair_by_grid(ps, 0.0),
                     lambda: oracles.check_unimodal_by_grid(ps)):
            with pytest.raises(OverflowRangeError, match="^a term of the pair leaves the "
                                                         "double range .* past its edge 6.34"):
                scan()


@settings(max_examples=40, deadline=None)
@given(spec=specs(q_max=5.0, r_max=200.0))
# interior optima, where the worst margin sits at (c2*, c1*) with c1* in the
# level set, not at the edge y = 0
@example(spec=brownian_spec(beta=0.05))
@example(spec=cramer_lundberg_spec(beta=0.02))
def transfer_closed_form_matches_table_property(spec):
    # the exact minimum over the candidate pairs against the 200 x 200 table,
    # at the optimum and at two admissible policies that are not optimal
    try:
        ps = parisian_scale(spec)
        optimum = find_optimal_policy(ps).policy
    except NumericalError:
        return
    c2, beta = optimum.upper, spec.beta
    for policy in (optimum, ImpulsePolicy(0.0, 10.0 * c2 + beta),
                   ImpulsePolicy(0.5 * c2, 0.5 * c2 + 2.0 * beta + 0.1)):
        try:
            table = oracles.check_transfer_inequality_by_grid(ps, policy)
        except OverflowRangeError:
            continue
        try:
            closed = check_transfer_inequality(ps, policy)
        except OverflowRangeError:
            # V overflows to inf at the trigger: the table's margins are NaN
            assert not table.passed, (policy, table)
            continue
        assert table.passed or not closed.passed, (policy, closed, table)
        assert closed.worst_margin <= table.worst_margin + 1e-12, (policy, closed, table)


def test_transfer_closed_form_matches_table(bounded_python):
    _run_property(bounded_python, "transfer_closed_form_matches_table_property")


@settings(max_examples=40, deadline=None)
@given(spec=specs(q_max=5.0, r_max=200.0).filter(lambda s: isinstance(s.model, CramerLundberg)))
def band_block_matches_scalar_calls_and_gamma_tail_property(spec):
    # the band as one block equals the band point by point, bit for bit, and
    # agrees with its two series summed term by term in P(m+1, u*c)
    try:
        ps = parisian_scale(spec)
        xs = -spec.model.p * spec.r * np.array([1.0, 0.999, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01])
        values, slopes = ps.value(xs), ps.derivative(xs)
        point_values = [ps.value(x) for x in xs]
        point_slopes = [ps.derivative(x) for x in xs[1:]]  # V' has a kink at -p*r
        ref_values = [oracles.band_by_gamma_tail(ps, x) for x in xs]
        ref_slopes = [oracles.band_by_gamma_tail(ps, x, with_derivative=True) for x in xs[1:]]
    except NumericalError:
        return
    assert values.tolist() == point_values
    assert math.isnan(slopes[0]) and slopes[1:].tolist() == point_slopes
    assert np.all(np.diff(values) >= 0.0), values
    # both routes round exponents of size k*log(u*c), so on long windows they
    # part by up to about 1e-15 times the term count; a value that reaches the
    # subnormal range agrees only absolutely
    rel = max(1e-12, 1e-15 * len(ps._band_k))
    assert values.tolist() == pytest.approx(ref_values, rel=rel, abs=1e-300)
    assert slopes[1:].tolist() == pytest.approx(ref_slopes, rel=rel, abs=1e-300)


def test_band_block_matches_scalar_calls_and_gamma_tail(bounded_python):
    _run_property(bounded_python, "band_block_matches_scalar_calls_and_gamma_tail_property")


def _constant_or_error(build):
    try:
        return build()
    except NumericalError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(spec=specs(q_max=5.0, r_max=200.0).filter(lambda s: isinstance(s.model, CramerLundberg)))
def series_constant_matches_window_route_property(spec):
    # C as one sum of band table rows against the table's slope rows plus the
    # window density from its own series: equal to rounding, or the same error
    table = _constant_or_error(lambda: parisian_scale(spec).series_constant)
    window = _constant_or_error(lambda: oracles.series_constant_by_window(spec))
    if isinstance(window, float):
        assert table == pytest.approx(window, rel=1e-13, abs=0.0)
    else:
        assert table is window


def test_series_constant_matches_window_route(bounded_python):
    _run_property(bounded_python, "series_constant_matches_window_route_property")


@given(model=models, a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       lam=st.floats(0.0, 1.0))
def test_laplace_exponent_convex(model, a, b, lam):
    mid = lam * a + (1.0 - lam) * b
    lhs = laplace_exponent(model, mid)
    rhs = lam * laplace_exponent(model, a) + (1.0 - lam) * laplace_exponent(model, b)
    assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


@given(model=models, q1=st.floats(1e-3, 1.0), q2=st.floats(1e-3, 1.0))
def test_right_inverse_solves_and_is_monotone(model, q1, q2):
    for q in (q1, q2):
        phi = right_inverse(model, q)
        assert phi > 0.0
        assert laplace_exponent(model, phi) == pytest.approx(q, rel=1e-9, abs=1e-12)
    lo, hi = sorted((q1, q2))
    assert right_inverse(model, lo) <= right_inverse(model, hi) + 1e-12


# neither depends on r; q reaches the census box's 5, where a typed error may stand
@given(spec=specs(q_max=5.0))
def test_coefficient_invariants(spec):
    try:
        cs = compute_coefficients(spec)
    except NumericalError:
        return
    for coeffs in (cs.surplus, cs.refracted):
        assert coeffs.kp > 0.0 > coeffs.km
        assert coeffs.a > 0.0
        assert coeffs.b > 0.0
    if isinstance(spec.model, CramerLundberg):
        assert cs.surplus.value(0.0) == pytest.approx(1.0 / spec.model.p, rel=1e-12, abs=0.0)
        assert cs.surplus.km > -spec.model.mu_claim
    else:
        assert cs.surplus.value(0.0) == 0.0
    # removing drift pushes the dominant growth rate up
    assert cs.refracted.kp > cs.surplus.kp


@given(spec=specs(q_max=5.0), z=st.floats(0.0, 6.0))
@example(spec=ProblemSpec(BrownianMotion(mu=2.274186884288196, sigma=0.3),
                          delta=0.01, q=0.01, r=1.0, beta=0.5), z=0.0)
def test_refracted_scale_joins_surplus_scale_at_zero(spec, z):
    # at x = 0 the convolution term vanishes and w(0; -z) collapses to W(z)
    try:
        cs = compute_coefficients(spec)
        surplus = ScaleFunction(cs.surplus, spec.q)
        joined, expected = refracted_scale(cs, 0.0, z), surplus.value(z)
    except NumericalError:
        return
    # abs floor: the two-regime formula cancels exactly at z = 0, and the
    # leftover float noise grows with the exponential rates (steep specs
    # with sigma near 0.3 reach ~1e-12)
    assert joined == pytest.approx(expected, rel=1e-9, abs=1e-10)


@given(lower=st.floats(0.0, 5.0), extra=st.floats(1e-3, 6.0),
       kind=st.sampled_from(["bm", "cl"]))
def test_payout_ratio_positive_and_value_increasing(lower, extra, kind):
    spec = brownian_spec() if kind == "bm" else cramer_lundberg_spec()
    ps = parisian_scale(spec)
    upper = lower + spec.beta + extra
    assert payout_ratio(ps, lower, upper) > 0.0
    assert ps.value(upper) > ps.value(lower)


@given(x1=st.floats(-5.5, 10.0), x2=st.floats(-5.5, 10.0),
       kind=st.sampled_from(["bm", "cl"]))
def test_value_nondecreasing(x1, x2, kind):
    spec = brownian_spec() if kind == "bm" else cramer_lundberg_spec()
    ps = parisian_scale(spec)
    lo, hi = sorted((x1, x2))
    assert ps.value(lo) <= ps.value(hi) * (1.0 + 1e-12) + 1e-15


@given(v=st.floats(**finite))
def test_sig17_round_trips(v):
    assert float(sig17(v)) == v


@given(mu=st.floats(-3.0, 3.0), sigma=st.floats(0.1, 3.0),
       delta=st.floats(1e-3, 2.0), q=st.floats(1e-3, 1.0),
       r=st.floats(0.05, 5.0), beta=st.floats(1e-3, 3.0))
def test_config_text_round_trips(mu, sigma, delta, q, r, beta):
    text = "\n".join(
        [
            "model = brownian",
            f"mu = {mu!r}",
            f"sigma = {sigma!r}",
            f"delta = {delta!r}",
            f"q = {q!r}",
            f"r = {r!r}",
            f"beta = {beta!r}",
        ]
    )
    spec = build_problem_spec(parse_config_text(text))
    assert spec.model == BrownianMotion(mu=mu, sigma=sigma)
    assert (spec.delta, spec.q, spec.r, spec.beta) == (delta, q, r, beta)


def _brute_clock(times, values, delay):
    anchor = times[0]
    for t, v in zip(times, values):
        if v >= 0.0:
            anchor = t
        elif t - anchor >= delay:
            return t
    return None


@given(
    steps=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=50),
    seed=st.integers(0, 2**31 - 1),
    delay=st.floats(0.05, 3.0),
)
def test_parisian_clock_matches_reference_loop(steps, seed, delay):
    times = np.concatenate([[0.0], np.cumsum(steps)])
    values = np.random.default_rng(seed).uniform(-2.0, 2.0, size=times.size)
    assert parisian_clock(times, values, delay) == _brute_clock(times, values, delay)


@given(lower=st.floats(0.0, 5.0), gap=st.floats(0.0, 0.05))
def test_policy_rejects_nonpositive_net(lower, gap):
    beta = 0.05
    with pytest.raises(DomainError):
        ImpulsePolicy(lower, lower + beta * (1.0 - 1e-9) + 0.0).validate(beta)
    with pytest.raises(DomainError):
        ImpulsePolicy(lower, lower + gap).validate(beta)

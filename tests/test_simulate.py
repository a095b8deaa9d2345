"""Monte Carlo estimators: exact compound Poisson kernel, Euler diffusion
kernel, the excursion clock, and reproducibility guarantees.

Seeds are fixed; every z-test compares against the closed form at 3 sigma.
"""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from parisian_impulse import (
    ConfigError,
    DomainError,
    ImpulsePolicy,
    SimulationConfig,
    estimate_exit_functional,
    estimate_policy_npv,
    find_optimal_policy,
    parisian_scale,
    value_function,
)
from parisian_impulse.models import BrownianMotion, CramerLundberg, ProblemSpec
from parisian_impulse import simulate
from parisian_impulse.simulate import (
    GROUP_PATHS,
    MAX_CLAIM_ROUNDS,
    _block_counts,
    _combine,
    _moments,
    _substreams,
)

from oracles import brownian_block, cl_block, parisian_clock, simulate_refracted_path
from params import brownian_spec, cramer_lundberg_spec


def _claimless(r: float) -> ProblemSpec:
    # effectively deterministic: one claim every ~1e12 time units
    model = CramerLundberg(p=3.0, lam=1e-12, mu_claim=1.0)
    return ProblemSpec(model=model, delta=0.25, q=0.05, r=r, beta=1.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(n_paths=0)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(t_max=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            SimulationConfig(dt=bad)
        with pytest.raises(ConfigError):
            SimulationConfig(t_max=bad)
    # counts and seeds are integers: floats and bools are refused, NumPy integers pass
    for bad in (1.5, 2.0, True, np.float64(3.0), np.True_, "3", None):
        with pytest.raises(ConfigError, match="n_paths"):
            SimulationConfig(n_paths=bad)
    for bad in (-1, 1.5, 2.0, True, np.float64(3.0), np.int64(-2), "3", None):
        with pytest.raises(ConfigError, match="seed"):
            SimulationConfig(seed=bad)
    SimulationConfig(n_paths=np.int64(5), seed=np.uint32(0))
    # lengths are real numbers and antithetic a bool, not anything comparable or truthy
    for bad in ("0.1", [1], True, b"1"):
        with pytest.raises(ConfigError, match="dt"):
            SimulationConfig(dt=bad)
        with pytest.raises(ConfigError, match="t_max"):
            SimulationConfig(t_max=bad)
    for bad in ("no", 1, 0, None):
        with pytest.raises(ConfigError, match="antithetic"):
            SimulationConfig(antithetic=bad)
    SimulationConfig(dt=np.float64(0.1), t_max=3, antithetic=np.True_)


def test_estimators_need_two_paths(bm_spec, cl_spec):
    # one observation has no standard error: refused, never a NaN stderr; a
    # one-path config stays valid for the single-path oracle
    for antithetic in (False, True):
        cfg = SimulationConfig(n_paths=1, seed=0, antithetic=antithetic, dt=0.05, t_max=12.0)
        for spec in (bm_spec, cl_spec):
            with pytest.raises(ConfigError, match="at least 2 paths"):
                estimate_exit_functional(spec, 0.0, 3.0, cfg)
            with pytest.raises(ConfigError, match="at least 2 paths"):
                estimate_policy_npv(spec, ImpulsePolicy(0.5, 3.0), 1.0, cfg)
            est = estimate_exit_functional(spec, 0.0, 3.0, replace(cfg, n_paths=2))
            assert est.n_effective == 2 and math.isfinite(est.stderr)


def test_config_defaults(bm_spec, cl_spec):
    dt, t_max = SimulationConfig().resolve(bm_spec)
    assert dt == 1e-3 * min(bm_spec.r, 1.0)
    assert t_max == 50.0 * bm_spec.r
    dt, t_max = SimulationConfig().resolve(cl_spec)
    assert dt == pytest.approx(1e-3)
    assert t_max == 100.0


def test_euler_step_count_is_bounded(bm_spec, cl_spec):
    # checked before any work: dt = 1e-300 used to hang in the ruin-step count
    cfg = SimulationConfig(n_paths=10, dt=1e-300)
    with pytest.raises(ConfigError, match=r"t_max 150\.0 / dt 1e-300"):
        estimate_exit_functional(bm_spec, 0.0, 1.0, cfg)
    with pytest.raises(ConfigError, match="Euler steps"):
        SimulationConfig(dt=1e-6, t_max=100.0 + 1e-6).resolve(bm_spec)
    assert SimulationConfig(dt=1e-6, t_max=100.0).resolve(bm_spec) == (1e-6, 100.0)
    assert SimulationConfig(dt=1e-300).resolve(cl_spec) == (1e-300, 100.0)  # no steps


def test_expected_claim_count_is_bounded(cl_spec):
    # checked before any work: lam * t_max = 5e6 claims per path ran past 60 s
    lam = cl_spec.model.lam
    assert SimulationConfig(t_max=MAX_CLAIM_ROUNDS / lam).resolve(cl_spec)[1] == 5e5
    with pytest.raises(ConfigError, match="claims exceed"):
        SimulationConfig(t_max=1.001 * MAX_CLAIM_ROUNDS / lam).resolve(cl_spec)
    with pytest.raises(ConfigError, match="claims exceed"):
        estimate_exit_functional(cl_spec, 0.0, 3.0, SimulationConfig(n_paths=10, t_max=1e7))


def test_horizon_must_exceed_delay(cl_spec):
    with pytest.raises(ConfigError, match="delay"):
        SimulationConfig(t_max=2.0).resolve(cl_spec)  # r == 2


def test_domain_checks(bm_spec, cl_spec):
    cfg = SimulationConfig(n_paths=10)
    with pytest.raises(DomainError):
        estimate_exit_functional(bm_spec, 3.0, 2.0, cfg)
    with pytest.raises(DomainError):
        estimate_policy_npv(cl_spec, ImpulsePolicy(0.0, 4.0), -0.5, cfg)
    with pytest.raises(DomainError):
        estimate_policy_npv(cl_spec, ImpulsePolicy(0.0, 0.5), 1.0, cfg)  # gap < beta
    for spec in (bm_spec, cl_spec):
        for x, a in ((math.nan, 2.0), (0.0, math.nan), (-math.inf, 2.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                estimate_exit_functional(spec, x, a, cfg)
        for x in (math.nan, math.inf):
            with pytest.raises(DomainError):
                estimate_policy_npv(spec, ImpulsePolicy(0.0, 4.0), x, cfg)
        with pytest.raises(DomainError):
            estimate_policy_npv(spec, ImpulsePolicy(0.0, math.inf), 1.0, cfg)


# ---------------------------------------------------------------------------
# degenerate cases with known answers
# ---------------------------------------------------------------------------


def test_start_on_barrier_pays_one(bm_spec, cl_spec):
    cfg = SimulationConfig(n_paths=100, seed=4)
    for spec in (bm_spec, cl_spec):
        est = estimate_exit_functional(spec, 2.0, 2.0, cfg)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.censored_fraction == 0.0


def test_claimless_hit_is_deterministic():
    spec = _claimless(r=2.0)
    cfg = SimulationConfig(n_paths=500, seed=2)
    est = estimate_exit_functional(spec, 1.0, 3.0, cfg)
    # drift above zero is p - delta = 2.75, so the crossing time is exact
    expected = math.exp(-spec.q * (3.0 - 1.0) / 2.75)
    assert est.mean == pytest.approx(expected, rel=1e-12, abs=0.0)
    # identical payoffs; allow one-pass variance rounding at the 1e-9 level
    assert est.stderr < 1e-6


def test_claimless_ruin_is_deterministic():
    spec = _claimless(r=0.1)
    cfg = SimulationConfig(n_paths=200, seed=2, t_max=50.0)
    # from -1 the surplus needs 1/3 time units to recover, but the clock
    # expires at 0.1, so every path is ruined with zero payoff
    est = estimate_exit_functional(spec, -1.0, 5.0, cfg)
    assert est.mean == 0.0
    assert est.stderr == 0.0
    assert est.censored_fraction == 0.0


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_same_seed_is_bit_identical(cl_spec):
    cfg = SimulationConfig(n_paths=4000, seed=42)
    first = estimate_exit_functional(cl_spec, 1.0, 3.0, cfg)
    second = estimate_exit_functional(cl_spec, 1.0, 3.0, cfg)
    assert first.mean == second.mean
    assert first.stderr == second.stderr
    assert first.n_effective == second.n_effective == 4000


def test_frozen_estimate_regression(cl_spec):
    # pins the substream layout; any change to the path kernels moves this
    cfg = SimulationConfig(n_paths=20_000, seed=7)
    est = estimate_exit_functional(cl_spec, 1.0, 3.0, cfg)
    assert est.mean == pytest.approx(0.84036785272294112, rel=1e-12, abs=0.0)


# One row per kernel path: both models, both functionals, plain and antithetic
# draws, starts below zero, mid-band, on and above the trigger.  Values were
# captured before the exit and NPV kernels were merged, except the two rows
# with the barrier at zero, the edge of the exit functional's domain (a
# barrier below zero is rejected, test_exit_barrier_below_zero_rejected);
# those were captured before that check and lie within 1.4 standard errors
# of V(-1)/V(0).
KERNEL_FROZEN = [
    ("bm", "exit", -1.0, 3.0, False, 0.5048878813157918, 0.016402094119595916),
    ("bm", "exit", -1.0, 3.0, True, 0.5252350160576964, 0.009931039834767058),
    ("bm", "exit", 1.5, 3.0, False, 0.8411351406944313, 0.006826957787336864),
    ("bm", "exit", 1.5, 3.0, True, 0.8477844034422867, 0.004449379194475608),
    ("bm", "npv", 3.0, (0.5, 3.0), False, 8.420913180360216, 0.11079908840503322),
    ("bm", "npv", 3.0, (0.5, 3.0), True, 8.457710060587196, 0.04584989760765686),
    ("bm", "npv", 4.0, (0.5, 3.0), False, 9.420913180360216, 0.11079908840503343),
    ("bm", "npv", 4.0, (0.5, 3.0), True, 9.457710060587196, 0.045849897607657855),
    ("cl", "exit", -1.0, 3.0, False, 0.6531447036458851, 0.008500056005208773),
    ("cl", "exit", -1.0, 3.0, True, 0.6624791873348228, 0.006726839561029426),
    ("cl", "exit", -1.0, 0.0, False, 0.8651030930057101, 0.00688078067401188),
    ("cl", "exit", -1.0, 0.0, True, 0.8741513288829181, 0.006169041427000448),
    ("cl", "npv", 4.0, (0.5, 4.0), False, 9.410099542843298, 0.10950942039699041),
    ("cl", "npv", 4.0, (0.5, 4.0), True, 9.682064126068706, 0.07861537257350881),
    ("cl", "npv", 5.0, (0.5, 4.0), False, 10.4100995428433, 0.10950942039699035),
    ("cl", "npv", 5.0, (0.5, 4.0), True, 10.682064126068706, 0.07861537257350881),
]


@pytest.mark.parametrize("model, functional, x, arg, antithetic, mean, stderr", KERNEL_FROZEN)
def test_kernel_paths_frozen(model, functional, x, arg, antithetic, mean, stderr):
    if model == "bm":
        spec = brownian_spec()
        cfg = SimulationConfig(n_paths=400, seed=3, antithetic=antithetic, dt=0.02, t_max=30.0)
    else:
        spec = cramer_lundberg_spec()
        cfg = SimulationConfig(n_paths=2000, seed=3, antithetic=antithetic, t_max=40.0)
    if functional == "exit":
        est = estimate_exit_functional(spec, x, arg, cfg)
    else:
        est = estimate_policy_npv(spec, ImpulsePolicy(*arg), x, cfg)
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


def _per_block_estimate(spec, x, upper, lower, cfg):
    # the estimator with every substream stepped on its own by the oracle
    dt, t_max = cfg.resolve(spec)
    blocks = []
    for count, gen in zip(_block_counts(cfg.n_paths), _substreams(cfg.seed)):
        if not count:
            continue
        if isinstance(spec.model, BrownianMotion):
            block = brownian_block(spec, x, upper, lower, dt, t_max, gen, count, cfg.antithetic)
        else:
            block = cl_block(spec, x, upper, lower, t_max, gen, count, cfg.antithetic)
        blocks.append(_moments(*block))
    return _combine(blocks, 0.0)


def _assert_matches_per_block(spec, functional, x, arg, cfg):
    if functional == "exit":
        est = estimate_exit_functional(spec, x, arg, cfg)
        ref = _per_block_estimate(spec, x, arg, None, cfg)
    else:
        est = estimate_policy_npv(spec, ImpulsePolicy(*arg), x, cfg)
        ref = _per_block_estimate(spec, x, arg[1], arg[0], cfg)
    for field in ("mean", "stderr", "censored_fraction"):
        assert float.hex(getattr(est, field)) == float.hex(getattr(ref, field)), field
    assert est.n_effective == ref.n_effective
    assert est.warning == ref.warning
    return est


# starts below zero, at zero, mid-band, on the trigger (the exit paid at the
# start) and above it; a policy with lower = 0 pays paths down to exactly 0,
# where neither the Euler drift test u > 0 nor its clock test u < 0 holds
KERNEL_STARTS = [
    ("exit", -1.0, 3.0), ("exit", 0.0, 3.0), ("exit", 1.5, 3.0), ("exit", 3.0, 3.0),
    ("npv", 0.0, (0.5, 3.0)), ("npv", 1.5, (0.5, 3.0)), ("npv", 3.0, (0.5, 3.0)),
    ("npv", 4.0, (0.5, 3.0)), ("npv", 0.0, (0.0, 2.0)),
]


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("functional, x, arg", KERNEL_STARTS)
def test_brownian_kernel_matches_per_block_oracle(functional, x, arg, antithetic):
    # 2, 3 and 7 paths leave some of the eight substreams empty
    spec = brownian_spec()
    for n_paths in (2, 3, 7, 777):
        cfg = SimulationConfig(n_paths=n_paths, seed=5, antithetic=antithetic, dt=0.05,
                               t_max=12.0)
        _assert_matches_per_block(spec, functional, x, arg, cfg)


@pytest.mark.parametrize("antithetic", [False, True])
def test_brownian_kernel_matches_per_block_oracle_all_paths_die(antithetic):
    cfg = SimulationConfig(n_paths=777, seed=8, antithetic=antithetic, dt=0.05, t_max=60.0)
    est = _assert_matches_per_block(brownian_spec(), "exit", 0.5, 3.0, cfg)
    assert est.censored_fraction == 0.0


@pytest.mark.parametrize("antithetic", [False, True])
def test_brownian_kernel_matches_per_block_oracle_censored(antithetic):
    # from -1 some paths are ruined, some reach 3 and the rest are cut at t_max
    cfg = SimulationConfig(n_paths=777, seed=8, antithetic=antithetic, dt=0.05, t_max=4.0)
    est = _assert_matches_per_block(brownian_spec(), "exit", -1.0, 3.0, cfg)
    assert 0.0 < est.censored_fraction < 1.0
    assert est.warning is not None


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("dt", [0.1, 0.01, 0.07])
def test_brownian_clock_edge_matches_per_block_oracle(dt, antithetic):
    # r = 3: summed in floating point, 30 steps of 0.1 reach 3.0000000000000013
    # and ruin, while 300 steps of 0.01 reach 2.99999999999998 and do not;
    # under a policy that step also ends each block of steps drawn at once,
    # and from 0 some policy paths are ruined while the rest reach t_max
    spec = brownian_spec()
    cfg = SimulationConfig(n_paths=777, seed=9, antithetic=antithetic, dt=dt, t_max=60.0)
    _assert_matches_per_block(spec, "exit", -1.0, 3.0, cfg)
    est = _assert_matches_per_block(spec, "npv", 0.0, (0.5, 3.0), cfg)
    assert 0.0 < est.censored_fraction < 1.0
    # plain draws from the first substream: no path is censored and some are ruined
    payoffs, _, n_censored = brownian_block(spec, -1.0, 3.0, None, dt, 60.0,
                                            _substreams(cfg.seed)[0], 98, False)
    assert n_censored == 0 and np.count_nonzero(payoffs == 0.0) > 0


class _RecordedStream:
    """A substream that records ``(block, steps drawn, paths drawn)`` per call."""

    def __init__(self, gen, block, calls):
        self.gen, self.block, self.calls = gen, block, calls

    def standard_normal(self, size=None, out=None):
        shape = np.shape(out) if out is not None else size
        self.calls.append((self.block, *((1, *shape) if len(shape) == 1 else shape)))
        return self.gen.standard_normal(size, out=out)


@pytest.mark.parametrize("antithetic", [False, True])
def test_brownian_policy_draws_ahead_within_group_paths(antithetic, monkeypatch):
    # under a policy each substream draws the steps up to the first one at
    # which the oldest excursion can reach r in one call, holding at most
    # GROUP_PATHS draws: for 777 paths, with room for 100 every step is drawn
    # on its own, with room for 2000 two or more steps at once
    calls = []
    substreams = simulate._substreams
    monkeypatch.setattr(simulate, "_substreams", lambda seed: [
        _RecordedStream(gen, b, calls) for b, gen in enumerate(substreams(seed))])
    for group_paths in (100, 2000):
        monkeypatch.setattr(simulate, "GROUP_PATHS", group_paths)
        calls.clear()
        cfg = SimulationConfig(n_paths=777, seed=5, antithetic=antithetic, dt=0.05,
                               t_max=30.0)
        _assert_matches_per_block(brownian_spec(), "npv", 0.0, (0.5, 3.0), cfg)
        # one call per live substream and draw, in substream order
        draws = [[]]
        for call in calls:
            if draws[-1] and call[0] <= draws[-1][-1][0]:
                draws.append([])
            draws[-1].append(call)
        steps = [{k for _, k, _ in draw} for draw in draws]
        assert all(len(k) == 1 for k in steps)  # each substream draws as many steps
        steps = [k.pop() for k in steps]
        held = [(2 if antithetic else 1) * sum(k * m for _, k, m in draw) for draw in draws]
        assert all(h <= group_paths for k, h in zip(steps, held) if k > 1)
        assert (max(steps) > 1) == (group_paths == 2000)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("x", [0.55, 1.0])
@pytest.mark.parametrize("group_paths", [GROUP_PATHS, 100, 2000])
def test_brownian_dense_payments_match_per_block_oracle(group_paths, x, antithetic,
                                                        monkeypatch):
    # a 0.1-wide band nets 0.05 a payment: paths pay on consecutive steps and
    # several times in one block of steps drawn at once, so a block settles
    # many payments per path; with room for 100 draws every block is one step
    monkeypatch.setattr(simulate, "GROUP_PATHS", group_paths)
    cfg = SimulationConfig(n_paths=777, seed=6, antithetic=antithetic, dt=0.05, t_max=30.0)
    _assert_matches_per_block(brownian_spec(), "npv", x, (0.5, 0.6), cfg)


@pytest.mark.parametrize("k, n", [(1, 1), (2, 7), (30, 62), (5, 1000)])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_standard_normal_block_equals_consecutive_fills(seed, k, n):
    # the stream property the Euler kernel's draws ahead rely on: one
    # (k, n) call gives the values of k fills of n, and leaves the stream
    # where they would
    whole, rows = _substreams(seed)[0], _substreams(seed)[0]
    block, filled = whole.standard_normal((k, n)), np.empty((k, n))
    for row in filled:
        rows.standard_normal(out=row)
    assert np.array_equal(block, filled)
    assert whole.standard_normal() == rows.standard_normal()


@pytest.mark.parametrize("n_slots, n_adds", [(3, 5), (37, 5000)])
def test_add_at_adds_repeated_indices_in_order(n_slots, n_adds):
    # the NumPy property the Euler kernel's block settlement relies on:
    # np.add.at adds repeated indices one by one in index order, as
    # consecutive += of each value would
    rng = np.random.default_rng(n_adds)
    at = rng.integers(0, n_slots, n_adds)
    at[:2] = 0  # a repeat even in the short case
    adds = rng.standard_normal(n_adds) * 10.0 ** rng.integers(-8, 8, n_adds)
    start = rng.standard_normal(n_slots)
    whole, one_by_one, backwards = start.copy(), start.copy(), start.copy()
    np.add.at(whole, at, adds)
    for i, v in zip(at, adds):
        one_by_one[i] += v
    for i, v in zip(at[::-1], adds[::-1]):
        backwards[i] += v
    assert [float.hex(v) for v in whole] == [float.hex(v) for v in one_by_one]
    if n_adds > 100:  # the order shows in the last bits
        assert not np.array_equal(whole, backwards)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("functional, x, arg", KERNEL_STARTS)
def test_cl_kernel_matches_per_block_oracle(functional, x, arg, antithetic):
    # 2, 3 and 7 paths leave some of the eight substreams empty
    spec = cramer_lundberg_spec()
    for n_paths in (2, 3, 7, 777):
        cfg = SimulationConfig(n_paths=n_paths, seed=5, antithetic=antithetic, t_max=40.0)
        _assert_matches_per_block(spec, functional, x, arg, cfg)


@pytest.mark.parametrize("antithetic", [False, True])
def test_cl_kernel_matches_per_block_oracle_several_groups(antithetic):
    # more paths than the working set holds: later substreams join as room frees up
    n_paths = 3 * GROUP_PATHS + 5
    cfg = SimulationConfig(n_paths=n_paths, seed=6, antithetic=antithetic, t_max=2.5)
    _assert_matches_per_block(cramer_lundberg_spec(), "exit", 1.0, 3.0, cfg)
    _assert_matches_per_block(cramer_lundberg_spec(), "npv", 1.0, (0.5, 3.0), cfg)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("functional, x, arg", KERNEL_STARTS)
def test_cl_kernel_matches_per_block_oracle_joining_mid_flight(functional, x, arg, antithetic,
                                                               monkeypatch):
    # substreams of about 98 paths (or columns) in a working set of 100 or
    # 250: each joins while an earlier one's tail is live, or once none is
    for group_paths in (100, 250):
        monkeypatch.setattr(simulate, "GROUP_PATHS", group_paths)
        cfg = SimulationConfig(n_paths=777, seed=5, antithetic=antithetic, t_max=40.0)
        _assert_matches_per_block(cramer_lundberg_spec(), functional, x, arg, cfg)


@pytest.mark.parametrize("antithetic", [False, True])
def test_cl_working_set_is_bounded(antithetic, monkeypatch):
    # the draw columns in use never pass GROUP_PATHS, unless one substream of
    # about 98 is larger on its own; with room for two, two run at once
    draw_slices, widths = simulate._Layout.draw_slices, []

    def recorded(layout, idx):
        out = draw_slices(layout, idx)
        widths.append(out[2])
        return out

    monkeypatch.setattr(simulate._Layout, "draw_slices", recorded)
    cfg = SimulationConfig(n_paths=777, seed=5, antithetic=antithetic)
    for group_paths, most in ((50, 98), (250, 250)):
        monkeypatch.setattr(simulate, "GROUP_PATHS", group_paths)
        widths.clear()
        estimate_exit_functional(cramer_lundberg_spec(), 0.0, 3.0, cfg)
        assert max(widths) <= most and (max(widths) > 98) == (group_paths == 250)


def test_cl_kernel_memory_is_bounded(cl_spec):
    # the working set's rows are allocated once per call, and the payoffs of
    # substreams that joined together give way to their moments once their
    # last path leaves: a 100k-path exit peaked at 3.5 MB of traced
    # allocations when a payoff and a censoring flag per path lived through
    # the call and each claim round made about twenty working-set-sized
    # temporaries
    upper = find_optimal_policy(parisian_scale(cl_spec)).policy.upper
    estimate_exit_functional(cl_spec, 0.0, upper, SimulationConfig(n_paths=100))  # lazy imports
    tracemalloc.start()
    try:
        estimate_exit_functional(cl_spec, 0.0, upper, SimulationConfig(n_paths=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6


@pytest.mark.parametrize("antithetic", [False, True])
def test_cl_kernel_matches_per_block_oracle_all_paths_die(antithetic):
    cfg = SimulationConfig(n_paths=777, seed=8, antithetic=antithetic, t_max=200.0)
    est = _assert_matches_per_block(cramer_lundberg_spec(), "exit", 0.5, 3.0, cfg)
    assert est.censored_fraction == 0.0


@pytest.mark.parametrize("antithetic", [False, True])
def test_cl_kernel_matches_per_block_oracle_censored(antithetic):
    # from -1 some paths are ruined, some reach 3 and the rest are cut at t_max
    cfg = SimulationConfig(n_paths=777, seed=8, antithetic=antithetic, t_max=2.5)
    est = _assert_matches_per_block(cramer_lundberg_spec(), "exit", -1.0, 3.0, cfg)
    assert 0.0 < est.censored_fraction < 1.0
    assert est.warning is not None


@pytest.mark.parametrize("model", ["bm", "cl"])
def test_exit_barrier_below_zero_rejected(model):
    # V(x)/V(a) is not the exit functional there: at a first passage below 0
    # the excursion clock is still running
    spec = brownian_spec() if model == "bm" else cramer_lundberg_spec()
    cfg = SimulationConfig(n_paths=10, seed=3)
    with pytest.raises(DomainError, match="barrier"):
        estimate_exit_functional(spec, -1.0, -0.5, cfg)
    with pytest.raises(DomainError, match="barrier"):
        estimate_exit_functional(spec, -0.5, -0.5, cfg)


def test_tiny_path_count_works(cl_spec):
    est = estimate_exit_functional(cl_spec, 1.0, 3.0, SimulationConfig(n_paths=3, seed=0))
    assert est.n_effective == 3
    assert math.isfinite(est.stderr)


# ---------------------------------------------------------------------------
# agreement with the closed form
# ---------------------------------------------------------------------------


def test_exit_matches_closed_form_compound_poisson(cl_spec, cl_scale):
    cfg = SimulationConfig(n_paths=20_000, seed=7)
    target = cl_scale.value(1.0) / cl_scale.value(3.0)
    est = estimate_exit_functional(cl_spec, 1.0, 3.0, cfg)
    assert abs(est.mean - target) <= 3.0 * est.stderr
    assert est.warning is None


def test_exit_matches_closed_form_from_below_zero(cl_spec, cl_scale):
    cfg = SimulationConfig(n_paths=20_000, seed=5)
    target = cl_scale.value(-1.0) / cl_scale.value(3.0)
    est = estimate_exit_functional(cl_spec, -1.0, 3.0, cfg)
    assert abs(est.mean - target) <= 3.0 * est.stderr


def test_antithetic_pairs(cl_spec, cl_scale):
    target = cl_scale.value(1.0) / cl_scale.value(3.0)
    plain = estimate_exit_functional(
        cl_spec, 1.0, 3.0, SimulationConfig(n_paths=20_000, seed=9)
    )
    anti = estimate_exit_functional(
        cl_spec, 1.0, 3.0, SimulationConfig(n_paths=20_000, seed=9, antithetic=True)
    )
    assert anti.n_effective == 10_000  # pair averages count once
    assert abs(anti.mean - target) <= 3.0 * anti.stderr
    assert anti.stderr < plain.stderr  # negative pair correlation helps here


def test_exit_matches_closed_form_brownian(bm_spec, bm_scale):
    cfg = SimulationConfig(n_paths=100_000, seed=11, dt=1e-3)
    target = bm_scale.value(0.5) / bm_scale.value(2.0)
    est = estimate_exit_functional(bm_spec, 0.5, 2.0, cfg)
    # Euler bias at this step size is ~2 stderr; 3 sigma still covers it
    assert abs(est.mean - target) <= 3.0 * est.stderr


def test_npv_matches_value_function_brownian(bm_spec, bm_scale, optimum):
    policy = optimum(bm_spec).policy
    target = value_function(bm_scale, policy, 1.0)
    cfg = SimulationConfig(n_paths=10_000, seed=17, dt=2e-3, t_max=150.0)
    est = estimate_policy_npv(bm_spec, policy, 1.0, cfg)
    assert abs(est.mean - target) <= 3.0 * est.stderr
    # many diffusion paths survive 150 time units; the censor warning fires
    assert est.warning is not None
    assert est.censored_fraction > 0.1


def test_censoring_reported(cl_spec):
    cfg = SimulationConfig(n_paths=2000, seed=1, t_max=2.5)
    est = estimate_exit_functional(cl_spec, 0.0, 30.0, cfg)
    assert est.censored_fraction > 0.5  # barrier is far, horizon is short
    assert est.warning is not None and "censored" in est.warning


# ---------------------------------------------------------------------------
# single-path oracle and the excursion clock
# ---------------------------------------------------------------------------


def test_single_path_immediate_hit(cl_spec):
    out = simulate_refracted_path(cl_spec, 5.0, 3.0, SimulationConfig(n_paths=1))
    assert out.reason == "hit"
    assert out.time == 0.0


def test_single_path_deterministic_crossing():
    spec = _claimless(r=2.0)
    cfg = SimulationConfig(n_paths=1, seed=0)
    out, ts, us = simulate_refracted_path(spec, 1.0, 3.0, cfg, record_path=True)
    assert out.reason == "hit"
    assert out.value == 3.0
    assert out.time == pytest.approx((3.0 - 1.0) / 2.75, rel=1e-12, abs=0.0)
    assert ts[0] == 0.0 and us[0] == 1.0 and us[-1] == 3.0


def test_brownian_increment_moments(bm_spec):
    # far above zero the refracted drift mu - delta acts on every step
    cfg = SimulationConfig(n_paths=1, seed=13, dt=1e-3, t_max=100.0)
    out, ts, us = simulate_refracted_path(bm_spec, 1000.0, None, cfg, record_path=True)
    assert out.reason == "censored"
    inc = np.diff(us)
    n = inc.size
    drift, var = 0.45e-3, 0.5625e-3
    assert abs(inc.mean() - drift) <= 4.0 * math.sqrt(var / n)
    assert abs(inc.var() - var) <= 4.0 * var * math.sqrt(2.0 / n)
    assert np.allclose(np.diff(ts), 1e-3)


def test_parisian_clock_sampled_paths():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([1.0, -1.0, -1.0, 1.0])
    assert parisian_clock(t, v, 2.0) == 2.0
    assert parisian_clock(t, v, 2.0001) is None
    # a path that starts negative counts its excursion from time zero
    assert parisian_clock(np.array([0.0, 1.0]), np.array([-1.0, -1.0]), 1.0) == 1.0
    assert parisian_clock(t, np.abs(v), 0.5) is None
    with pytest.raises(ValueError):
        parisian_clock(t, v[:2], 1.0)


def test_parisian_clock_matches_path_kernel():
    # per-step Euler paths re-scored by the standalone clock must agree;
    # the delay is kept off the step lattice so 1-ulp rounding in the
    # kernel's accumulated clock cannot flip the crossing step
    from parisian_impulse.models import BrownianMotion

    spec = ProblemSpec(model=BrownianMotion(mu=-0.1, sigma=1.0), delta=0.05,
                       q=0.05, r=0.995, beta=0.1)
    cfg = SimulationConfig(n_paths=1, seed=0, dt=1e-2, t_max=30.0)
    ruins = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        out, ts, us = simulate_refracted_path(spec, 0.5, None, cfg, rng=rng,
                                              record_path=True)
        ruin_time = parisian_clock(ts, us, spec.r)
        if out.reason == "ruin":
            ruins += 1
            assert ruin_time == pytest.approx(out.time, rel=1e-12, abs=0.0)
        else:
            assert ruin_time is None
    assert ruins >= 2  # the downward drift makes ruin the common outcome

"""Monte Carlo oracle for refracted surplus paths under Parisian ruin.

Two estimators are provided, both independent of the closed forms in
:mod:`parisian_impulse.parisian`:

* :func:`estimate_exit_functional` -- the discounted two-sided exit quantity
  ``E_x[exp(-q * T_a) ; T_a < ruin]`` where ``T_a`` is the first passage above
  ``a`` and ruin is Parisian (an excursion below zero lasting at least ``r``).
* :func:`estimate_policy_npv` -- the expected discounted net dividend stream of
  an impulse policy (pay down from the upper trigger to the lower level, a flat
  transaction cost per payment), stopped at Parisian ruin.

Each model has one path kernel, and both estimators share it: the exit
functional is the policy kernel with an absorbing payment at ``a`` that pays
``exp(-q * T_a)``, selected by passing no lower level.

Conventions of both kernels:

* The compound Poisson model is simulated exactly (event-driven, crossing and
  payment times solved in closed form); the Brownian model uses plain
  Euler-Maruyama with a per-step excursion clock, so its bias is controlled by
  step-size refinement rather than by exactness.
* A path whose excursion below zero reaches length ``r`` is ruined; recovery at
  exactly the deadline counts as recovery, and a claim landing exactly on the
  deadline arrives too late to matter.  Paths started below zero have their
  excursion measured from time zero.
* Payments trigger at the closure ``surplus >= upper`` so that piecewise-linear
  paths creeping onto the trigger are handled deterministically.
* Paths still alive at the horizon are censored: they contribute zero to the
  exit functional and keep their accumulated dividends in the NPV estimator.
  Censoring beyond 0.1% of paths attaches a warning to the estimate.

Estimates are reproducible bit for bit: paths are split over a fixed number of
seeded substreams and block moments are combined in a fixed order.  Both
kernels step the substreams' paths as one array, each substream drawing in the
order it would alone.  The exact kernel keeps at most ``GROUP_PATHS`` live
paths in rows allocated once per call; whole substreams join in order as soon as
they fit, and those that join together share a payoff array until their last
path leaves.  Paths keep their own clocks, so when one joins does not change its draws.
Under a policy only ruin removes a Brownian path, and none before the oldest
excursion can reach ``r``, so the Euler kernel steps up to then as one block.
Each substream draws the block's steps in one call, which yields the values of
one call per step.  The live paths keep their columns through the block, so a
step only moves them and resets those that pay; the payments, in step order,
and the excursion starts are read once from the block's record of levels.  The
exit functional, whose barrier can remove a path at any step, steps one at a time.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .models import BrownianMotion, CramerLundberg, ImpulsePolicy, ProblemSpec

N_BLOCKS = 8
GROUP_PATHS = 2**14  # most live paths in the exact kernel's working set, most Euler draws held
CENSOR_WARN_FRACTION = 1e-3
MAX_CLAIM_ROUNDS = 1e6  # expected claims per path, lam * t_max; the benchmark box reaches 3e4

# uniforms are clipped away from {0, 1} so inverse transforms stay finite
_U_LO = 1e-16
_U_HI = 1.0 - 1e-16


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for the Monte Carlo estimators.

    ``dt`` applies to the Brownian scheme only and defaults to
    ``1e-3 * min(r, 1)``; ``t_max`` defaults to ``50 * r``.  With
    ``antithetic`` set, paths are simulated in mirrored pairs (negated normals
    for the Brownian scheme, reflected uniforms for the compound Poisson one)
    and each pair average counts as one observation; the requested path count
    is rounded up to a whole number of pairs.  The estimators need at least
    two paths, as one has no standard error.
    """

    n_paths: int = 100_000
    dt: float | None = None
    t_max: float | None = None
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        for name, least in (("n_paths", 1), ("seed", 0)):
            value = getattr(self, name)  # NumPy integers pass; floats and bools do not
            if (isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__")
                    or operator.index(value) < least):
                raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
        for name in ("dt", "t_max"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, (bool, np.bool_))
                                      or not isinstance(value, numbers.Real)
                                      or not 0.0 < value < math.inf):
                raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ConfigError(f"antithetic must be a bool, got {self.antithetic!r}")

    def resolve(self, spec: ProblemSpec) -> tuple[float, float]:
        """Concrete (dt, t_max) for a problem; enforces t_max > r, at most 1e8
        Euler steps and at most ``MAX_CLAIM_ROUNDS`` expected claims per path."""
        dt = self.dt if self.dt is not None else 1e-3 * min(spec.r, 1.0)
        t_max = self.t_max if self.t_max is not None else 50.0 * spec.r
        if not t_max > spec.r:
            raise ConfigError(f"t_max {t_max} must exceed the Parisian delay {spec.r}")
        if isinstance(spec.model, BrownianMotion) and not t_max / dt <= 1e8:
            raise ConfigError(f"t_max {t_max} / dt {dt} exceeds 1e8 Euler steps")
        claims = spec.model.lam * t_max if isinstance(spec.model, CramerLundberg) else 0.0
        if not claims <= MAX_CLAIM_ROUNDS:
            raise ConfigError(f"lam * t_max = {claims:.6g} claims exceed {MAX_CLAIM_ROUNDS:g}")
        return dt, t_max


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    n_effective: int
    elapsed_seconds: float
    censored_fraction: float
    warning: str | None = None


def _substreams(seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(N_BLOCKS)]


def _block_counts(total: int) -> list[int]:
    base, rem = divmod(total, N_BLOCKS)
    return [base + (1 if i < rem else 0) for i in range(N_BLOCKS)]


def _moments(pay: np.ndarray, n_raw: int, n_censored: int) -> tuple:
    """A block's payoff sum, sum of squares and count, and its raw and censored path counts."""
    return float(np.sum(pay)), float(np.sum(pay * pay)), pay.size, n_raw, n_censored


class _Accumulator:
    """Running moments; blocks are added in a fixed order so results are
    independent of any internal scheduling."""

    def __init__(self) -> None:
        self.sums = (0.0, 0.0, 0, 0, 0)  # of the blocks' moments, in order

    def add_block(self, payoffs: np.ndarray, n_raw: int, n_censored: int) -> None:
        self.add_moments(_moments(payoffs, n_raw, n_censored))

    def add_moments(self, moments: tuple) -> None:
        self.sums = tuple(map(operator.add, self.sums, moments))

    def estimate(self, elapsed: float) -> MonteCarloEstimate:
        s1, s2, n, n_raw, n_censored = self.sums
        mean = s1 / n
        var = max(s2 - n * mean * mean, 0.0) / (n - 1)
        stderr = math.sqrt(var / n)
        frac = n_censored / n_raw if n_raw else 0.0
        warning = None
        if frac > CENSOR_WARN_FRACTION:
            warning = (
                f"censored {n_censored} of {n_raw} paths "
                f"({100.0 * frac:.3f}%); estimate is biased low by at most the "
                "discounted tail beyond the horizon"
            )
        return MonteCarloEstimate(mean, stderr, n, elapsed, frac, warning)


def _pair_average(payoffs: np.ndarray, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return payoffs
    half = payoffs.size // 2
    return 0.5 * (payoffs[:half] + payoffs[half:])


def _block_size(n_paths: int, antithetic: bool) -> tuple[int, int]:
    """(mirrored pairs, simulated paths) for one block."""
    n_pairs = (n_paths + 1) // 2 if antithetic else 0
    return n_pairs, 2 * n_pairs if antithetic else n_paths


def _start_payment(spec: ProblemSpec, x: float, upper: float, lower: float | None,
                   n: int) -> tuple[np.ndarray, float]:
    """NPV at time zero and the surplus just after it: under a policy, a start
    at or above ``upper`` pays the excess down to ``lower`` at once."""
    x0 = float(x)
    if lower is None or x0 < upper:
        return np.zeros(n), x0
    first = x0 - lower - spec.beta
    assert first > 0.0 and lower >= 0.0
    return np.zeros(n) + first, lower


class _Layout:
    """The blocks' paths laid out block after block in one array: block ``b``
    holds ``offsets[b]:offsets[b + 1]``, its ``pairs[b]`` mirrors last when
    antithetic, and draws from its own generator in the order it would alone."""

    def __init__(self, counts: list[int], antithetic: bool) -> None:
        self.antithetic = antithetic
        self.pairs, self.sizes = zip(*(_block_size(count, antithetic) for count in counts))
        self.offsets = [0, *itertools.accumulate(self.sizes)]

    def draw_slices(self, idx: np.ndarray) -> tuple[list, slice | np.ndarray, int]:
        """``(block, head, tail)`` per block with live paths in ``idx``, the
        buffer columns holding the live paths' draws, and the columns in use.
        A plain block fills its live paths' slice of ``buffer[:idx.size]`` and
        has an empty tail; an antithetic one fills its whole layout, dead paths
        included, with draws and their mirrors, in columns of its own."""
        bounds = np.searchsorted(idx, self.offsets).tolist()
        live = [b for b in range(len(self.pairs)) if bounds[b + 1] > bounds[b]]
        if not self.antithetic:
            fills = [(b, slice(bounds[b], bounds[b + 1]), slice(0)) for b in live]
            return fills, slice(idx.size), idx.size
        cols = [0, *itertools.accumulate(self.sizes[b] for b in live)]
        shift = [self.offsets[b] - lo for b, lo in zip(live, cols)]
        return ([(b, slice(lo, lo + self.pairs[b]), slice(lo + self.pairs[b], hi))
                 for b, lo, hi in zip(live, cols, cols[1:])],
                idx - np.repeat(shift, [bounds[b + 1] - bounds[b] for b in live]), cols[-1])

    def moments(self, value: np.ndarray, n_censored: list[int], first: int = 0) -> list[tuple]:
        """Moments of blocks ``first`` on, one per censored count, with payoffs in ``value``."""
        base = self.offsets[first]
        return [_moments(_pair_average(value[lo - base:hi - base], self.antithetic), hi - lo, c)
                for lo, hi, c in zip(self.offsets[first:], self.offsets[first + 1:], n_censored)]


# ---------------------------------------------------------------------------
# Brownian kernel (Euler-Maruyama, per-step Parisian clock)
# ---------------------------------------------------------------------------


def _brownian_paths(spec: ProblemSpec, x: float, upper: float, lower: float | None,
                    dt: float, t_max: float, gens: list[np.random.Generator],
                    counts: list[int], antithetic: bool) -> list[tuple]:
    """Payoff moments of every block, with its raw and censored path counts.

    With ``lower`` None a touch of ``upper`` pays ``exp(-q t)`` and absorbs the
    path (exit functional); otherwise it pays the surplus down to ``lower`` at
    cost ``spec.beta`` and the path goes on (impulse policy NPV).
    """
    model = spec.model
    assert isinstance(model, BrownianMotion)
    layout = _Layout(counts, antithetic)
    n = layout.offsets[-1]
    value, x0 = _start_payment(spec, x, upper, lower, n)
    absorbed = lower is None and x0 >= upper
    if absorbed:
        value += 1.0

    u = np.full(n, x0)
    idx = np.arange(0 if absorbed else n)
    z_all = np.empty(n)
    fills = None  # per live block: its generator and the slices its draws fill
    sig_dt = model.sigma * math.sqrt(dt)
    mu, delta, q, r = model.mu, spec.delta, spec.q, spec.r
    n_steps = int(math.ceil(t_max / dt))
    # the excursion clock is a running float sum of dt: ruin on the m_r-th step below zero
    m_r, exc = 0, 0.0
    while not exc >= r and m_r <= n_steps:
        exc, m_r = exc + dt, m_r + 1
    began = np.zeros(n, dtype=np.int64)  # step the running excursion began in; time zero counts
    step = oldest = 0  # steps taken; no live excursion began before step oldest
    # rounding is monotone, so every payment nets at least upper - lower - beta
    assert lower is None or (lower >= 0.0 and upper - lower - spec.beta > 0.0)

    while step < n_steps and idx.size:
        if fills is None:
            slices, cols, width = layout.draw_slices(idx)
            fills = [(gens[b], z_all[head], z_all[tail]) for b, head, tail in slices]
        # under a policy only ruin removes a path, none before step oldest + m_r - 1:
        # one call per substream draws the steps up to it, as one fill per step would
        k = 1 if lower is None else max(1, min(oldest + m_r - step, n_steps - step,
                                               GROUP_PATHS // width))
        done = False
        if k == 1:  # a step on its own, as the exit functional always takes
            for gen, head, tail in fills:
                gen.standard_normal(out=head)
                if antithetic:
                    np.negative(head, out=tail)
            # drift indicator from the step start, barrier and clock at step end
            inc = np.where(u > 0.0, (mu - delta) * dt, mu * dt)
            inc += sig_dt * z_all[cols]
            u += inc
            if u.max() >= upper:
                pay, disc = u >= upper, math.exp(-q * ((step + 1) * dt))
                if lower is None:
                    value[idx[pay]], done = disc, pay
                else:
                    # the Euler step can overshoot the trigger; pay the whole excess
                    value[idx[pay]] += disc * (u[pay] - lower - spec.beta)
                    u[pay] = lower
        else:
            z = np.empty((k, width))
            for b, head, tail in slices:
                z[:, head] = gens[b].standard_normal((k, head.stop - head.start))
                if antithetic:
                    z[:, tail] = -z[:, head]
            # no path leaves inside the block, so each step's levels fill a row of
            # its record, which starts as the step's scaled draws
            levels = sig_dt * (np.take(z, cols, axis=1) if antithetic else z)
            hits = np.empty(levels.shape, dtype=bool)
            for lv, hit in zip(levels, hits):
                lv += np.where(u > 0.0, (mu - delta) * dt, mu * dt)
                lv += u
                np.greater_equal(lv, upper, out=hit)
                u = lv.copy()
                u[hit] = lower
            # each payment is the whole excess, as in a step on its own; add.at adds
            # them in step order, so each path's one by one
            flat = np.flatnonzero(hits)
            rows, at = np.divmod(flat, idx.size)
            disc = np.array([math.exp(-q * ((s + 1) * dt)) for s in range(step, step + k)])
            np.add.at(value, idx[at], disc[rows] * (levels.take(flat) - lower - spec.beta))
        step += k
        neg = u < 0.0
        began = np.where(neg, began, step)
        if k > 1:
            # a payment resets to lower >= 0, so a level has the sign of the path after
            # it: a path that went below zero inside the block began its excursion
            # after its last level >= 0, some steps back from the block's end
            went = np.flatnonzero(neg & (levels[:-1].max(axis=0) >= 0.0))
            began[went] = step - np.argmax(levels.take(went, axis=1)[::-1] >= 0.0, axis=0)
        if step - m_r >= oldest:  # the oldest excursion may have lasted r
            done = done | (began <= step - m_r)
            oldest = int(np.min(began, where=~done, initial=step))
        if done is not False and done.any():
            keep = ~done
            u, began, idx = u[keep], began[keep], idx[keep]
            fills = None
    return layout.moments(value, np.diff(np.searchsorted(idx, layout.offsets)).tolist())


# ---------------------------------------------------------------------------
# Compound Poisson kernel (exact, event-driven)
# ---------------------------------------------------------------------------


def _cl_paths(spec: ProblemSpec, x: float, upper: float, lower: float | None,
              t_max: float, gens: list[np.random.Generator], counts: list[int],
              antithetic: bool) -> list[tuple]:
    """Payoff moments of every block, with its raw and censored path counts.

    ``lower`` selects the functional as in :func:`_brownian_paths`.  A payment
    returns the path to ``lower``, from where it may reach ``upper`` again
    before the next claim, so payments come in evenly spaced chains.
    """
    model = spec.model
    assert isinstance(model, CramerLundberg)
    layout = _Layout(counts, antithetic)
    p, lam, mu_c = model.p, model.lam, model.mu_claim
    slope_up = p - spec.delta
    q, r = spec.q, spec.r
    if lower is not None:
        net = upper - lower - spec.beta
        tau = (upper - lower) / slope_up  # spacing of back-to-back payments
        disc_tau = math.expm1(-q * tau)

    # rows as wide as the working set: uniforms that turn into claim times and sizes in
    # place; the live paths' surplus, clock, ruin deadline (read only while below 0) and
    # index; a scratch row, so that no compaction reads the row it writes
    rows = np.empty((6, min(layout.offsets[-1], max(GROUP_PATHS, *layout.sizes))))
    draws, (u_row, t_row, dl_row, scratch) = rows[:2], rows[2:]
    idx_row = np.empty(rows.shape[1], dtype=np.int64)
    payoffs: dict[range, np.ndarray] = {}  # of the blocks that joined at once, back to back
    moments: list = [None] * len(counts)  # per block, once the last path of its join left
    n_cut = np.zeros(len(counts), dtype=np.int64)  # censored at the horizon

    def claim_round(n: int, fills: list, cols: slice | np.ndarray, width: int) -> int:
        """Step the ``n`` live paths to their next claims, compact the survivors and
        return their count; the round's temporaries go when it returns."""
        u, t, deadline, idx = u_row[:n], t_row[:n], dl_row[:n], idx_row[:n]
        for b, head, tail in fills:
            for row in draws:
                gens[b].random(out=row[head])
                if antithetic:
                    np.subtract(1.0, row[head], out=row[tail])
        t_claim, claim = logs = draws[:, :n]
        if antithetic:
            np.take(draws[:, :width], cols, axis=1, out=logs)
        np.log(np.clip(logs, _U_LO, _U_HI, out=logs), out=logs)
        np.subtract(t, np.divide(t_claim, lam, out=t_claim), out=t_claim)
        claim /= -mu_c
        late = t_claim.max() > t_max

        # every path on the upper track first, then the ones below zero: ruined,
        # recovering in time, or still below at the claim; a payment wins a claim-time tie
        t_hit = np.divide(np.subtract(upper, u, out=scratch[:n]), slope_up, out=scratch[:n])
        t_hit += t
        below = np.flatnonzero(u < 0.0)
        t_rec = t[below] + (0.0 - u[below]) / p
        stop = np.minimum(t_claim[below], t_max) if late else t_claim[below]  # or the horizon
        ruined = (deadline[below] < t_rec) & (deadline[below] <= stop)
        recovers = ~ruined & (t_rec <= stop)
        t_hit[below] = np.where(recovers, t_rec + upper / slope_up, np.inf)
        rec, stay = below[recovers], below[~(ruined | recovers)]
        u[rec], t[rec] = 0.0, t_rec[recovers]
        pays = np.flatnonzero((t_hit <= t_claim) & (t_hit <= t_max) if late else t_hit <= t_claim)
        done = np.zeros(n, dtype=bool)
        done[below[ruined]] = True
        del below, t_rec, stop, ruined, recovers, rec  # room for the compaction's copies
        if lower is None:
            amount = np.exp(-q * t_hit[pays])  # onto a payoff of 0
            done[pays] = True
        elif pays.size:
            assert lower >= 0.0 and net > 0.0
            # whole chain of evenly spaced payments inside this claim interval, k of them
            k = np.floor((np.minimum(t_claim[pays], t_max) - t_hit[pays]) / tau) + 1
            chain = np.exp(-q * t_hit[pays]) * np.expm1(-q * tau * k) / disc_tau
            amount = net * chain
            u[pays], t[pays] = lower, t_hit[pays] + (k - 1) * tau
        paths = idx[pays]
        cuts = np.searchsorted(paths, layout.offsets).tolist()
        for blocks, value in payoffs.items():  # one scatter per join, into its payoffs
            lo, hi = cuts[blocks.start], cuts[blocks.stop]
            if hi > lo:
                value[paths[lo:hi] - layout.offsets[blocks.start]] += amount[lo:hi]
        if late:
            censored = ~done & (t_claim > t_max)
            n_cut[:] += np.diff(np.searchsorted(idx[censored], layout.offsets))
            done |= censored

        u_new = np.multiply(np.subtract(t_claim, t, out=scratch[:n]), slope_up, out=scratch[:n])
        u_new += u
        u_new -= claim
        u_new[stay] = u[stay] + p * (t_claim[stay] - t[stay]) - claim[stay]
        # an excursion starting at the claim would end at dl_new; an ongoing one keeps its own
        dl_new = np.add(t_claim, r, out=claim)  # the claim sizes are spent
        dl_new[stay] = deadline[stay]
        keep = np.flatnonzero(~done)
        for row, live in ((u_row, u_new), (t_row, t_claim), (dl_row, dl_new), (idx_row, idx)):
            live.take(keep, out=row[:keep.size], mode="clip")  # clip: no buffered copy
        return keep.size

    n = n_live = joined = 0  # live paths and blocks, and the blocks that joined the working set
    while True:
        fills, cols, width = layout.draw_slices(idx_row[:n])
        if len(fills) < n_live:  # the last path of some block left
            live = {b for b, _, _ in fills}
            for blocks in [blocks for blocks in payoffs if live.isdisjoint(blocks)]:
                moments[blocks.start:blocks.stop] = layout.moments(
                    payoffs.pop(blocks), n_cut[blocks.start:blocks.stop].tolist(), blocks.start)
        n_live = len(fills)
        j, m = joined, n  # whole blocks join in order, as soon as they fit beside the rest
        while joined < len(counts) and (not n or width + layout.sizes[joined] <= GROUP_PATHS):
            n, width, joined = n + layout.sizes[joined], width + layout.sizes[joined], joined + 1
        if joined > j:  # blocks j to joined - 1 share a payoff array
            payoffs[range(j, joined)], u_row[m:n] = _start_payment(spec, x, upper, lower, n - m)
            t_row[m:n], dl_row[m:n] = 0.0, r
            idx_row[m:n] = np.arange(layout.offsets[j], layout.offsets[joined])
        elif not n:
            return moments
        else:
            n = claim_round(n, fills, cols, width)


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def _estimate(spec: ProblemSpec, x: float, upper: float, lower: float | None,
              config: SimulationConfig) -> MonteCarloEstimate:
    """Run the model's kernel over the seeded substreams and combine blocks."""
    if config.n_paths < 2:  # one observation has no standard error
        raise ConfigError(f"an estimate needs at least 2 paths, got {config.n_paths}")
    dt, t_max = config.resolve(spec)
    start = time.perf_counter()
    counts, gens = _block_counts(config.n_paths), _substreams(config.seed)
    if isinstance(spec.model, BrownianMotion):
        blocks = _brownian_paths(spec, x, upper, lower, dt, t_max, gens, counts,
                                 config.antithetic)
    else:
        blocks = _cl_paths(spec, x, upper, lower, t_max, gens, counts, config.antithetic)
    acc = _Accumulator()
    for count, block in zip(counts, blocks):
        if count:
            acc.add_moments(block)
    return acc.estimate(time.perf_counter() - start)


def estimate_exit_functional(spec: ProblemSpec, x: float, a: float,
                             config: SimulationConfig) -> MonteCarloEstimate:
    """Estimate the discounted probability of reaching ``a`` before Parisian ruin.

    The analytic counterpart is ``parisian_scale(spec).value(x) / value(a)``,
    which needs ``a >= 0``: below 0 the excursion clock still runs at the
    passage time.
    """
    if not (math.isfinite(x) and math.isfinite(a)):
        raise DomainError(f"start {x} and barrier {a} must be finite")
    if a < 0.0:
        raise DomainError(f"barrier {a} must be nonnegative")
    if x > a:
        raise DomainError(f"start {x} must not exceed the barrier {a}")
    return _estimate(spec, x, a, None, config)


def estimate_policy_npv(spec: ProblemSpec, policy: ImpulsePolicy, x: float,
                        config: SimulationConfig) -> MonteCarloEstimate:
    """Estimate the expected discounted net dividends of an impulse policy.

    Payments trigger whenever the surplus is at or above ``policy.upper``
    (including at time zero), pay it down to ``policy.lower``, and cost
    ``spec.beta`` each; the stream stops at Parisian ruin.  The analytic
    counterpart is :func:`parisian_impulse.optimizer.value_function`.
    """
    if not (math.isfinite(x) and math.isfinite(policy.upper)):
        raise DomainError(f"start {x} and trigger {policy.upper} must be finite")
    if x < 0.0:
        raise DomainError(f"initial surplus {x} must be nonnegative")
    policy.validate(spec.beta)
    return _estimate(spec, x, policy.upper, policy.lower, config)

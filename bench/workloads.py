"""The benchmark's workloads: inputs, operations and correctness gates.

Every workload is single-process and closed-loop: one caller issues the next
call when the previous one returns.  Work comes in cycles, balanced batches
of operations, and a run measures whole cycles.  An operation returns the
names of the correctness gates its outputs failed plus facts for the report;
an exception it raises is counted as a failed operation and the run goes on.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import parisian_impulse as pi
from parisian_impulse import cli as pi_cli
from parisian_impulse.config import apply_overrides, build_problem_spec, load_config_file
from parisian_impulse.models import compute_coefficients
from parisian_impulse.parisian import parisian_scale
from parisian_impulse.scale import refracted_scale

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "bm": ROOT / "configs" / "brownian.cfg",
    "cl": ROOT / "configs" / "cramer_lundberg.cfg",
}
# The package's own error hierarchy; anything else is an untyped failure.
TYPED_ERRORS = (pi.NumericalError, pi.DomainError, pi.ConfigError)
Z_GATE = 4.5  # |z| bound for estimates of an unbiased scheme
EULER_EXIT_BIAS = 0.03  # allowance for the Euler barrier bias (about 0.01 at dt=0.02)
EULER_NPV_BIAS = 0.03  # relative allowance for the Euler NPV
REL_TOL = 1e-8  # V(0) = e^{qr} and the first-order residual
# Gates on what the package reports about itself: its optimality
# certificates and the command's exit code.  They fail the operation; every
# other gate also marks the run's outputs as incorrect.
SELF_REPORTED = {"first_order_residual", "sufficiency", "transfer_inequality", "exit_code"}
RECORD_TOL = 1e-12  # CLI optimize record against the in-process result


@dataclass
class Op:
    kind: str
    fn: Callable[[Tracer], tuple[list[str], dict]]


@dataclass
class Outcome:
    kind: str
    wall: float
    gates: list[str] = field(default_factory=list)
    error: str | None = None
    typed: bool = False
    info: dict = field(default_factory=dict)
    ref: float = math.nan  # reference-kernel time around the operation

    @property
    def cost(self) -> float:
        """Wall time in units of the reference kernel timed next to it."""
        return self.wall / self.ref

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.gates)


def clear_caches() -> None:
    """Drop the package's spec caches so a repeated spec is solved cold."""
    parisian_scale.cache_clear()
    compute_coefficients.cache_clear()


def run_op(op: Op, tracer: Tracer, op_id: int) -> Outcome:
    t0 = time.perf_counter()
    out = Outcome(op.kind, 0.0)
    try:
        with tracer.op(op_id, f"bench.{op.kind}"):
            out.gates, out.info = op.fn(tracer)
    except Exception as exc:  # counted as a failed operation; the run goes on
        out.error = type(exc).__name__
        out.typed = isinstance(exc, TYPED_ERRORS)
    out.wall = time.perf_counter() - t0
    return out


def config_spec(model: str, beta: float | None = None) -> pi.ProblemSpec:
    cfg = load_config_file(str(CONFIGS[model]))
    if beta is not None:
        cfg = apply_overrides(cfg, [f"beta={beta!r}"])
    return build_problem_spec(cfg)


REF_SIZE = 25_000  # about the array length of one exact Monte Carlo block
REF_ROUNDS = 4
REF_SMALL = 64  # about the live paths of one Euler block late in a call
REF_STEPS = 200
REF_EVERY_S = 0.1  # operation time between two readings of the kernel


def reference_time() -> float:
    """Seconds a fixed kernel takes now: a gauge of machine speed.

    On a shared host the speed of a core drifts by tens of percent over
    seconds.  Timed between operations, this kernel turns each wall time into
    a cost in kernel units, which cancels most of the drift.  Like the
    package, it mixes long-array NumPy work with many calls on short arrays,
    where interpreter overhead dominates; it takes about 3 ms.  It uses only
    NumPy and the benchmark's own code, so no change to the package can
    move it.
    """
    gen = np.random.default_rng(0)
    t0 = time.perf_counter()
    u = np.zeros(REF_SIZE)
    for _ in range(REF_ROUNDS):
        u += 0.01 * gen.standard_normal(REF_SIZE)
        u = np.where(u < 0.0, u + 0.1, u)
    v = np.zeros(REF_SMALL)
    for _ in range(REF_STEPS):
        v += 0.01 * gen.standard_normal(REF_SMALL)
        v = np.where(v < 0.0, v + 0.1, v)
    return time.perf_counter() - t0


def rel_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# solve_sweep
# ---------------------------------------------------------------------------

POINTS_PER_BRANCH = 8
BM_NEG_SPAN = 4.0  # Brownian points reach 4 window standard deviations below 0
UNIFORM, LOG_UNIFORM = False, True
BM_BOX = (("mu", 0.1, 1.0, UNIFORM), ("sigma", 0.3, 1.5, UNIFORM),
          ("delta", 0.01, 0.08, UNIFORM))
CL_BOX = (("p", 2.0, 4.0, UNIFORM), ("lam", 0.5, 3.0, UNIFORM),
          ("mu_claim", 0.8, 2.0, UNIFORM), ("delta", 0.05, 0.5, UNIFORM))
# The parameter study's box.  It reaches the regions where the package fails
# today (r near 200, CL q near 5, large q and beta together); the failure
# census solves a fixed sample of it once per run, untimed.
COMMON_BOX = (("q", 0.01, 5.0, LOG_UNIFORM), ("r", 0.5, 200.0, LOG_UNIFORM),
              ("beta", 0.02, 1.5, UNIFORM))
# The timed sweep's corner of that box, where no spec fails: the nearest
# failures seen lie at q near 0.8 with beta near 0.9 (Brownian) and r near
# 77 (Cramer-Lundberg), so a timed operation measures a solve, never a
# failure, and a run's failure count does not depend on how many specs it
# reaches.
TIMED_BOX = (("q", 0.01, 1.0, LOG_UNIFORM), ("r", 0.5, 40.0, LOG_UNIFORM),
             ("beta", 0.02, 0.6, UNIFORM))
CENSUS_SPECS_PER_MODEL = 60


def log_v0_target(spec: pi.ProblemSpec) -> float:
    """log V(0) in closed form: V(0) = e^{qr}."""
    return spec.q * spec.r


def solve_spec(spec: pi.ProblemSpec, tr: Tracer) -> tuple[list[str], dict]:
    """The analytic pipeline on one spec, with the sweep's gates."""
    cl = isinstance(spec.model, pi.CramerLundberg)
    model = "cl" if cl else "bm"
    with tr.span("models.coefficients"):
        cs = compute_coefficients(spec)
    with tr.span(f"parisian.build_{model}"):
        ps = parisian_scale(spec)
    with tr.span("optimizer.find_optimal_policy"):
        result = pi.find_optimal_policy(ps)
    policy = result.policy
    k = POINTS_PER_BRANCH
    pos = [2.0 * policy.upper * (i + 0.5) / k for i in range(k)]
    if cl:
        branch, extent = "cl_band", spec.model.p * spec.r
    else:
        branch, extent = "bm_neg", BM_NEG_SPAN * spec.model.sigma * math.sqrt(spec.r)
    neg = [-extent * (i + 0.5) / k for i in range(k)]
    with tr.span("parisian.value_pos", k + 1):
        v_pos = [ps.value(x) for x in [0.0] + pos]
    with tr.span("parisian.derivative_pos", k):
        d_pos = [ps.derivative(x) for x in pos]
    with tr.span(f"parisian.value_{branch}", k):
        v_neg = [ps.value(x) for x in neg]
    with tr.span(f"parisian.derivative_{branch}", k):
        d_neg = [ps.derivative(x) for x in neg]
    with tr.span("scale.refracted_scale", k):
        w = [refracted_scale(cs, x, 1.0) for x in pos]
    with tr.span("optimizer.value_function", k):
        vf = [pi.value_function(ps, policy, x) for x in pos]
    with tr.span("optimizer.certificates"):
        sufficiency = pi.check_sufficiency_pair(ps, policy.upper)
        transfer = pi.check_transfer_inequality(ps, policy)

    gates = []
    v0 = v_pos[0]
    v0_gap = math.inf
    if 0.0 < v0 < math.inf:
        v0_gap = abs(math.expm1(math.log(v0) - log_v0_target(spec)))
    if not v0_gap <= REL_TOL:
        gates.append("parisian_at_zero")
    if not result.fo_residual <= REL_TOL:
        gates.append("first_order_residual")
    if not sufficiency.passed:
        gates.append("sufficiency")
    if not transfer.passed:
        gates.append("transfer_inequality")
    if not all(math.isfinite(v) for v in v_pos + d_pos + v_neg + d_neg + w + vf):
        gates.append("finite_values")
    info = {"model": model, "optimum": result.case, "r": spec.r,
            "band_points": 2 * k if cl else 0}
    return gates, info


class SolveSweep:
    """Why: parisian and optimizer do almost all the work and simulate none.

    Every spec is new, so the package's spec caches never hit, and the delay
    r sets the compound Poisson series length, so the latency tail follows
    the cost of the [-p*r, 0) band.
    """
    name = "solve_sweep"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.per_model = 4 if smoke else 20  # a cycle is a Latin hypercube block per model
        self.census_per_model = 4 if smoke else CENSUS_SPECS_PER_MODEL
        self.specs: list[pi.ProblemSpec] = []

    def setup(self) -> None:
        self.config_specs = [config_spec(m, beta) for m in ("bm", "cl") for beta in (0.05, 1.0)]
        # warm-up on the box centres, which the hypercube never draws
        for box, make in ((BM_BOX, self._bm), (CL_BOX, self._cl)):
            centre = {name: (lo + hi) / 2 for name, lo, hi, _ in box + TIMED_BOX}
            run_op(Op("warmup", lambda tr, s=make(centre): solve_spec(s, tr)), Tracer(), 0)

    @staticmethod
    def _bm(v: dict) -> pi.ProblemSpec:
        return pi.ProblemSpec(pi.BrownianMotion(mu=v["mu"], sigma=v["sigma"]),
                              delta=v["delta"], q=v["q"], r=v["r"], beta=v["beta"])

    @staticmethod
    def _cl(v: dict) -> pi.ProblemSpec:
        return pi.ProblemSpec(pi.CramerLundberg(p=v["p"], lam=v["lam"], mu_claim=v["mu_claim"]),
                              delta=v["delta"], q=v["q"], r=v["r"], beta=v["beta"])

    @staticmethod
    def _hypercube(box, rng: np.random.Generator, n: int) -> list[dict]:
        cols = {}
        for name, lo, hi, log in box:
            u = (rng.permutation(n) + rng.random(n)) / n
            if log:
                cols[name] = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
            else:
                cols[name] = lo + u * (hi - lo)
        return [{name: float(col[i]) for name, col in cols.items()} for i in range(n)]

    def _draw(self, common, rng: np.random.Generator, n: int) -> list[pi.ProblemSpec]:
        bm = [self._bm(v) for v in self._hypercube(BM_BOX + common, rng, n)]
        cl = [self._cl(v) for v in self._hypercube(CL_BOX + common, rng, n)]
        return [s for pair in zip(bm, cl) for s in pair]  # models alternate 1:1

    def cycle(self, index: int) -> list[Op]:
        specs = self._draw(TIMED_BOX, self.rng, self.per_model)
        if index == 0:
            specs = self.config_specs + specs
        self.specs.extend(specs)
        return [Op("solve", lambda tr, s=s: solve_spec(s, tr)) for s in specs]

    reset = staticmethod(clear_caches)

    def census(self) -> list[Outcome]:
        """Solve a fixed sample of the whole box once, untimed and untraced.

        The sample depends on the seed alone, so its failures, which the
        timed sweep avoids, are counted the same way on every run.
        """
        rng = np.random.default_rng([self.seed, 1])
        outcomes = []
        for spec in self._draw(COMMON_BOX, rng, self.census_per_model):
            clear_caches()
            outcomes.append(run_op(Op("census", lambda tr, s=spec: solve_spec(s, tr)),
                                   Tracer(), -1))
        return outcomes

    def report(self, outcomes: list[Outcome]) -> tuple[dict, dict]:
        walls = [o.wall for o in outcomes]
        metrics = {
            "solve_per_s": (len(walls) / sum(walls), "specs/s"),
            "solve_p50_ms": (1e3 * statistics.median(walls), "ms"),
            "solve_p90_ms": (1e3 * statistics.quantiles(walls, n=10)[8], "ms"),
        }
        specs = self.specs[: len(outcomes)]
        rs = [s.r for s in specs]
        solved = [o.info for o in outcomes if o.info]
        cl_solved = [i for i in solved if i["model"] == "cl"]
        props = {
            "specs": len(specs),
            "cl_share": sum(isinstance(s.model, pi.CramerLundberg) for s in specs) / len(specs),
            "r_quartiles": [round(v, 4) for v in statistics.quantiles(rs, n=4)],
            "interior_share": sum(i["optimum"] == "interior" for i in solved) / max(len(solved), 1),
            "boundary_share": sum(i["optimum"] == "boundary" for i in solved) / max(len(solved), 1),
            "band_points_per_cl_spec": (sum(i["band_points"] for i in cl_solved)
                                        / max(len(cl_solved), 1)),
            "repeated_spec_share": 1.0 - len(set(specs)) / len(specs),
        }
        return metrics, props


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

EULER_DT = 0.02
# Exact-scheme NPV horizon: censoring stays under 0.1%.  The Euler NPV keeps
# the default 50*r = 150, where the discount e^{-q t} is already 5.5e-4.
EXACT_NPV_T_MAX = 300.0


@dataclass(frozen=True)
class McCase:
    scheme: str  # "exact" (compound Poisson) or "euler" (Brownian)
    functional: str  # "exit" or "npv"
    x: float
    paths: int


class MonteCarlo:
    """Why: simulate does about 99% of the work.

    The analytic layers only supply c2* and the closed-form targets; the one
    layer runs two ways, event-driven (exact compound Poisson) and
    step-driven (Euler).
    """
    name = "monte_carlo"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.scale = 50 if smoke else 1
        self.dt = 0.05 if smoke else EULER_DT

    def setup(self) -> None:
        self.problems = {}
        for model in ("cl", "bm"):
            spec = config_spec(model)
            ps = parisian_scale(spec)
            self.problems[model] = (spec, ps, pi.find_optimal_policy(ps).policy)
        self.cases = []
        for model, scheme, exit_paths, npv_paths in (("cl", "exact", 100_000, 10_000),
                                                     ("bm", "euler", 5_000, 500)):
            c2 = self.problems[model][2].upper
            for x in (0.0, 0.5 * c2):
                self.cases.append(McCase(scheme, "exit", x, exit_paths // self.scale))
            self.cases.append(McCase(scheme, "npv", 0.5 * c2, max(npv_paths // self.scale, 20)))
        self.targets = {case: self._target(case) for case in self.cases}
        for case in self.cases:  # warm-up: tiny calls on a short horizon
            self._estimate(case, pi.SimulationConfig(n_paths=16, seed=0, t_max=5.0,
                                                     dt=self._dt(case)))

    def _dt(self, case: McCase) -> float | None:
        return self.dt if case.scheme == "euler" else None

    def _estimate(self, case: McCase, cfg: pi.SimulationConfig):
        spec, _, policy = self.problems["cl" if case.scheme == "exact" else "bm"]
        if case.functional == "exit":
            return pi.estimate_exit_functional(spec, case.x, policy.upper, cfg)
        return pi.estimate_policy_npv(spec, policy, case.x, cfg)

    def _target(self, case: McCase) -> float:
        _, ps, policy = self.problems["cl" if case.scheme == "exact" else "bm"]
        if case.functional == "exit":
            return ps.value(case.x) / ps.value(policy.upper)
        return pi.value_function(ps, policy, case.x)

    def call(self, case: McCase, seed: int, target: float, tr: Tracer) -> tuple[list[str], dict]:
        exact_npv = case.scheme == "exact" and case.functional == "npv"
        cfg = pi.SimulationConfig(n_paths=case.paths, seed=seed, dt=self._dt(case),
                                  t_max=EXACT_NPV_T_MAX if exact_npv else None)
        cpu0 = time.process_time()
        with tr.span(f"simulate.{case.scheme}_{case.functional}", case.paths):
            est = self._estimate(case, cfg)
        cpu = time.process_time() - cpu0
        err = est.mean - target
        if case.scheme == "exact":
            ok = abs(err) <= Z_GATE * est.stderr
        elif case.functional == "exit":
            ok = abs(err) <= Z_GATE * est.stderr + EULER_EXIT_BIAS
        else:
            ok = abs(err) <= Z_GATE * est.stderr + EULER_NPV_BIAS * abs(target)
        info = {"case": case, "err": err, "z": err / est.stderr, "cpu": cpu,
                "censored": est.censored_fraction}
        gates = [] if ok and math.isfinite(est.mean) else [f"{case.scheme}_{case.functional}"]
        return gates, info

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for k, case in enumerate(self.cases):
            seed = self.seed * 100_000 + index * 10 + k
            ops.append(Op(f"{case.scheme}_{case.functional}",
                          lambda tr, c=case, s=seed: self.call(c, s, self.targets[c], tr)))
        return ops

    reset = staticmethod(lambda: None)

    def report(self, outcomes: list[Outcome]) -> tuple[dict, dict]:
        def done(scheme, functional):
            return [o for o in outcomes
                    if o.info and o.info["case"].scheme == scheme
                    and o.info["case"].functional == functional]

        def paths_per_s(group):
            return statistics.median([o.info["case"].paths / o.wall for o in group])

        euler_exit = done("euler", "exit")
        rms = math.sqrt(statistics.fmean(o.info["err"] ** 2 for o in euler_exit))
        exit_points = sum(c.scheme == "euler" and c.functional == "exit" for c in self.cases)
        metrics = {
            "exact_exit_paths_per_s": (paths_per_s(done("exact", "exit")), "paths/s"),
            "exact_npv_paths_per_s": (paths_per_s(done("exact", "npv")), "paths/s"),
            "euler_err_x_cpu_s": (
                rms * exit_points * statistics.median(o.info["cpu"] for o in euler_exit), "s"),
            "euler_npv_paths_per_s": (paths_per_s(done("euler", "npv")), "paths/s"),
        }
        props = {f"paths_{c.scheme}_{c.functional}_x{c.x:.4g}": c.paths for c in self.cases}
        props["euler_dt"] = self.dt
        props["exact_npv_t_max"] = EXACT_NPV_T_MAX
        props["euler_npv_t_max"] = 50.0 * self.problems["bm"][0].r
        return metrics, props


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("eval", "optimize", "verify", "simulate")
EVAL_GRID = "--grid=-6:6:241"  # covers the compound Poisson band [-p*r, 0) = [-6, 0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def parse_record(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


class Cli:
    """Why: this is what a command-line user pays.

    Interpreter start and the package import come with every command, and
    eval and verify drive parisian through scalar grid loops, the quadrature
    oracle and the generator residual instead of the sweep's calls.
    """
    name = "cli"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.env = child_env()

    def setup(self) -> None:
        self.refs = {}
        for model in ("bm", "cl"):
            spec = config_spec(model)
            ps = parisian_scale(spec)
            result = pi.find_optimal_policy(ps)
            c2 = result.policy.upper
            self.refs[model] = (spec, result, ps.value(0.0) / ps.value(c2))

    def argv(self, command: str, model: str, seed: int) -> list[str]:
        args = [command, "--config", str(CONFIGS[model])]
        if command == "eval":
            args.append(EVAL_GRID)
        elif command == "simulate":
            c2 = self.refs[model][1].policy.upper
            paths = 100_000 if model == "cl" else 4_000
            args += ["--functional", "exit", "--x", "0", "--barrier", repr(c2),
                     "--paths", str(paths // (20 if self.smoke else 1)), "--seed", str(seed)]
            if model == "bm":
                args += ["--dt", repr(EULER_DT)]
        return args

    def check(self, command: str, model: str, code: int, stdout: str) -> list[str]:
        """Gates on one command's exit code and output."""
        if code != 0:
            return ["exit_code"]
        _, result, exit_target = self.refs[model]
        if command == "optimize":
            rec = parse_record(stdout)
            got = (float(rec["c1_star"]), float(rec["c2_star"]), float(rec["g_star"]))
            want = (result.policy.lower, result.policy.upper, result.payout_ratio)
            if max(rel_gap(a, b) for a, b in zip(got, want)) > RECORD_TOL:
                return ["optimize_record"]
        elif command == "simulate":
            row = stdout.strip().splitlines()[-1].split(",")
            est, se = float(row[3]), float(row[4])
            bias = EULER_EXIT_BIAS if model == "bm" else 0.0
            if not abs(est - exit_target) <= Z_GATE * se + bias:
                return ["simulate_estimate"]
        return []

    def command(self, command: str, model: str, seed: int, tr: Tracer) -> tuple[list[str], dict]:
        argv = [sys.executable, "-m", "parisian_impulse.cli"] + self.argv(command, model, seed)
        with tr.span(f"cli.{command}"):
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=150)
        return self.check(command, model, proc.returncode, proc.stdout), {"command": command}

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for command in CLI_COMMANDS:
            for model in ("bm", "cl"):
                seed = self.seed * 1000 + index
                ops.append(Op(f"cli_{command}",
                              lambda tr, c=command, m=model, s=seed: self.command(c, m, s, tr)))
        return ops

    reset = staticmethod(lambda: None)

    def layer_probe(self, tr: Tracer) -> list[Outcome]:
        """Interpreter start, cold import and each command run in-process."""
        code = ("import time; t = time.perf_counter(); import parisian_impulse; "
                "print(time.perf_counter() - t)")
        for _ in range(3):
            with tr.span("cli.interpreter"):
                subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, check=True, timeout=60)
            tr.record("cli.import", float(proc.stdout.strip().splitlines()[-1]))
        outcomes = []
        for command in CLI_COMMANDS:
            for model in ("bm", "cl"):
                argv = self.argv(command, model, self.seed)

                def inproc(tr, command=command, model=model, argv=argv):
                    clear_caches()
                    out = io.StringIO()
                    with tr.span(f"cli.{command}_inproc"):
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(io.StringIO()):
                            code = pi_cli.main(argv)
                    return self.check(command, model, code, out.getvalue()), {}

                outcomes.append(run_op(Op(f"cli_{command}_inproc", inproc), tr, -1))
        return outcomes

    def report(self, outcomes: list[Outcome]) -> tuple[dict, dict]:
        metrics = {}
        for command in CLI_COMMANDS:
            walls = [o.wall for o in outcomes if o.kind == f"cli_{command}"]
            metrics[f"cli_{command}_s"] = (statistics.median(walls), "s")
        props = {"commands_per_cycle": len(CLI_COMMANDS) * 2,
                 "invocations": len(outcomes), "eval_grid": EVAL_GRID}
        return metrics, props


WORKLOADS = {w.name: w for w in (SolveSweep, MonteCarlo, Cli)}

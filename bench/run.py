"""Benchmark of the parisian_impulse package.

Run from the repository root::

    python3 bench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records spans
around every call the benchmark makes into the package and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts the run's operations that raised, exited
non-zero or failed a correctness gate.  On ``solve_sweep`` the failure census
(a fixed, seed-given sample of the whole parameter box, solved once after the
timed loop) is reported apart: in ``failed_fraction``, the ``census`` lines
and the ``errors.*`` counts, not in ``attempted`` and ``failed``.
``correct`` is false when a returned output, the census's included,
failed a check the benchmark makes on its own (a closed-form identity, a
finite value, a Monte Carlo estimate against the closed form, the command
line against the library); a certificate the package itself reports as
failed makes the operation fail but is not a wrong output.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# one caller, no threads: pin every BLAS/OpenMP pool before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 4  # child processes that repeat the set-up, besides this one
PROBE_SPECS_PER_MODEL = 3  # solved specs per model when a probe measures the sweep's layers
LAYERS = ("models", "scale", "parisian", "optimizer", "simulate", "cli", "bench")
KNOWN_ERRORS = ("SeriesConvergenceError", "SolverFailureError", "OverflowError")
COMMON_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "failed_fraction": "failed/attempted"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no set-up repeats, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for the repeats)")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    src = sorted((ROOT / "src" / "parisian_impulse").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def repeat_setup(args) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=150)
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(wl, seconds: float, tracer, paired: bool):
    """Whole cycles of operations until ``seconds`` have passed.

    The reference kernel runs between operations, at least every
    ``REF_EVERY_S`` of operation time; an operation's ``ref`` is the mean of
    the two kernel times that bracket it.

    With ``paired`` every operation runs twice, once untraced and once traced
    (alternating which goes first), with the package caches cleared before
    each, so the traced-minus-untraced time is the tracing overhead.
    """
    import workloads as W

    outcomes, untraced = [], []
    pending = []  # operations waiting for the next kernel reading
    ref_before = W.reference_time()

    def read_reference():
        nonlocal ref_before
        ref_after = W.reference_time()
        for out in pending:
            out.ref = 0.5 * (ref_before + ref_after)
        pending.clear()
        ref_before = ref_after

    t0 = time.perf_counter()
    index = 0
    while True:
        for op in wl.cycle(index):
            op_id = len(outcomes)
            sides = ((False, True) if op_id % 2 else (True, False)) if paired else (None,)
            for traced in sides:
                if paired:
                    wl.reset()
                    tracer.enabled = traced
                out = W.run_op(op, tracer, op_id)
                (untraced if traced is False else outcomes).append(out)
                pending.append(out)
                if sum(o.wall for o in pending) >= W.REF_EVERY_S:
                    read_reference()
        index += 1
        if time.perf_counter() - t0 >= seconds:
            break
    read_reference()
    return outcomes, untraced


def e2e_metrics(outcomes, setups):
    """Throughput and latency in reference-kernel units (see
    ``workloads.reference_time``), set-up in seconds, memory in MB."""
    costs = [o.cost for o in outcomes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_kref": (1e3 * len(costs) / sum(costs), "1/kref"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        "op_p90_ref": (statistics.quantiles(costs, n=10)[8], "ref"),
    }


def error_tally(outcomes) -> Counter:
    tally = Counter()
    for o in outcomes:
        if o.error:
            tally[f"{o.error} ({'typed' if o.typed else 'untyped'})"] += 1
        for gate in o.gates:
            tally[f"gate:{gate}"] += 1
    return tally


def layer_probe(wl, tracer, args):
    """Measure the layers this workload's loop does not call.

    Runs under a ``bench.probe`` span: a few sweep specs, one cycle of
    estimator calls and the command-line probes, each skipped where the
    workload's own loop already covers it.
    """
    import workloads as W

    outcomes = []
    with tracer.span("bench.probe"):
        if not isinstance(wl, W.SolveSweep):
            # small hypercube blocks until each model has solved a few specs
            sweep = W.SolveSweep(args.seed, smoke=True)
            sweep.setup()
            solved = Counter()
            for index in range(1, 11):
                for op in sweep.cycle(index):
                    W.clear_caches()
                    outcomes.append(W.run_op(op, tracer, -1))
                    solved[outcomes[-1].info.get("model")] += 1
                if min(solved["bm"], solved["cl"]) >= PROBE_SPECS_PER_MODEL:
                    break
        if not isinstance(wl, W.MonteCarlo):
            mc = W.MonteCarlo(args.seed, smoke=args.smoke)
            mc.setup()
            outcomes += [W.run_op(op, tracer, -1) for op in mc.cycle(0)]
        cli = wl if isinstance(wl, W.Cli) else W.Cli(args.seed, smoke=args.smoke)
        if cli is not wl:
            cli.setup()
        outcomes += cli.layer_probe(tracer)
    return outcomes


def layer_metrics(tracer, outcomes, untraced, probe_outcomes, census) -> dict:
    def per_item(name, scale):
        spans = tracer.by_name(name)
        items = sum(s.count for s in spans)
        return scale * sum(s.duration for s in spans) / items if items else float("nan")

    def per_call(name, scale):
        spans = tracer.by_name(name)
        return scale * statistics.median(s.duration for s in spans) if spans else float("nan")

    every = outcomes + probe_outcomes
    infos = [o.info for o in every if o.info]
    solved = [i for i in infos if "optimum" in i]
    mc = [i for i in infos if "err" in i]

    def mc_values(scheme, functional, key):
        return [i[key] for i in mc
                if i["case"].scheme == scheme and i["case"].functional == functional]

    m = {
        "models.coefficients_us": (per_item("models.coefficients", 1e6), "us"),
        "parisian.build_bm_ms": (per_item("parisian.build_bm", 1e3), "ms"),
        "parisian.build_cl_ms": (per_item("parisian.build_cl", 1e3), "ms"),
        "parisian.value_pos_us": (per_item("parisian.value_pos", 1e6), "us"),
        "parisian.derivative_pos_us": (per_item("parisian.derivative_pos", 1e6), "us"),
        "parisian.value_bm_neg_us": (per_item("parisian.value_bm_neg", 1e6), "us"),
        "parisian.derivative_bm_neg_us": (per_item("parisian.derivative_bm_neg", 1e6), "us"),
        "parisian.value_cl_band_us": (per_item("parisian.value_cl_band", 1e6), "us"),
        "parisian.derivative_cl_band_us": (per_item("parisian.derivative_cl_band", 1e6), "us"),
        "parisian.cl_band_points": (sum(s.count for s in tracer.spans
                                        if s.name.endswith("_cl_band")), "count"),
        "scale.refracted_scale_us": (per_item("scale.refracted_scale", 1e6), "us"),
        "optimizer.find_optimal_policy_ms": (per_item("optimizer.find_optimal_policy", 1e3), "ms"),
        "optimizer.interior_fraction": (sum(i["optimum"] == "interior" for i in solved)
                                        / max(len(solved), 1), "fraction"),
        "optimizer.certificates_ms": (per_item("optimizer.certificates", 1e3), "ms"),
        "optimizer.value_function_us": (per_item("optimizer.value_function", 1e6), "us"),
        "simulate.exact_exit_call_s": (per_call("simulate.exact_exit", 1.0), "s"),
        "simulate.exact_npv_call_s": (per_call("simulate.exact_npv", 1.0), "s"),
        "simulate.exact_max_abs_z": (max(abs(z) for z in mc_values("exact", "exit", "z")
                                         + mc_values("exact", "npv", "z")), "sigma"),
        "simulate.euler_exit_call_s": (per_call("simulate.euler_exit", 1.0), "s"),
        "simulate.euler_exit_abs_err": (statistics.fmean(
            abs(e) for e in mc_values("euler", "exit", "err")), "abs"),
        "simulate.euler_npv_call_s": (per_call("simulate.euler_npv", 1.0), "s"),
        "simulate.exact_npv_censored_fraction": (statistics.fmean(
            mc_values("exact", "npv", "censored")), "fraction"),
        "simulate.euler_npv_censored_fraction": (statistics.fmean(
            mc_values("euler", "npv", "censored")), "fraction"),
        "cli.interpreter_s": (per_call("cli.interpreter", 1.0), "s"),
        "cli.import_s": (per_call("cli.import", 1.0), "s"),
    }
    for command in ("eval", "optimize", "verify", "simulate"):
        m[f"cli.{command}_inproc_ms"] = (per_call(f"cli.{command}_inproc", 1e3), "ms")

    tally = Counter()
    for o in every + census:
        if o.error:
            key = o.error if o.error in KNOWN_ERRORS else ("other_typed" if o.typed
                                                           else "other_untyped")
            tally[key] += 1
        tally["gate"] += len(o.gates)
    for key in KNOWN_ERRORS + ("other_typed", "other_untyped", "gate"):
        m[f"errors.{key}"] = (tally[key], "count")

    roots = [s for s in tracer.spans if s.parent is None and s.name != "bench.probe"]
    self_s, calls = tracer.self_times(roots)
    total = sum(self_s.values())
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (100.0 * self_s.get(layer, 0.0) / total, "%")
        m[f"calls.{layer}"] = (calls.get(layer, 0), "count")
    traced_s = sum(o.wall for o in outcomes)
    untraced_s = sum(o.wall for o in untraced)
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def print_block(kind, items):
    for name, value in items.items():
        if isinstance(value, tuple):
            print(f"{kind} {name} {value[0]!r} {value[1]}")
        else:
            print(f"{kind} {name} {value}")


def run_workload(args) -> int:
    import workloads as W
    from tracing import Tracer

    wl = W.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    wl.setup()
    setup_main = time.perf_counter() - T_START
    if args.setup_only:
        print(f"setup_s {setup_main!r}")
        return 0
    setups = [setup_main] + ([] if args.smoke else repeat_setup(args))

    tracer = Tracer(enabled=bool(args.trace))
    outcomes, untraced = measure(wl, args.seconds, tracer, paired=bool(args.trace))
    tracer.enabled = bool(args.trace)
    probe = layer_probe(wl, tracer, args) if args.trace else []
    census = wl.census() if isinstance(wl, W.SolveSweep) else []

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"why {' '.join(type(wl).__doc__.split())}")
    print_block("machine", machine_info())
    specific, props = wl.report(outcomes)
    props["reference_kernel_ms"] = 1e3 * statistics.median(o.ref for o in outcomes)
    print_block("property", props)
    every = outcomes + probe
    failed = sum(o.failed for o in every)
    if census:
        print_block("census", {"specs": len(census),
                               "failed": sum(o.failed for o in census)})
    common = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb(),
              "failed_fraction": (failed + sum(o.failed for o in census))
              / (len(every) + len(census))}
    print_block("metric", {k: (v, COMMON_UNITS[k]) for k, v in common.items()})
    print_block("metric", specific)
    print_block("errors", dict(sorted(error_tally(every).items())))
    print_block("census_errors", dict(sorted(error_tally(census).items())))
    e2e = e2e_metrics(outcomes, setups)
    if args.trace:
        untraced_e2e = e2e_metrics(untraced, setups)
        for name in ("ops_per_kref", "op_p50_ref", "op_p90_ref"):
            print(f"traced {name} {e2e[name][0]!r} untraced {untraced_e2e[name][0]!r}")
        metrics = layer_metrics(tracer, outcomes, untraced, probe, census)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans_{wl.name}_seed{args.seed}.jsonl")
    else:
        metrics = e2e
    print_block("metric", {k: v for k, v in metrics.items() if k not in common})
    correct = not any(set(o.gates) - W.SELF_REPORTED for o in every + census)
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all their metrics."""
    import workloads as W

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in W.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for line in lines[:-1]:
            if line.startswith(("metric ", "errors ", "census", "property ")):
                print(f"{name} {line}")
            if line.startswith("metric "):
                _, metric, value, unit = line.split(" ", 3)
                metrics[f"{name}.{metric}"] = {"value": float(value), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "parisian_impulse" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on its short smoke mode.

Run from the repository root::

    python3 -m pytest -q bench/check_bench.py

The file name keeps it out of the package's own test collection.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ISSUE_METRICS = (
    "setup_s", "peak_rss_mb", "failed_fraction", "solve_per_s", "solve_p50_ms",
    "solve_p90_ms", "exact_exit_paths_per_s", "exact_npv_paths_per_s",
    "euler_err_x_cpu_s", "euler_npv_paths_per_s", "cli_eval_s", "cli_optimize_s",
    "cli_verify_s", "cli_simulate_s",
)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_every_declared_metric(workload, trace):
    out = result(run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", trace, "--smoke"))
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["correct"]


def test_one_command_prints_all_issue_metrics():
    proc = run_bench("--workload", "all", "--seed", "4", "--seconds", "0.1", "--smoke")
    out = result(proc)
    names = {name.split(".", 1)[1] for name in out["metrics"]}
    assert set(ISSUE_METRICS) <= names
    for line in proc.stdout.splitlines()[:-1]:
        if " metric " in line:
            assert len(line.split()) == 5  # workload, "metric", name, value, unit


def test_same_seed_same_inputs():
    a, b = W.SolveSweep(9), W.SolveSweep(9)
    a.setup()
    b.setup()
    a.cycle(0)
    b.cycle(0)
    assert a.specs == b.specs
    assert len(set(a.specs)) == len(a.specs)


def test_timed_box_is_a_corner_of_the_census_box():
    census = {name: (lo, hi, log) for name, lo, hi, log in W.COMMON_BOX}
    for name, lo, hi, log in W.TIMED_BOX:
        assert census[name][0] <= lo < hi <= census[name][1]
        assert census[name][2] == log
    sweep = W.SolveSweep(9, smoke=True)
    sweep.setup()
    sweep.cycle(1)
    for spec in sweep.specs:
        for name, lo, hi, _ in W.TIMED_BOX:
            assert lo <= getattr(spec, name) <= hi


def test_census_depends_on_seed_alone(monkeypatch):
    solved = []
    monkeypatch.setattr(W, "solve_spec", lambda spec, tr: (solved.append(spec), ([], {}))[1])
    for draws in (0, 3):
        sweep = W.SolveSweep(9, smoke=True)
        for index in range(draws):
            sweep.cycle(index + 1)
        assert len(sweep.census()) == 2 * sweep.census_per_model
    half = len(solved) // 2
    assert solved[:half] == solved[half:]
    assert max(s.r for s in solved) > max(hi for n, _, hi, _ in W.TIMED_BOX if n == "r")


def test_census_is_reported_apart_from_the_timed_operations():
    proc = run_bench("--workload", "solve_sweep", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--smoke")
    out = result(proc)
    lines = proc.stdout.splitlines()
    assert "census specs 8" in lines
    specs = next(int(line.split()[-1]) for line in lines if line.startswith("property specs "))
    assert out["attempted"] == specs


def test_wrong_v0_target_fails_sweep_gate(monkeypatch):
    spec = W.config_spec("bm")
    W.clear_caches()
    gates, _ = W.solve_spec(spec, Tracer())
    assert gates == []
    monkeypatch.setattr(W, "log_v0_target", lambda s: s.q * s.r + 1e-6)
    W.clear_caches()
    gates, _ = W.solve_spec(spec, Tracer())
    assert gates == ["parisian_at_zero"]
    assert not set(gates) <= W.SELF_REPORTED


@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_wrong_mc_target_fails_gate(scheme):
    mc = W.MonteCarlo(5, smoke=True)
    mc.setup()
    case = next(c for c in mc.cases if c.scheme == scheme and c.functional == "exit")
    target = mc.targets[case]
    assert mc.call(case, 11, target, Tracer())[0] == []
    assert mc.call(case, 11, target + 0.5, Tracer())[0] == [f"{scheme}_exit"]


def test_wrong_library_result_fails_cli_gate():
    cli = W.Cli(6, smoke=True)
    cli.setup()
    gates, _ = cli.command("optimize", "cl", 6, Tracer())
    assert gates == []
    spec, res, target = cli.refs["cl"]
    cli.refs["cl"] = (spec, dataclasses.replace(res, payout_ratio=res.payout_ratio * (1 + 1e-9)),
                      target)
    gates, _ = cli.command("optimize", "cl", 6, Tracer())
    assert gates == ["optimize_record"]


def test_failed_operation_is_counted_not_raised():
    def boom(tr):
        raise OverflowError("math range error")

    out = W.run_op(W.Op("solve", boom), Tracer(), 0)
    assert out.failed and out.error == "OverflowError" and not out.typed


def test_self_time_subtracts_children():
    tr = Tracer(enabled=True)
    with tr.op(0, "bench.op"):
        with tr.span("parisian.value"):
            pass
        tr.record("cli.import", 1e-6)
    root = tr.spans[0]
    self_s, calls = tr.self_times([root])
    assert calls == {"bench": 1, "parisian": 1, "cli": 1}
    assert self_s["cli"] == pytest.approx(1e-6)
    assert self_s["bench"] == pytest.approx(root.duration - sum(s.duration for s in tr.spans[1:]))


def test_without_package_source_exits_nonzero():
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare)

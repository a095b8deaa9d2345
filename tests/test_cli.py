"""End-to-end command line checks, in-process via ``cli.main``."""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest

from parisian_impulse import ConfigError, ImpulsePolicy, SolverFailureError, cli, optimizer
from parisian_impulse.cli import EVAL_COLUMNS, MC_CSV_COLUMNS, mc_csv_row
from parisian_impulse.simulate import MonteCarloEstimate, SimulationConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BM_CFG = str(CONFIGS / "brownian.cfg")
CL_CFG = str(CONFIGS / "cramer_lundberg.cfg")


def _rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.strip().splitlines()]


# Each case runs one command in a fresh interpreter on both configs: the
# modules the command must load, and the ones it must not.
COLD_COMMANDS = {
    "eval": (["eval", "--grid=-3:3:7"], {"parisian", "scale"},
             {"optimizer", "quadrature", "simulate"}),
    "optimize": (["optimize"], {"optimizer"}, {"quadrature", "scale", "simulate"}),
    "verify": (["verify"], {"optimizer"}, {"simulate"}),
    "simulate_exit": (["simulate", "--functional", "exit", "--x", "0", "--barrier", "3",
                       "--paths", "2000", "--dt", "0.02"],
                      {"simulate"}, {"optimizer", "parisian", "scale", "quadrature"}),
    "simulate_npv_given_policy": (["simulate", "--functional", "npv", "--x", "1", "--c1", "0",
                                   "--c2", "4", "--paths", "2000", "--dt", "0.02"],
                                  {"simulate"}, {"optimizer", "parisian", "scale", "quadrature"}),
    "verify_with_mc": (["verify", "--with-mc", "--paths", "3000", "--dt", "0.02"],
                       {"optimizer", "simulate"}, set()),
    "simulate_npv_optimal_policy": (["simulate", "--functional", "npv", "--x", "1",
                                     "--paths", "2000", "--t-max", "60", "--dt", "0.02"],
                                    {"optimizer", "simulate"}, set()),
}


@pytest.mark.parametrize("cfg", [BM_CFG, CL_CFG], ids=["bm", "cl"])
@pytest.mark.parametrize("case", COLD_COMMANDS)
def test_cold_command_loads_only_what_it_runs(bounded_python, case, cfg):
    argv, needed, unused = COLD_COMMANDS[case]
    code = f"""
import contextlib, io
from parisian_impulse import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv + ["--config", cfg]!r})
print(code, *sorted(m for m in sys.modules if m.startswith("parisian_impulse.")))
"""
    exit_code, *modules = bounded_python(code, timeout=120.0).split()
    loaded = {m.removeprefix("parisian_impulse.") for m in modules}
    assert exit_code == "0"
    assert needed <= loaded
    assert not unused & loaded


def test_subcommands_run_with_scipy_blocked(bounded_python):
    # NumPy is the only runtime dependency: with scipy unimportable, every
    # subcommand still runs to exit code 0 on both configs
    code = f"""
import contextlib, io
sys.modules["scipy"] = None
from parisian_impulse import cli
for cfg in ({BM_CFG!r}, {CL_CFG!r}):
    for command, *rest in (["eval", "--grid=-7:7:57"], ["optimize"], ["verify"],
                           ["simulate", "--functional", "exit", "--x", "0", "--barrier", "3",
                            "--paths", "500", "--dt", "0.02"]):
        with contextlib.redirect_stdout(io.StringIO()):
            print(command, cli.main([command, "--config", cfg] + rest), file=sys.__stdout__)
"""
    lines = bounded_python(code, timeout=120.0).splitlines()
    assert lines == [f"{c} 0" for c in ("eval", "optimize", "verify", "simulate")] * 2


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sub", ["eval", "optimize", "verify", "simulate"])
def test_help_exits_zero(sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--config", BM_CFG, "--grid=0:1:5", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["-6:6:241", "0:4.324178358615494:401", "-1e-3:7.1:33",
                                  "0.1:0.3:3"])
def test_grid_is_the_pointwise_formula(grid):
    # one array expression, the same IEEE operations as lo + i * (hi - lo) / (n - 1)
    *ends, n = grid.split(":")
    (lo, hi), n = map(float, ends), int(n)
    want = [(lo + i * (hi - lo) / (n - 1)).hex() for i in range(n)]
    assert [x.hex() for x in cli._parse_grid(grid).tolist()] == want


@pytest.mark.parametrize("grid", ["1:2", "2:1:5", "0:1:1", "a:b:3"])
def test_bad_grid_reports_config_error(grid, capsys):
    rc = cli.main(["eval", "--config", BM_CFG, f"--grid={grid}"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "optimize"])
@pytest.mark.parametrize("grid", ["-inf:1:5", "0:inf:5", "-1e308:1e308:5"])
def test_non_finite_grid_reports_config_error(command, grid, tmp_path, capsys):
    # an infinite end or span would put NaN on the grid; optimize rejects the
    # grid before it solves, so nothing is printed or written
    out = tmp_path / "grid.csv"
    rc = cli.main([command, "--config", CL_CFG, f"--grid={grid}", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: grid {grid!r}")
    assert captured.out == ""
    assert not out.exists()


def test_negative_depth_rejected(capsys):
    for depth in ("-1", "nan", "inf"):
        rc = cli.main(["eval", "--config", BM_CFG, "--grid=0:1:5", "--depth", depth])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_table_brownian(capsys):
    rc = cli.main(["eval", "--config", BM_CFG, "--grid=-3:6:19"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == list(EVAL_COLUMNS)
    assert len(rows) == 20
    by_x = {row[0]: row for row in rows[1:]}
    zero = by_x["0"]
    assert float(zero[5]) == pytest.approx(math.exp(0.15), rel=1e-12, abs=0.0)  # V(0)
    assert by_x["-2.5"][1] == "0"  # W vanishes below zero
    assert float(by_x["1.5"][3]) > 1.0  # Z grows above zero


def test_eval_marks_singular_derivatives(capsys):
    # the compound Poisson derivative is undefined at -p*r and at 0
    rc = cli.main(["eval", "--config", CL_CFG, "--grid=-6:6:7"])
    assert rc == 0
    by_x = {row[0]: row for row in _rows(capsys.readouterr().out)[1:]}
    assert by_x["-6"][6] == ""
    assert by_x["0"][6] == ""
    assert by_x["2"][6] != ""
    # the surplus scale keeps its one-sided derivative at the mass point
    assert float(by_x["0"][2]) == pytest.approx(2.05 / 9.0, rel=1e-12, abs=0.0)


def test_eval_flags_overflow(capsys):
    rc = cli.main(["eval", "--config", BM_CFG, "--grid=0:20000:3"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[-1][1] == "overflow"
    assert rows[-1][5] == "overflow"


def test_eval_overflowing_column_keeps_the_kink_empty(capsys):
    # V' overflows at 15000, so its column is redone point by point, and the
    # compound Poisson kink x = 0 still gets its empty cell there
    rc = cli.main(["eval", "--config", CL_CFG, "--grid=-15000:15000:3"])
    assert rc == 0
    by_x = {row[0]: row for row in _rows(capsys.readouterr().out)[1:]}
    assert by_x["0"][6] == ""
    assert by_x["15000"][6] == "overflow"
    assert by_x["-15000"][6] == "0"


def test_eval_svg_of_an_overflowing_grid_has_nothing_to_plot(tmp_path, capsys):
    svg = tmp_path / "chart.svg"
    rc = cli.main(["eval", "--config", CL_CFG, "--grid=15000:20000:3", "--svg", str(svg)])
    assert rc == 2
    assert "nothing to plot" in capsys.readouterr().err
    assert not svg.exists()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = cli.main(["eval", "--config", str(tmp_path / "absent.cfg"), "--grid=0:1:3"])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_eval_spec_from_overrides_only(capsys):
    args = ["eval", "--grid=0:1:3"]
    for pair in ("model=brownian", "mu=0.5", "sigma=0.75", "delta=0.05",
                 "q=0.05", "r=3", "beta=0.05"):
        args += ["--set", pair]
    assert cli.main(args) == 0
    rows = _rows(capsys.readouterr().out)
    assert float(rows[1][5]) == pytest.approx(math.exp(0.15), rel=1e-12, abs=0.0)


def test_eval_writes_files(tmp_path, capsys):
    out = tmp_path / "table.csv"
    svg = tmp_path / "chart.svg"
    rc = cli.main(["eval", "--config", BM_CFG, "--grid=-2:4:25",
                   "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    assert capsys.readouterr().out == ""  # table went to the file
    assert out.read_text().splitlines()[0] == ",".join(EVAL_COLUMNS)
    assert svg.read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_record(capsys):
    rc = cli.main(["optimize", "--config", BM_CFG])
    assert rc == 0
    out = capsys.readouterr().out
    record = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert record["case"] == "interior"
    assert float(record["c1_star"]) == pytest.approx(0.5939102119123602, rel=1e-6)
    assert float(record["c2_star"]) == pytest.approx(2.1620891793077597, rel=1e-6)
    assert record["sufficiency_pass"] == "true"


def test_optimize_beta_flag_wins(capsys):
    rc = cli.main(["optimize", "--config", BM_CFG, "--set", "beta=0.4", "--beta", "1"])
    assert rc == 0
    record = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert record["beta"] == "1"
    assert record["case"] == "boundary"
    assert float(record["c1_star"]) == 0.0


def test_optimize_grid_dump(tmp_path, capsys):
    out = tmp_path / "vprime.csv"
    svg = tmp_path / "vprime.svg"
    rc = cli.main(["optimize", "--config", BM_CFG, "--out", str(out),
                   "--svg", str(svg), "--grid=0:6:121"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,V_prime,marker"
    assert len(lines) == 1 + 121 + 2  # grid plus the two marker rows
    markers = [line for line in lines if line.endswith("_star")]
    assert len(markers) == 2
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("cfg", [BM_CFG, CL_CFG], ids=["bm", "cl"])
def test_optimize_default_grid_dump(cfg, tmp_path, capsys):
    out = tmp_path / "vprime.csv"
    rc = cli.main(["optimize", "--config", cfg, "--out", str(out)])
    assert rc == 0
    record = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
    c1, c2 = float(record["c1_star"]), float(record["c2_star"])
    rows = _rows(out.read_text())[1:]
    assert len(rows) == 401 + 2  # the grid 0:2*c2:401 plus the two marker rows
    assert [float(x) for x, _, marker in rows if not marker] == [
        i * (2.0 * c2) / 400 for i in range(401)]
    assert [(float(x), marker) for x, _, marker in rows if marker] == [
        (c1, "c1_star"), (c2, "c2_star")]


def test_optimize_unaffordable_cost_is_numerical_failure(capsys):
    rc = cli.main(["optimize", "--config", BM_CFG, "--beta", "1e6"])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [BM_CFG, CL_CFG], ids=["bm", "cl"])
@pytest.mark.parametrize("q", ["1e-16", "1e-40", "1e-80", "1e-300"])
def test_optimize_tiny_discount_rate_is_numerical_failure(cfg, q, capsys):
    # V is flat in doubles: the deeper three ended in a usage error (2) or a
    # traceback, and 1e-16 in an uncertifiable policy with exit code 0
    assert cli.main(["optimize", "--config", cfg, "--set", f"q={q}"]) == 3
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_analytic_battery(capsys):
    rc = cli.main(["verify", "--config", BM_CFG])
    assert rc == 0
    out = capsys.readouterr().out
    assert "laplace_roots: PASS" in out
    assert "closed_vs_quadrature: PASS" in out
    assert "all 8 checks passed" in out
    assert "FAIL" not in out


def test_long_window_optimize_and_verify(capsys):
    # p*r = 600: the window series once left the double range here (exit 3)
    for command in ("optimize", "verify"):
        assert cli.main([command, "--config", CL_CFG, "--set", "r=200"]) == 0
    out = capsys.readouterr().out
    assert "sufficiency_pass: true" in out
    assert "all 8 checks passed" in out
    assert "FAIL" not in out


def test_verify_with_monte_carlo(capsys):
    rc = cli.main(["verify", "--config", CL_CFG, "--with-mc",
                   "--paths", "6000", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mc_exit_mid: PASS" in out
    assert "mc_exit_zero: PASS" in out
    assert "mc_policy_npv: PASS" in out
    assert "all 11 checks passed" in out


@pytest.mark.parametrize("patched", [False, True])
def test_verify_tolerances_come_from_the_optimizer(patched, monkeypatch, capsys):
    # a payout ratio 5e-8 above V' at c1* and c2*, and a policy whose transfer
    # margin is about -2e-7, fail the default tolerances (1e-8, 1e-9) and pass
    # looser ones patched into the optimizer, which the printed text reports
    # too; verify recomputes the first-order residual from V', so the solver's
    # own fo_residual, left exact here, cannot pass it
    solve = optimizer.find_optimal_policy

    def run(shift) -> tuple[int, list[str]]:
        monkeypatch.setattr(optimizer, "find_optimal_policy", lambda ps: shift(solve(ps)))
        rc = cli.main(["verify", "--config", BM_CFG])
        return rc, capsys.readouterr().out.splitlines()

    if patched:
        monkeypatch.setattr(optimizer, "FO_TOL", 1e-7)
        monkeypatch.setattr(optimizer, "TRANSFER_TOL", 1e-6)
    verdict = "PASS" if patched else "FAIL"
    fo_tol, transfer_tol = ("1e-07", "-1e-06") if patched else ("1e-08", "-1e-09")
    rc, lines = run(lambda res: dataclasses.replace(
        res, payout_ratio=res.payout_ratio * (1.0 + 5e-8)))
    assert lines[4] == (f"first_order_residual: {verdict} (case=interior residual 5.00e-08 "
                        f"(tol {fo_tol} rel))")
    assert lines[5].startswith("transfer_inequality: PASS")
    assert rc == (0 if patched else 1)
    # the shifted trigger also moves V'(c2*) off g* by 1.8e-4, past both tolerances
    rc, lines = run(lambda res: dataclasses.replace(
        res, policy=ImpulsePolicy(res.policy.lower, 1.001 * res.policy.upper)))
    assert lines[4].startswith("first_order_residual: FAIL (case=interior residual 1.82e-04")
    assert lines[5] == (f"transfer_inequality: {verdict} (worst margin -1.97e-07 at x=2.162 "
                        f"y=0.5939 (tol {transfer_tol}))")
    assert rc == 1


@pytest.mark.parametrize("cfg", [BM_CFG, CL_CFG], ids=["bm", "cl"])
def test_verify_prints_each_check_before_a_failing_solve(cfg, monkeypatch, capsys):
    # each row is printed as its check ends: a solve that raises leaves the
    # four analytic rows on stdout before the typed exit 3
    def fail(ps):
        raise SolverFailureError("no root")

    monkeypatch.setattr(optimizer, "find_optimal_policy", fail)
    assert cli.main(["verify", "--config", cfg]) == 3
    captured = capsys.readouterr()
    rows = [line.split(":")[0] for line in captured.out.splitlines()]
    assert rows == ["laplace_roots", "scale_mass_at_zero", "parisian_at_zero",
                    "closed_vs_quadrature"]
    assert "FAIL" not in captured.out
    assert captured.err == "solver failure: no root\n"


def test_verify_zero_stderr_fails_the_check(capsys):
    # two compound Poisson paths from 0 that both fall short of c2* give a
    # zero standard error: the check fails with a message, not a division error
    rc = cli.main(["verify", "--config", CL_CFG, "--with-mc", "--paths", "2", "--seed", "4"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "mc_exit_zero: FAIL (zero stderr: est=0.00000 target=0.49958)" in out


def test_zero_stderr_passes_only_on_an_exact_hit():
    hit = MonteCarloEstimate(mean=0.5, stderr=0.0, n_effective=2, elapsed_seconds=0.0,
                             censored_fraction=0.0)
    assert cli._z_check(hit, 0.5, 5) == (True, "zero stderr: est=0.50000 target=0.50000")
    assert cli._z_check(hit, 0.25, 5)[0] is False


def test_verify_rejects_bad_refraction(capsys):
    rc = cli.main(["verify", "--config", CL_CFG, "--set", "delta=5"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_exit_stdout(capsys):
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "exit",
                   "--x", "1", "--barrier", "3", "--paths", "2000", "--seed", "7"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == list(MC_CSV_COLUMNS)
    assert rows[1][0] == "exit"
    assert rows[1][2] == "3"
    assert rows[1][7] == ""  # event-driven scheme reports no step size
    assert 0.0 < float(rows[1][3]) < 1.0


def test_simulate_appends_reproducibly(tmp_path):
    out = tmp_path / "mc.csv"
    args = ["simulate", "--config", CL_CFG, "--functional", "exit", "--x", "1",
            "--barrier", "3", "--paths", "1500", "--seed", "5", "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # one header, two rows
    assert lines[0] == ",".join(MC_CSV_COLUMNS)
    assert lines[1] == lines[2]  # same seed, bit-identical


def test_simulate_npv_explicit_policy(capsys):
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "npv",
                   "--x", "1", "--c1", "0", "--c2", "4", "--paths", "1000",
                   "--seed", "2"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[1][2] == "0:4:1"  # c1:c2:beta label
    assert float(rows[1][3]) > 0.0


def test_simulate_npv_default_optimal_policy(capsys):
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "npv",
                   "--x", "1", "--paths", "500", "--seed", "2"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    lo, up, beta = rows[1][2].split(":")
    assert float(lo) == pytest.approx(0.0025850670848357703, abs=1e-6)
    assert float(up) == pytest.approx(9.369855289266484, rel=1e-6)
    assert beta == "1"


def test_simulate_exit_needs_barrier(capsys):
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "exit",
                   "--x", "1", "--paths", "100"])
    assert rc == 2
    assert "--barrier" in capsys.readouterr().err


def test_simulate_start_above_barrier_is_domain_error(capsys):
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "exit",
                   "--x", "4", "--barrier", "3", "--paths", "100"])
    assert rc == 2
    assert "domain error" in capsys.readouterr().err


def test_simulate_non_finite_inputs_rejected(capsys):
    base = ["simulate", "--config", BM_CFG, "--functional", "exit", "--paths", "100"]
    for extra, kind in ((["--x", "nan", "--barrier", "3"], "domain error"),
                        (["--x", "0", "--barrier", "nan"], "domain error"),
                        (["--x", "0", "--barrier", "3", "--t-max", "inf"], "config error"),
                        (["--x", "0", "--barrier", "3", "--dt", "inf"], "config error")):
        rc = cli.main(base + extra)
        assert rc == 2
        assert kind in capsys.readouterr().err


def test_simulate_bad_seed_or_path_count_is_config_error(capsys):
    base = ["simulate", "--config", CL_CFG, "--functional", "exit", "--x", "1", "--barrier", "3"]
    for extra in (["--seed", "-1"], ["--paths", "0"]):
        assert cli.main(base + extra) == 2
        assert "config error" in capsys.readouterr().err


def test_single_path_estimate_is_config_error(capsys):
    # one path has no standard error: exit code 2, not a NaN stderr column
    # or verify's exit checks failing as "zero stderr"
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "exit",
                   "--x", "0", "--barrier", "3", "--paths", "1"])
    assert rc == 2
    assert "at least 2 paths" in capsys.readouterr().err
    assert cli.main(["verify", "--config", CL_CFG, "--with-mc", "--paths", "1"]) == 2
    assert "at least 2 paths" in capsys.readouterr().err


def test_euler_step_count_beyond_the_limit_is_config_error(capsys):
    # 1.5e302 steps of dt = 1e-300 used to run until killed
    rc = cli.main(["simulate", "--config", BM_CFG, "--functional", "exit", "--x", "0",
                   "--barrier", "1", "--paths", "10", "--dt", "1e-300"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dt 1e-300" in err and "t_max 150.0" in err


# Inputs whose work has no bound but the machine's: each used to run for a
# minute or more, or to end in an untyped MemoryError (exit 1), and is now
# refused before any work against a documented limit.
UNBOUNDED_WORK = {
    "eval_grid": (["eval", "--config", CL_CFG, "--grid=0:1:100000000"], 2),
    "optimize_grid": (["optimize", "--config", BM_CFG, "--grid=0:1:100000000"], 2),
    "band_3e7_terms": (["optimize", "--config", CL_CFG, "--set", "r=1e7", "--set", "q=1e-9"], 3),
    "band_3e9_terms": (["optimize", "--config", CL_CFG, "--set", "r=1e9", "--set", "q=1e-12"],
                       3),
    "claims_5e6": (["simulate", "--config", CL_CFG, "--set", "lambda=1e4", "--set", "p=1e4",
                    "--set", "mu_claim=1.001", "--set", "delta=0.5", "--set", "r=10",
                    "--functional", "exit", "--x", "1", "--barrier", "1e6", "--paths", "100"],
                   2),
}


@pytest.mark.parametrize("case", UNBOUNDED_WORK)
def test_unbounded_work_is_refused_at_once(bounded_python, case):
    # in a child capped at 2 GiB of address space, with the modules the
    # command needs loaded before the clock starts
    argv, expected = UNBOUNDED_WORK[case]
    code = f"""
import contextlib, io, resource, time
from parisian_impulse import cli, optimizer, parisian, simulate
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
err = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
print(code, time.perf_counter() - start, repr(err.getvalue()))
"""
    code, seconds, err = bounded_python(code, timeout=60.0).split(maxsplit=2)
    assert int(code) == expected, err
    assert float(seconds) < 1.0


# Finite configs whose roots or weights leave the double range: the first hung in
# the pair's edge search (kp = -inf stepped through every positive double), the
# others exited 1 with a traceback (ZeroDivisionError, OverflowError, ValueError);
# the last has every value within 1e+-8, and its claim weight cancels to 0
EXTREME_CONFIGS = {
    "cl_q_mu_claim_1e160": (CL_CFG, ["q=1e160", "mu_claim=1e160"]),
    "cl_mu_claim_1e200": (CL_CFG, ["mu_claim=1e200"]),
    "cl_lambda_1e300": (CL_CFG, ["lambda=1e300"]),
    "bm_sigma_1e-200": (BM_CFG, ["sigma=1e-200"]),
    "bm_sigma_1e200": (BM_CFG, ["sigma=1e200"]),
    "bm_mu_1e200": (BM_CFG, ["mu=1e200"]),
    "cl_within_1e8": (CL_CFG, ["p=8.43e6", "lambda=3.94e-6", "mu_claim=1.42e5",
                               "delta=2.59e4", "q=7.93e-5", "r=5.17e-4"]),
}


@pytest.mark.parametrize("case", EXTREME_CONFIGS)
def test_extreme_finite_config_is_a_typed_numerical_failure(bounded_python, case):
    cfg, sets = EXTREME_CONFIGS[case]
    argv = ["optimize", "--config", cfg] + [arg for s in sets for arg in ("--set", s)]
    code = f"""
import contextlib, io
from parisian_impulse import cli
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
print(code, repr(err.getvalue()))
"""
    code, err = bounded_python(code, timeout=10.0).split(maxsplit=1)
    assert int(code) == 3 and "numerical failure" in err and "Traceback" not in err, err


def test_grid_size_limit():
    assert cli._parse_grid(f"0:1:{cli.GRID_MAX_POINTS}").size == cli.GRID_MAX_POINTS
    with pytest.raises(ConfigError, match="points"):
        cli._parse_grid(f"0:1:{cli.GRID_MAX_POINTS + 1}")


def test_simulate_npv_needs_both_levels(capsys):
    rc = cli.main(["simulate", "--config", CL_CFG, "--functional", "npv",
                   "--x", "1", "--c1", "0", "--paths", "100"])
    assert rc == 2
    assert "both" in capsys.readouterr().err


def test_csv_row_shape(cl_spec):
    est = MonteCarloEstimate(0.5, 0.01, 100, 0.0, 0.0)
    row = mc_csv_row("exit", 1.0, "3", est, SimulationConfig(n_paths=100, seed=3), None)
    cells = row.split(",")
    assert len(cells) == len(MC_CSV_COLUMNS)
    assert cells[-1] == ""  # event-driven scheme has no step size
    assert cells[3] == "0.5"

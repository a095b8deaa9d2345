"""Command line front end.

Subcommands::

    eval      tabulate the scale functions on a grid (CSV, optional SVG chart)
    optimize  solve for the optimal impulse policy and dump the derivative grid
    verify    run the analytic invariant suite (optionally + Monte Carlo)
    simulate  run one Monte Carlo estimate and emit a CSV row

Problem parameters come from a flat config file (see
:mod:`parisian_impulse.config`), with ``--set key=value`` overrides taking
precedence; ``--beta`` is shorthand for ``--set beta=...`` and wins over both.
Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigValue, apply_overrides, build_problem_spec, load_config_file
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    OverflowRangeError,
    SolverFailureError,
    UndefinedDerivativeError,
)
from .models import (
    BrownianMotion,
    CramerLundberg,
    ImpulsePolicy,
    ProblemSpec,
    drift_adjusted,
    laplace_exponent,
    right_inverse,
)

# Each command imports the numerical modules it calls in its own body, so a
# cold start loads only those: an exit estimate never loads the optimizer.
if TYPE_CHECKING:
    from .optimizer import OptimalPolicyResult
    from .parisian import ParisianScale
    from .simulate import MonteCarloEstimate, SimulationConfig

EVAL_COLUMNS = ("x", "W", "W_prime", "Z", "w", "V", "V_prime")
MC_CSV_COLUMNS = ("functional", "x", "a_or_policy", "estimate", "stderr", "n", "seed", "dt")
GRID_MAX_POINTS = 10**5  # about 1 s and 110 MB for eval; ten times that, 7 s and 850 MB


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable; wins over the file)",
    )
    sub.add_argument("--beta", type=float, help="shorthand for --set beta=VALUE")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parisian-impulse",
        description="Scale functions, impulse dividend optimization and Monte "
        "Carlo verification for refracted surplus processes under Parisian ruin.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="tabulate W, W', Z, w, V, V' on a grid")
    _add_common(p_eval)
    p_eval.add_argument(
        "--grid",
        required=True,
        metavar="MIN:MAX:N",
        help="evaluation grid (write --grid=-3:6:200 when MIN is negative)",
    )
    p_eval.add_argument(
        "--depth",
        type=float,
        default=1.0,
        help="depth z >= 0 for the refracted column w(x; -z) (default 1.0)",
    )
    p_eval.add_argument("--out", help="CSV output path (default: stdout)")
    p_eval.add_argument("--svg", help="also write a line chart of the V column")
    p_eval.set_defaults(func=cmd_eval)

    p_opt = subs.add_parser("optimize", help="find the optimal impulse policy")
    _add_common(p_opt)
    p_opt.add_argument("--grid", metavar="MIN:MAX:N", help="V' dump grid (default 0:2*c2:401)")
    p_opt.add_argument("--out", help="write the V' grid with policy marker rows (CSV)")
    p_opt.add_argument("--svg", help="also write a line chart of V' with policy markers")
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = subs.add_parser("verify", help="run the analytic invariant suite")
    _add_common(p_ver)
    p_ver.add_argument("--with-mc", action="store_true", help="add Monte Carlo comparisons")
    p_ver.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    p_ver.add_argument(
        "--paths", type=int, default=20000, help="Monte Carlo path count (default 20000)"
    )
    p_ver.add_argument("--dt", type=float, help="Brownian Euler step (default 1e-3*min(r,1))")
    p_ver.set_defaults(func=cmd_verify)

    p_sim = subs.add_parser("simulate", help="run one Monte Carlo estimate")
    _add_common(p_sim)
    p_sim.add_argument(
        "--functional", choices=("exit", "npv"), required=True, help="quantity to estimate"
    )
    p_sim.add_argument("--x", type=float, required=True, help="initial surplus")
    p_sim.add_argument("--barrier", type=float, help="upper barrier a (exit functional)")
    p_sim.add_argument("--c1", type=float, help="pay-down level (npv; default: optimal)")
    p_sim.add_argument("--c2", type=float, help="payment trigger (npv; default: optimal)")
    p_sim.add_argument("--paths", type=int, default=100000, help="path count (default 100000)")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_sim.add_argument("--dt", type=float, help="Brownian Euler step")
    p_sim.add_argument("--t-max", type=float, help="horizon cap (default 50*r)")
    p_sim.add_argument("--antithetic", action="store_true", help="antithetic pairs")
    p_sim.add_argument("--out", help="append the CSV row to this file (default: stdout)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _load_spec(args) -> ProblemSpec:
    cfg: dict[str, ConfigValue] = {}
    if args.config:
        cfg = load_config_file(args.config)
    cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "beta", None) is not None:
        cfg = apply_overrides(cfg, [f"beta={args.beta}"])
    return build_problem_spec(cfg)


def sig17(value: float) -> str:
    """17 significant digits, dot decimal separator, no locale surprises."""
    return format(float(value), ".17g")


def _parse_grid(text: str) -> np.ndarray:
    """The ``n`` evenly spaced points of ``MIN:MAX:N``, ends included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must look like MIN:MAX:N")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid {text!r} must look like MIN:MAX:N") from None
    if not 2 <= n <= GRID_MAX_POINTS:
        raise ConfigError(f"grid needs 2 to {GRID_MAX_POINTS} points, got {n}")
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"grid {text!r} needs finite MIN < MAX with MAX - MIN finite")
    return lo + np.arange(n) * (hi - lo) / (n - 1)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# minimal SVG line charts (no external dependency; data inspection only)
# ---------------------------------------------------------------------------

_COLOR = "#1f77b4"


def _svg_line_chart(
    path: str,
    xs: list[float],
    name: str,
    ys: list[float | None],
    title: str,
    vlines: list[tuple[float, str]] = (),
) -> None:
    width, height, pad = 640, 420, 54
    finite = lambda p: p[1] is not None and math.isfinite(p[1])
    pts = [p for p in zip(xs, ys) if finite(p)]
    if not pts:
        raise DomainError("nothing to plot: no finite values on the grid")
    px, py = zip(*pts)
    x_lo, x_hi, y_lo, y_hi = min(px), max(px), min(py), max(py)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * x_span / 4
        yv = y_lo + i * y_span / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{pad - 6}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.4g}</text>'
        )
    # gaps (None / non-finite cells) split the trace into segments
    for ok, run in itertools.groupby(zip(xs, ys), key=finite):
        if ok:
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in run)
            parts.append(f'<polyline fill="none" stroke="{_COLOR}" stroke-width="1.5" '
                         f'points="{points}"/>')
    parts.append(f'<text x="{width - pad}" y="{pad}" text-anchor="end" '
                 f'font-size="11" fill="{_COLOR}">{name}</text>')
    for xv, label in vlines:
        if x_lo <= xv <= x_hi:
            parts.append(
                f'<line x1="{sx(xv):.2f}" y1="{pad}" x2="{sx(xv):.2f}" y2="{height - pad}" '
                'stroke="gray" stroke-dasharray="4 3"/>'
            )
            parts.append(
                f'<text x="{sx(xv):.2f}" y="{pad - 4}" text-anchor="middle" '
                f'font-size="10">{label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cell(compute) -> str:
    """One CSV cell; singular derivatives go empty, range overflow is flagged."""
    try:
        return sig17(compute())
    except UndefinedDerivativeError:
        return ""
    except OverflowRangeError:
        return "overflow"


def _column(f, xs: np.ndarray) -> list[str]:
    """One CSV column of ``f`` on the grid, from one array call; NaN marks a
    singular derivative.  A column that overflows somewhere is redone point
    by point, so that only the overflowing cells are flagged."""
    try:
        values = f(xs)
    except OverflowRangeError:
        return [_cell(lambda: f(x)) for x in xs.tolist()]
    return [sig17(v) if math.isfinite(v) else "" for v in values.tolist()]


def _numbers(cells: list[str]) -> list[float | None]:
    return [float(c) if c not in ("", "overflow") else None for c in cells]


def cmd_eval(args) -> int:
    from .parisian import parisian_scale
    from .scale import ScaleFunction, refracted_scale

    spec = _load_spec(args)
    if not (math.isfinite(args.depth) and args.depth >= 0.0):
        raise ConfigError(f"--depth must be finite and nonnegative, got {args.depth}")
    xs = _parse_grid(args.grid)
    ps = parisian_scale(spec)
    cs = ps.coefficient_set
    surplus = ScaleFunction(cs.surplus, spec.q)
    depth = args.depth

    columns = [
        [sig17(x) for x in xs.tolist()],
        _column(surplus.value, xs),
        _column(surplus.derivative, xs),
        _column(surplus.second_scale, xs),
        _column(lambda x: refracted_scale(cs, x, depth), xs),
        _column(ps.value, xs),
        _column(ps.derivative, xs),
    ]
    lines = [",".join(EVAL_COLUMNS)] + [",".join(row) for row in zip(*columns)]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _svg_line_chart(args.svg, xs.tolist(), "V", _numbers(columns[5]),
                        "Parisian refracted scale V")
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def result_record(ps: ParisianScale, result: OptimalPolicyResult) -> str:
    """One key per line, for logs and the command line."""
    spec, m = ps.spec, ps.spec.model
    if isinstance(m, BrownianMotion):
        fields = {"model": "brownian", "mu": m.mu, "sigma": m.sigma}
    else:
        fields = {"model": "cramer_lundberg", "p": m.p, "lambda": m.lam, "mu_claim": m.mu_claim}
    fields.update(delta=spec.delta, q=spec.q, r=spec.r, beta=spec.beta,
                  c1_star=result.policy.lower, c2_star=result.policy.upper,
                  g_star=result.payout_ratio, case=result.case, fo_residual=result.fo_residual,
                  derivative_argmin=result.derivative_argmin,
                  sufficiency_pass=str(result.sufficiency_pass).lower())
    return "\n".join(f"{k}: {v if isinstance(v, str) else sig17(v)}" for k, v in fields.items())


def cmd_optimize(args) -> int:
    from .optimizer import find_optimal_policy
    from .parisian import parisian_scale

    spec = _load_spec(args)
    grid = _parse_grid(args.grid) if args.grid else None
    ps = parisian_scale(spec)
    result = find_optimal_policy(ps)
    sys.stdout.write(result_record(ps, result) + "\n")
    if args.out or args.svg:
        c1, c2 = result.policy.lower, result.policy.upper
        if grid is None:  # the grid 0:2*c2:401
            grid = np.arange(401) * (2.0 * c2) / 400
        rows = [(x, "") for x in grid.tolist()] + [(c1, "c1_star"), (c2, "c2_star")]
        rows.sort(key=lambda item: item[0])
        xs = [x for x, _ in rows]
        cells = _column(ps.derivative, np.array(xs))
        lines = ["x,V_prime,marker"] + [
            f"{sig17(x)},{cell},{marker}" for (x, marker), cell in zip(rows, cells)
        ]
        if args.out:
            _write_text(args.out, "\n".join(lines) + "\n")
        if args.svg:
            _svg_line_chart(
                args.svg,
                xs,
                "V'",
                _numbers(cells),
                "Scale derivative with optimal policy",
                vlines=[(c1, "c1*"), (c2, "c2*")],
            )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _z_check(est: MonteCarloEstimate, target: float, digits: int) -> tuple[bool, str]:
    """Within 3 standard errors of the target, and the detail; a zero stderr
    (every path alike) passes only on an exact hit."""
    gap, f = est.mean - target, f".{digits}f"
    if not est.stderr > 0.0:
        return gap == 0.0, f"zero stderr: est={est.mean:{f}} target={target:{f}}"
    z = gap / est.stderr
    return abs(z) <= 3.0, f"z={z:+.2f} est={est.mean:{f}}+-{est.stderr:{f}} target={target:{f}}"


def _quadrature_points(spec: ProblemSpec) -> list[float]:
    if isinstance(spec.model, CramerLundberg):
        pr = spec.model.p * spec.r
        return [-pr - 0.5, -0.75 * pr, -0.25 * pr, 0.5, 1.5, 3.0]
    return [-2.5, -1.0, 0.0, 0.5, 1.2, 3.0]


def cmd_verify(args) -> int:
    from .optimizer import (FO_TOL, TRANSFER_TOL, check_sufficiency_pair,
                            check_transfer_inequality, find_optimal_policy, value_function)
    from .parisian import parisian_scale
    from .quadrature import generator_residual, quadrature_value

    spec = _load_spec(args)
    ps = parisian_scale(spec)
    passed: list[bool] = []

    def check(name: str, ok: bool, detail: str) -> None:
        """Print a row as soon as it is decided: a solve that raises leaves those before it."""
        sys.stdout.write(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
        passed.append(ok)

    phi = right_inverse(spec.model, spec.q)
    res_x = abs(laplace_exponent(spec.model, phi) - spec.q)
    adjusted = drift_adjusted(spec)
    phi_y = right_inverse(adjusted, spec.q)
    res_y = abs(laplace_exponent(adjusted, phi_y) - spec.q)
    ok = res_x <= 1e-12 * spec.q and res_y <= 1e-12 * spec.q
    check("laplace_roots", ok, f"residuals {res_x:.2e}, {res_y:.2e} (tol 1e-12 rel)")

    mass = ps.coefficient_set.surplus.value(0.0)
    expected = 1.0 / spec.model.p if isinstance(spec.model, CramerLundberg) else 0.0
    ok = abs(mass - expected) <= 1e-12 * max(1.0, expected)
    check("scale_mass_at_zero", ok, f"W(0+)={mass:.12g} expected {expected:.12g}")

    gap = _relative_gap(ps.value(0.0), math.exp(spec.q * spec.r))
    check("parisian_at_zero", gap <= 1e-8, f"rel gap {gap:.2e} (tol 1e-8)")

    worst = 0.0
    for x in _quadrature_points(spec):
        closed = ps.value(x)
        quad = quadrature_value(ps, x)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(quad)))
    check("closed_vs_quadrature", worst <= 1e-6, f"worst rel gap {worst:.2e} (tol 1e-6)")

    result = find_optimal_policy(ps)
    # V'(c) = g* at c2*, and at c1* when interior (c1* = 0 is a compound Poisson kink)
    g_star, c1, c2 = result.payout_ratio, result.policy.lower, result.policy.upper
    ends = (c1, c2) if result.case == "interior" else (c2,)
    fo = max(abs(ps.derivative(c) - g_star) / g_star for c in ends)
    detail = f"case={result.case} residual {fo:.2e} (tol {FO_TOL:g} rel)"
    check("first_order_residual", fo <= FO_TOL, detail)

    transfer = check_transfer_inequality(ps, result.policy)
    detail = (f"worst margin {transfer.worst_margin:.2e} at x={transfer.worst_x:.4g} "
              f"y={transfer.worst_y:.4g} (tol {-TRANSFER_TOL:g})")
    check("transfer_inequality", transfer.passed, detail)

    # V' nondecreasing on [c2*, inf): a > 0 and c2* >= a* (closed form, see optimizer)
    suff = check_sufficiency_pair(ps, c2)
    detail = (f"c2*={c2:.6g} argmin={suff.derivative_argmin:.6g} "
              f"least V'' beyond c2* {suff.worst_slack:.2e}")
    check("sufficiency_condition", suff.passed, detail)

    worst_in = 0.0
    for x in np.linspace(0.1 * c2, 0.9 * c2, 10):
        v = value_function(ps, result.policy, float(x))
        worst_in = max(worst_in, abs(generator_residual(ps, result.policy, float(x))) / (1.0 + v))
    worst_above = max(
        generator_residual(ps, result.policy, float(x))
        for x in np.linspace(1.05 * c2, 2.0 * c2, 5)
    )
    ok = worst_in <= 1e-4 and worst_above <= 1e-4
    check("generator_residual", ok,
          f"worst interior {worst_in:.2e} (tol 1e-4), worst above c2 {worst_above:.2e}")

    if args.with_mc:
        from .simulate import SimulationConfig, estimate_exit_functional, estimate_policy_npv

        mc_cfg = SimulationConfig(n_paths=args.paths, dt=args.dt, seed=args.seed)
        exact = isinstance(spec.model, CramerLundberg)
        for label, x in (("mc_exit_mid", 0.5 * c2), ("mc_exit_zero", 0.0)):
            if exact:
                # event-driven scheme is exact: compare against the closed form
                est = estimate_exit_functional(spec, x, c2, mc_cfg)
                target = ps.value(x) / ps.value(c2)
                check(label, *_z_check(est, target, 5))
            else:
                # Euler scheme carries an O(sqrt(dt)) barrier bias, so the
                # meaningful consistency check is step-size refinement
                dt, _ = mc_cfg.resolve(spec)
                est1 = estimate_exit_functional(spec, x, c2, mc_cfg)
                cfg2 = SimulationConfig(
                    n_paths=args.paths, dt=0.5 * dt, seed=args.seed + 1
                )
                est2 = estimate_exit_functional(spec, x, c2, cfg2)
                diff = est1.mean - est2.mean
                band = 3.0 * math.hypot(est1.stderr, est2.stderr)
                check(label, abs(diff) <= band,
                      f"refinement dt={dt:g} vs {0.5 * dt:g}: diff={diff:+.5f} band={band:.5f}")
        npv_cfg = SimulationConfig(
            n_paths=max(args.paths // 4, 1000), dt=args.dt, seed=args.seed + 1
        )
        x = 0.5 * c2
        est = estimate_policy_npv(spec, result.policy, x, npv_cfg)
        target = value_function(ps, result.policy, x)
        check("mc_policy_npv", *_z_check(est, target, 4))

    failures = passed.count(False)
    if failures:
        sys.stdout.write(f"{failures} of {len(passed)} checks failed\n")
        return 1
    sys.stdout.write(f"all {len(passed)} checks passed\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def mc_csv_row(functional: str, x: float, a_or_policy: str,
               estimate: MonteCarloEstimate, config: SimulationConfig,
               dt_used: float | None) -> str:
    """One CSV row per estimate; ``dt`` is empty for the event-driven scheme."""
    cells = [
        functional,
        sig17(x),
        a_or_policy,
        sig17(estimate.mean),
        sig17(estimate.stderr),
        str(estimate.n_effective),
        str(config.seed),
        sig17(dt_used) if dt_used is not None else "",
    ]
    return ",".join(cells)


def cmd_simulate(args) -> int:
    from .simulate import SimulationConfig, estimate_exit_functional, estimate_policy_npv

    spec = _load_spec(args)
    mc_cfg = SimulationConfig(
        n_paths=args.paths,
        dt=args.dt,
        t_max=args.t_max,
        seed=args.seed,
        antithetic=args.antithetic,
    )
    dt_used, _ = mc_cfg.resolve(spec)
    if isinstance(spec.model, CramerLundberg):
        dt_used = None  # event-driven scheme has no step size
    if args.functional == "exit":
        if args.barrier is None:
            raise ConfigError("the exit functional needs --barrier")
        est = estimate_exit_functional(spec, args.x, args.barrier, mc_cfg)
        label = sig17(args.barrier)
    else:
        if (args.c1 is None) != (args.c2 is None):
            raise ConfigError("give both --c1 and --c2, or neither (optimal policy)")
        if args.c1 is not None:
            policy = ImpulsePolicy(args.c1, args.c2)
            policy.validate(spec.beta)
        else:
            from .optimizer import find_optimal_policy
            from .parisian import parisian_scale

            policy = find_optimal_policy(parisian_scale(spec)).policy
        est = estimate_policy_npv(spec, policy, args.x, mc_cfg)
        label = f"{sig17(policy.lower)}:{sig17(policy.upper)}:{sig17(spec.beta)}"
    row = mc_csv_row(args.functional, args.x, label, est, mc_cfg, dt_used)
    header = ",".join(MC_CSV_COLUMNS)
    if args.out:
        try:
            with open(args.out, encoding="utf-8") as handle:
                has_header = handle.readline().strip() == header
        except OSError:
            has_header = False
        with open(args.out, "a", encoding="utf-8") as handle:
            if not has_header:
                handle.write(header + "\n")
            handle.write(row + "\n")
    else:
        sys.stdout.write(header + "\n" + row + "\n")
    if est.warning:
        sys.stderr.write(f"warning: {est.warning}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except SolverFailureError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

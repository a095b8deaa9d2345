"""Acceptance scorecard.

Eight end-to-end checks, one per test, each printing a single
``criterion N: PASS/FAIL - detail`` line on the real stdout (bypassing
capture) before asserting.  Budgets are wall-clock seconds and part of
the criterion.

Criterion 6 expects an interior optimum for the compound Poisson
benchmark at beta=1.  There V'(0+) exceeds the best boundary payout ratio
by 3.5e-5, so moving c1 off zero lowers g: the stationary pair
(c1*=2.585e-3) beats every boundary policy by ~5e-9 in the payout ratio.
The sign is confirmed by a 30-digit mpmath evaluation of the defining
window integral (``test_cl_beta1_interior_by_mpmath_window_oracle``).  On
a mismatch the failure message carries the same numeric analysis.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from parisian_impulse import (
    SimulationConfig,
    check_sufficiency_pair,
    check_transfer_inequality,
    estimate_exit_functional,
    estimate_policy_npv,
    generator_residual,
    payout_ratio,
    value_function,
)
from parisian_impulse.parisian import ParisianScale, parisian_scale
from parisian_impulse.quadrature import quadrature_value

import oracles
from params import brownian_spec, cramer_lundberg_spec


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    # leading newline: pytest's progress output leaves the cursor mid-line
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_delay_discount_at_zero(capsys):
    budget = 1.0
    start = time.perf_counter()
    gaps = {}
    for name, spec in (("bm", brownian_spec()), ("cl", cramer_lundberg_spec())):
        ps = ParisianScale(spec)  # fresh build, construction time included
        target = math.exp(spec.q * spec.r)
        gaps[name] = abs(ps.value(0.0) - target) / target
    elapsed = time.perf_counter() - start
    ok = max(gaps.values()) <= 1e-8 and elapsed < budget
    detail = (f"V(0)=exp(q*r) rel gaps bm={gaps['bm']:.2e} cl={gaps['cl']:.2e} "
              f"(tol 1e-8, {elapsed:.2f}s/{budget:.0f}s)")
    _report(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_2_closed_form_vs_quadrature(capsys):
    budget = 10.0
    start = time.perf_counter()
    worst = 0.0
    for spec, lo in ((brownian_spec(), -4.0), (cramer_lundberg_spec(), -7.0)):
        ps = parisian_scale(spec)
        for x in np.linspace(lo, 8.0, 25):
            closed = ps.value(float(x))
            quad = quadrature_value(ps, float(x))
            worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < budget
    detail = (f"25-point grids incl. x<0 and both sides of the support edge, "
              f"worst rel gap {worst:.2e} (tol 1e-6, {elapsed:.2f}s/{budget:.0f}s)")
    _report(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_3_refracted_convolution_identity(capsys):
    budget = 30.0
    start = time.perf_counter()
    worst = 0.0
    for spec in (brownian_spec(), cramer_lundberg_spec()):
        cs = parisian_scale(spec).coefficient_set
        from parisian_impulse.scale import refracted_scale

        for x in np.linspace(0.0, 4.5, 10):
            for z in np.linspace(0.0, 3.0, 10):
                closed = refracted_scale(cs, float(x), float(z))
                ref = oracles.refracted_scale_by_convolution(spec, float(x), float(z))
                worst = max(worst, abs(closed - ref) / max(1.0, abs(ref)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < budget
    detail = (f"10x10 (x, depth) grids per model vs independent convolution "
              f"quadrature, worst gap {worst:.2e} (tol 1e-8, {elapsed:.2f}s/{budget:.0f}s)")
    _report(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_exit_functional_monte_carlo(capsys):
    budget = 120.0
    start = time.perf_counter()
    parts = []
    ok = True

    # exact event-driven scheme: direct z-test against the closed form
    spec = cramer_lundberg_spec()
    ps = parisian_scale(spec)
    cfg = SimulationConfig(n_paths=100_000, seed=101)
    for x in (0.5, 1.0):
        est = estimate_exit_functional(spec, x, 3.0, cfg)
        z = (est.mean - ps.value(x) / ps.value(3.0)) / est.stderr
        ok &= abs(z) <= 3.0
        parts.append(f"cl x={x}: z={z:+.2f}")

    # Euler scheme carries an O(sqrt(dt)) barrier bias; consistency is
    # checked by step-size refinement instead of an absolute z-test
    spec = brownian_spec()
    for x in (0.5, 1.0):
        e1 = estimate_exit_functional(
            spec, x, 3.0, SimulationConfig(n_paths=40_000, dt=2e-3, seed=201)
        )
        e2 = estimate_exit_functional(
            spec, x, 3.0, SimulationConfig(n_paths=40_000, dt=1e-3, seed=202)
        )
        band = 3.0 * math.hypot(e1.stderr, e2.stderr)
        ok &= abs(e1.mean - e2.mean) <= band
        parts.append(f"bm x={x}: refine diff={e1.mean - e2.mean:+.4f} band={band:.4f}")

    elapsed = time.perf_counter() - start
    ok &= elapsed < budget
    detail = f"{'; '.join(parts)} ({elapsed:.1f}s/{budget:.0f}s)"
    _report(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_5_policy_npv_monte_carlo(capsys, optimum):
    budget = 180.0
    start = time.perf_counter()
    spec = cramer_lundberg_spec(beta=1.0)
    ps = parisian_scale(spec)
    policy = optimum(spec).policy
    cfg = SimulationConfig(n_paths=100_000, seed=303, t_max=300.0)
    parts = []
    ok = True
    for x in (0.0, 1.0, policy.upper + 1.0):
        est = estimate_policy_npv(spec, policy, x, cfg)
        z = (est.mean - value_function(ps, policy, x)) / est.stderr
        ok &= abs(z) <= 3.0
        parts.append(f"x={x:.4g}: z={z:+.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < budget
    detail = (f"exact scheme at the computed optimum, {'; '.join(parts)} "
              f"({elapsed:.1f}s/{budget:.0f}s)")
    _report(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_stationarity_and_classification(capsys, optimum):
    budget = 60.0
    start = time.perf_counter()
    problems = [
        ("bm beta=0.05", brownian_spec(0.05), "interior"),
        ("bm beta=1", brownian_spec(1.0), "boundary"),
        ("cl beta=1", cramer_lundberg_spec(1.0), "interior"),
    ]

    foc_worst = max(
        optimum(spec).fo_residual
        for spec in (brownian_spec(0.05), brownian_spec(1.0),
                     cramer_lundberg_spec(1.0), cramer_lundberg_spec(0.02))
    )
    foc_ok = foc_worst < 1e-8

    brute_worst = -math.inf
    for _, spec, _ in problems:
        result = optimum(spec)
        ps = parisian_scale(spec)
        g_brute, _, _ = oracles.brute_force_payout_grid(ps, oracles.search_bound(ps), step=1e-3)
        brute_worst = max(brute_worst, result.payout_ratio - g_brute)
    brute_ok = brute_worst <= 1e-6

    mismatches = []
    for label, spec, expected in problems:
        result = optimum(spec)
        if result.case != expected:
            ps = parisian_scale(spec)
            bound = oracles.search_bound(ps)
            best_boundary = minimize_scalar(
                lambda c2: payout_ratio(ps, 0.0, c2),
                bounds=(spec.beta + 1e-9, bound),
                method="bounded",
                options={"xatol": 1e-12},
            )
            margin = best_boundary.fun - result.payout_ratio
            vp0 = ps.positive_pair.derivative(0.0)
            mismatches.append(
                f"{label}: computed {result.case} (c1*={result.policy.lower:.4e}, "
                f"beats best boundary g by {margin:.2e}; "
                f"V'(0+)-g_boundary={vp0 - best_boundary.fun:+.3e}) "
                f"but expected {expected}"
            )
    class_ok = not mismatches

    elapsed = time.perf_counter() - start
    ok = foc_ok and brute_ok and class_ok and elapsed < budget
    detail = (f"stationarity worst residual {foc_worst:.1e} (tol 1e-8); "
              f"1e-3 brute-force grid beats polished g by at most "
              f"{max(brute_worst, 0.0):.1e} (tol 1e-6); "
              + ("classification matches on all three benchmark problems"
                 if class_ok else "classification: " + " | ".join(mismatches))
              + f" ({elapsed:.1f}s/{budget:.0f}s)")
    _report(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_derivative_shape_certificates(capsys, optimum):
    budget = 30.0
    start = time.perf_counter()
    parts = []
    ok = True

    # V' falls to a single minimum and rises afterwards on (0, 20]
    for name, spec in (("bm", brownian_spec()), ("cl", cramer_lundberg_spec())):
        ps = parisian_scale(spec)
        xs = np.linspace(1e-6, 20.0, 2000)
        vals = np.array([ps.derivative(float(x)) for x in xs])
        tol = 1e-9 * float(np.max(np.abs(vals)))
        split = int(np.argmin(vals))
        rises_before = float(np.max(np.diff(vals[: split + 1]))) if split else 0.0
        drops_after = float(np.min(np.diff(vals[split:])))
        good = rises_before <= tol and drops_after >= -tol
        ok &= good
        parts.append(f"{name} unimodal={'yes' if good else 'NO'}")

    # nondecreasing beyond the trigger, and no profitable lump transfer
    for spec in (brownian_spec(0.05), brownian_spec(1.0), cramer_lundberg_spec(1.0)):
        result = optimum(spec)
        ps = parisian_scale(spec)
        suff = check_sufficiency_pair(ps, result.policy.upper)
        transfer = check_transfer_inequality(ps, result.policy)
        ok &= suff.passed and transfer.passed and transfer.worst_margin >= -1e-9
        parts.append(
            f"beta={spec.beta:g} {type(spec.model).__name__[:2].lower()}: "
            f"slack={suff.worst_slack:.1e} transfer={transfer.worst_margin:.1e}"
        )

    elapsed = time.perf_counter() - start
    ok &= elapsed < budget
    detail = f"{'; '.join(parts)} ({elapsed:.1f}s/{budget:.0f}s)"
    _report(capsys, 7, ok, detail)
    assert ok, detail


def test_criterion_8_generator_residuals(capsys, optimum):
    budget = 10.0
    start = time.perf_counter()
    spec = brownian_spec(0.05)
    ps = parisian_scale(spec)
    policy = optimum(spec).policy
    c2 = policy.upper

    worst_in = 0.0
    for x in np.linspace(0.0, c2, 22)[1:-1]:
        v = value_function(ps, policy, float(x))
        res = abs(generator_residual(ps, policy, float(x)))
        worst_in = max(worst_in, res / (1.0 + v))
    worst_above = max(
        generator_residual(ps, policy, float(x))
        for x in np.linspace(c2 + 0.5, c2 + 5.0, 10)
    )
    elapsed = time.perf_counter() - start
    ok = worst_in <= 1e-4 and worst_above <= 1e-4 and elapsed < budget
    detail = (f"harvesting region worst |(L-q)v|/(1+v)={worst_in:.2e} at 20 points; "
              f"payout region worst signed residual {worst_above:+.2e} at 10 points "
              f"(tol 1e-4, {elapsed:.2f}s/{budget:.0f}s)")
    _report(capsys, 8, ok, detail)
    assert ok, detail

"""The solve against the mpmath reference on the benchmark's whole census.

Draws the census sample of ``bench/workloads.py`` (``COMMON_BOX``, 60 specs
per model and seed, seeds 1-10 by default) and checks every spec that solves
against ``oracles.reference_optimum``.  For each model and case it prints the
number of specs and the worst error of ``c1*`` relative to ``c2*``, of
``c1*`` relative to itself (interior only: a boundary ``c1*`` is exactly 0),
of ``c2*`` and of ``g*``.  ``tests/test_reference_solve.py`` checks a fixed
sample of the same box in the tier-1 suite; this script gives the whole map,
to be quoted when a change moves the solve's digits.

Run from the repository root, with the package importable (installed, or
``PYTHONPATH=src``); seeds 1-10 take a few minutes, almost all of it in the
compound Poisson reference::

    python tests/reference_census.py [--seeds N]
"""
from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import COMMON_BOX, CENSUS_SPECS_PER_MODEL, SolveSweep  # noqa: E402

from parisian_impulse import CramerLundberg, NumericalError, find_optimal_policy  # noqa: E402
from parisian_impulse.parisian import parisian_scale  # noqa: E402

import oracles  # noqa: E402

COLUMNS = ("c1/c2", "c1/c1", "c2", "g")


def census_specs(seeds: int) -> list:
    """The census sample of seeds 1..seeds, drawn as the benchmark draws it."""
    return [spec for seed in range(1, seeds + 1)
            for spec in SolveSweep(seed)._draw(COMMON_BOX, np.random.default_rng([seed, 1]),
                                               CENSUS_SPECS_PER_MODEL)]


def errors(spec) -> tuple[str, tuple[float, ...]]:
    """The case and the four errors of one solve against the reference."""
    result = find_optimal_policy(parisian_scale(spec))
    c1, c2, g = result.policy.lower, result.policy.upper, result.payout_ratio
    r1, r2, rg = oracles.reference_optimum(spec, result.case, c1, c2)
    own = abs(c1 - r1) / r1 if result.case == "interior" else 0.0
    return result.case, (abs(c1 - r1) / r2, own, abs(c2 - r2) / r2, abs(g - rg) / rg)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="census seeds 1..N (default 10)")
    seeds = parser.parse_args(argv).seeds
    worst: dict = defaultdict(lambda: [0, [0.0] * len(COLUMNS)])
    failed = 0
    for spec in census_specs(seeds):
        try:
            case, errs = errors(spec)
        except NumericalError:
            failed += 1
            continue
        row = worst["cl" if isinstance(spec.model, CramerLundberg) else "bm", case]
        row[0] += 1
        row[1] = [max(w, e) for w, e in zip(row[1], errs)]
    print(f"seeds 1-{seeds}; {failed} specs end in a typed error; worst relative errors:")
    print(f"{'model':6}{'case':10}{'specs':>6}" + "".join(f"{c:>10}" for c in COLUMNS))
    for (model, case), (n, errs) in sorted(worst.items()):
        print(f"{model:6}{case:10}{n:>6}" + "".join(f"{e:>10.2e}" for e in errs))


if __name__ == "__main__":
    main()

"""The solve against a high-precision reference: ``c1*``, ``c2*`` and ``g*``
from mpmath, on a fixed sample of the parameter box.

The reference (``oracles.reference_optimum``) takes V on x >= 0 from the
Brownian closed form at 50 digits, or from ``V(0)`` and ``V'(0+)`` of the
compound Poisson window integral at 25 digits, and solves the first-order
conditions with ``mpmath.findroot``.  Nothing of it comes from the package
but the case and the start of the root search.

The sample is ten specs per model of the benchmark's whole box (``q`` in
[0.01, 5], ``r`` in [0.5, 200], ``beta`` in [0.02, 1.5]; its census seeds
1-10), parameters rounded to four digits.  It holds the specs where the solve
was least accurate there (for compound Poisson the small-``q``, long-window
boundary optima, ``p*r`` 190-520), both cases, the ends of the ``q`` and
``r`` ranges, and specs whose error grows past the tolerance when the root
tolerance is loosened.

Tolerances, set once from the map of all 1196 census specs that solve:
the largest error of ``c2*`` and ``g*`` relative to themselves, and of
``c1*`` relative to ``c2*``, was 1.1e-13 (Brownian) and 2.0e-12 (compound
Poisson).  With about fivefold headroom the tolerances are 5e-13 and 1e-11.
``c1*`` is measured against ``c2*``: an interior ``c1*`` can sit near 0
(0.0026 on the shipped compound Poisson config), where the bracketed root's
relative step bound leaves it a relative error of a few 1e-12 by design.
"""
from __future__ import annotations

import pytest

from parisian_impulse import BrownianMotion, CramerLundberg, ProblemSpec, find_optimal_policy
from parisian_impulse.parisian import parisian_scale

import oracles

pytest.importorskip("mpmath")

TOL = {"bm": 5e-13, "cl": 1e-11}

# (mu, sigma, delta, q, r, beta)
BM_SAMPLE = [
    (0.9476, 1.198, 0.01788, 0.02552, 22.62, 0.02814),
    (0.1409, 1.299, 0.05715, 4.411, 147.5, 0.6919),
    (0.9846, 1.058, 0.02346, 0.01017, 174.4, 0.1582),
    (0.5314, 0.4912, 0.03894, 0.02086, 1.365, 0.9139),
    (0.7285, 0.7959, 0.06948, 0.01726, 2.369, 1.018),
    (0.291, 0.5865, 0.01337, 0.06336, 0.9429, 0.4469),
    (0.9794, 0.9395, 0.04296, 4.16, 3.607, 1.025),
    (0.7759, 0.9408, 0.02297, 0.6018, 57.95, 1.489),
    (0.3086, 0.8535, 0.05864, 4.877, 65.42, 0.08928),
    (0.6781, 1.235, 0.07091, 0.01776, 196.2, 0.5549),
]
# (p, lam, mu_claim, delta, q, r, beta)
CL_SAMPLE = [
    (3.615, 2.106, 0.9818, 0.1209, 0.01465, 143.3, 0.1367),
    (2.357, 1.65, 1.837, 0.1392, 0.02052, 80.86, 0.04898),
    (2.813, 2.318, 1.985, 0.3848, 0.01155, 121.7, 0.1627),
    (2.806, 1.253, 1.492, 0.3675, 0.01581, 1.44, 0.1247),
    (2.701, 1.765, 1.96, 0.05058, 0.0173, 1.162, 0.1349),
    (2.957, 1.739, 1.631, 0.3107, 0.02057, 0.7363, 1.437),
    (2.399, 2.21, 1.677, 0.4819, 0.1414, 41.71, 0.5817),
    (3.351, 2.593, 0.8274, 0.1537, 0.6465, 16.35, 1.332),
    (2.177, 1.724, 0.9056, 0.106, 4.928, 96.05, 1.047),
    (2.72, 2.872, 1.851, 0.2915, 0.07401, 192.3, 1.212),
]
SAMPLE = [("bm", ProblemSpec(BrownianMotion(mu, sigma), delta, q, r, beta))
          for mu, sigma, delta, q, r, beta in BM_SAMPLE]
SAMPLE += [("cl", ProblemSpec(CramerLundberg(p, lam, mu), delta, q, r, beta))
           for p, lam, mu, delta, q, r, beta in CL_SAMPLE]


def solve_errors(spec: ProblemSpec) -> tuple[str, tuple[float, float, float]]:
    """The case and the errors of ``c1*`` (relative to ``c2*``), ``c2*`` and ``g*``."""
    result = find_optimal_policy(parisian_scale(spec))
    c1, c2, g = result.policy.lower, result.policy.upper, result.payout_ratio
    r1, r2, rg = oracles.reference_optimum(spec, result.case, c1, c2)
    return result.case, (abs(c1 - r1) / r2, abs(c2 - r2) / r2, abs(g - rg) / rg)


@pytest.mark.parametrize("model,spec", SAMPLE,
                         ids=[f"{m}-q{s.q:g}-r{s.r:g}" for m, s in SAMPLE])
def test_solve_matches_mpmath_reference(model, spec):
    case, errors = solve_errors(spec)
    assert max(errors) <= TOL[model], (case, errors)

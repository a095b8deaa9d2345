"""Benchmark parameter sets shared across the test suite.

Two surplus models exercised everywhere: a linear diffusion and a compound
Poisson process, each with the delay, refraction and discount rates used by
the frozen oracle values.  The transaction cost defaults to 0.05 for the
diffusion and 1 for compound Poisson; both optima are interior (the compound
Poisson one only barely, with c1* = 2.585e-3).  Tests that need the boundary
regime pass their own beta, e.g. ``brownian_spec(1.0)``.  Drawn specs come
from ``census_box_specs``, the benchmark's census box.  ``outcome`` is the
bit-identity tests' one comparison key: a float's bits or an error's type and text.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from parisian_impulse import (BrownianMotion, CramerLundberg, DomainError, NumericalError,
                              ProblemSpec)


def brownian_spec(beta: float = 0.05) -> ProblemSpec:
    return ProblemSpec(
        BrownianMotion(mu=0.5, sigma=0.75), delta=0.05, q=0.05, r=3.0, beta=beta
    )


def cramer_lundberg_spec(beta: float = 1.0) -> ProblemSpec:
    return ProblemSpec(
        CramerLundberg(p=3.0, lam=2.0, mu_claim=1.0), delta=0.25, q=0.05, r=2.0, beta=beta
    )


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# the benchmark's census box: COMMON_BOX with BM_BOX or CL_BOX (bench/workloads.py)
@st.composite
def census_box_specs(draw):
    common = dict(q=draw(log_uniform(0.01, 5.0)), r=draw(log_uniform(0.5, 200.0)),
                  beta=draw(st.floats(0.02, 1.5)))
    if draw(st.booleans()):
        model = BrownianMotion(mu=draw(st.floats(0.1, 1.0)), sigma=draw(st.floats(0.3, 1.5)))
        return ProblemSpec(model, delta=draw(st.floats(0.01, 0.08)), **common)
    model = CramerLundberg(p=draw(st.floats(2.0, 4.0)), lam=draw(st.floats(0.5, 3.0)),
                           mu_claim=draw(st.floats(0.8, 2.0)))
    return ProblemSpec(model, delta=draw(st.floats(0.05, 0.5)), **common)


def outcome(call, errors=(DomainError, NumericalError), python_float=False):
    """The hex bits of the float ``call()`` returns (an array's first entry), or the
    type and text of the error among ``errors`` it raises; with ``python_float`` the
    result must be a Python float, not a NumPy scalar or array."""
    try:
        value = call()
    except errors as exc:
        return type(exc), str(exc)
    if python_float:
        assert type(value) is float, value
    return float(np.asarray(value).reshape(-1)[0]).hex()

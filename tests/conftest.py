from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import parisian_impulse
from parisian_impulse import find_optimal_policy
from parisian_impulse.parisian import parisian_scale

from params import brownian_spec, cramer_lundberg_spec


@pytest.fixture(scope="session")
def bm_spec():
    return brownian_spec()


@pytest.fixture(scope="session")
def cl_spec():
    return cramer_lundberg_spec()


@pytest.fixture(scope="session")
def bm_scale(bm_spec):
    return parisian_scale(bm_spec)


@pytest.fixture(scope="session")
def cl_scale(cl_spec):
    return parisian_scale(cl_spec)


@pytest.fixture(scope="session")
def optimum():
    """Memoized optimizer runs, keyed by spec (the search is deterministic)."""
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = find_optimal_policy(parisian_scale(spec))
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def bounded_python():
    """Run Python code against the package in a subprocess and return its
    stdout; a hang fails the test at the timeout instead of stalling the suite."""
    src = str(Path(parisian_impulse.__file__).resolve().parent.parent)

    def run(code: str, timeout: float = 60.0) -> str:
        out = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
            capture_output=True, text=True, timeout=timeout, check=True,
        )
        return out.stdout

    return run

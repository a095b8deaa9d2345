"""The package's public names, and which modules importing it loads."""
from __future__ import annotations

import importlib

import pytest

import parisian_impulse as pi

# The public API by defining module, frozen: a name added to or dropped from
# ``__all__`` must be added or dropped here too.
EXPORTS = {
    "errors": ("ConfigError", "DomainError", "InvalidRefractionError", "NumericalError",
               "OverflowRangeError", "QuadratureFailureError", "SeriesConvergenceError",
               "SolverFailureError", "UndefinedDerivativeError"),
    "models": ("BrownianMotion", "CoefficientSet", "CramerLundberg", "ExponentialPair",
               "ImpulsePolicy", "Model", "ProblemSpec", "compute_coefficients",
               "drift_adjusted", "laplace_exponent", "right_inverse"),
    "optimizer": ("OptimalPolicyResult", "SufficiencyReport", "TransferReport",
                  "check_sufficiency_pair", "check_transfer_inequality", "find_optimal_policy",
                  "payout_ratio", "value_function"),
    "parisian": ("ParisianScale", "parisian_scale"),
    "quadrature": ("CompoundPoissonWindow", "generator_residual"),
    "scale": ("ScaleFunction", "refracted_pair", "refracted_scale"),
    "simulate": ("MonteCarloEstimate", "SimulationConfig", "estimate_exit_functional",
                 "estimate_policy_npv"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_is_the_frozen_list():
    assert len(NAMES) == len(set(NAMES)) == 39
    assert sorted(pi.__all__) == sorted(NAMES + ["__version__"])
    assert set(pi.__all__) <= set(dir(pi))


@pytest.mark.parametrize("module", EXPORTS)
def test_each_export_is_the_object_of_its_module(module):
    source = importlib.import_module(f"parisian_impulse.{module}")
    for name in EXPORTS[module]:
        assert getattr(pi, name) is getattr(source, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from parisian_impulse import *", namespace)
    assert set(NAMES + ["__version__"]) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pi.no_such_name  # noqa: B018


def test_import_loads_errors_and_models_only(bounded_python):
    # the lazy exports load their module on first access, and only then
    code = """
import parisian_impulse as pi
def loaded():
    return " ".join(sorted(m for m in sys.modules if m.startswith("parisian_impulse.")))
print(loaded())
pi.estimate_exit_functional
print(loaded())
"""
    first, second = bounded_python(code).splitlines()
    assert first == "parisian_impulse.errors parisian_impulse.models"
    assert second == first + " parisian_impulse.simulate"

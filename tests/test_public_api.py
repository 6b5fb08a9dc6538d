"""The package's public name lists agree with its modules."""

import pytest

import qillum
from qillum import bounds, errors, fockspace, receivers, scenario

MODULES = [errors, scenario, fockspace, bounds, receivers]

PUBLIC = [
    "__version__",
    "QIError", "DomainError", "ParseError", "TruncationError",
    "ScenarioParams", "ReceiverConfig", "ThresholdPolicy", "CountModel",
    "parse_config", "parse_value", "render_config",
    "TruncationSpec", "JointState", "thermal_cutoff", "build_rho0", "build_rho1",
    "thermal_state", "build_displaced_thermal",
    "ExponentReport", "BoundTriple", "gaussian_chernoff", "q_s", "qcb",
    "error_prob_bounds", "asymptotic_exponents",
    "HelstromResult", "half_erfc_sqrt", "homodyne_error", "opa_output_means",
    "opa_error_exact", "opa_error_gaussian", "optimize_gain", "opa_bhattacharyya",
    "helstrom_single_shot", "majority_vote_error", "resolve_gain",
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_are_package_exports(module):
    assert sorted(set(module.__all__) - set(qillum.__all__)) == []


def test_package_exports_resolve():
    assert [name for name in qillum.__all__ if not hasattr(qillum, name)] == []


def test_package_exports_in_order():
    assert qillum.__all__ == PUBLIC


def test_each_export_is_defined_in_one_listing_module():
    for name in qillum.__all__[1:]:
        owners = [m for m in MODULES if name in m.__all__]
        assert [m.__name__ for m in owners] == [getattr(qillum, name).__module__], name
        assert getattr(qillum, name) is getattr(owners[0], name), name


def test_chernoff_exports():
    """The closed-form Chernoff search is public; the Fock overlap pair is a test oracle."""
    assert "gaussian_chernoff" in bounds.__all__ and "gaussian_chernoff" in qillum.__all__
    assert "overlaps" not in qillum.__all__ and not hasattr(bounds, "overlaps")

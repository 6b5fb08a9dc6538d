"""The package's public name lists agree with its modules."""

import pytest

import qillum
from qillum import bounds, fockspace, receivers


@pytest.mark.parametrize("module", [bounds, fockspace, receivers], ids=lambda m: m.__name__)
def test_module_exports_are_package_exports(module):
    assert sorted(set(module.__all__) - set(qillum.__all__)) == []


def test_package_exports_resolve():
    assert [name for name in qillum.__all__ if not hasattr(qillum, name)] == []


def test_chernoff_exports():
    """The closed-form Chernoff search is public; the Fock overlap pair is a test oracle."""
    assert "gaussian_chernoff" in bounds.__all__ and "gaussian_chernoff" in qillum.__all__
    assert "overlaps" not in qillum.__all__ and not hasattr(bounds, "overlaps")

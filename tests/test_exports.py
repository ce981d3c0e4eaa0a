"""Every name a public ``__all__`` lists must resolve on its module."""

import importlib
import pkgutil

import pytest

import qrds

MODULES = ("qrds",) + tuple(
    f"qrds.{info.name}" for info in pkgutil.iter_modules(qrds.__path__)
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ lists undefined names"

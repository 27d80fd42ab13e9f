"""Each clocklab module's ``__all__`` matches its public definitions."""

import importlib
import inspect
import pkgutil

import pytest

import clocklab

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(clocklab.__path__, "clocklab.")
)


def test_modules_found():
    assert "clocklab.simulator" in MODULES and "clocklab.network" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = [
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    unlisted = sorted(set(defined) - set(exported))
    assert not unlisted, f"{name} defines public {unlisted} missing from __all__"

import importlib
import pkgutil

import pytest

import ldphist

MODULES = sorted(m.name for m in pkgutil.iter_modules(ldphist.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ldphist.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

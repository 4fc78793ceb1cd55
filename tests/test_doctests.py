import doctest
import importlib
import pkgutil

import pytest

import orbinov

MODULES = sorted(m.name for m in pkgutil.iter_modules(orbinov.__path__, "orbinov."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    mod = importlib.import_module(name)
    result = doctest.testmod(mod)
    assert result.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a name left in __all__ after its definition is gone breaks
    # "from module import *" only when someone tries it
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []

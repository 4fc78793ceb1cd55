import ast
import doctest
import importlib
import pathlib
import pkgutil
import sys

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


def test_package_has_no_asserts():
    # python -O strips assert statements, so a check written as one
    # guards nothing there; checks raise instead
    found = []
    for path in sorted(pathlib.Path(orbinov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_is_stdlib_only_and_float_free():
    # the engine answers exactly from the standard library alone: no
    # third-party import, no float literal and no use of the name float
    found = []
    for path in sorted(pathlib.Path(orbinov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            foreign = any(m.partition(".")[0] not in sys.stdlib_module_names
                          for m in modules)
            floating = (isinstance(node, ast.Constant)
                        and isinstance(node.value, float)
                        or isinstance(node, ast.Name) and node.id == "float")
            if foreign or floating:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []

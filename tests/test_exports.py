import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import darkport

MODULES = sorted(info.name for info in pkgutil.iter_modules(darkport.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # nothing imports with *, so a stale __all__ entry would pass unseen
    module = importlib.import_module(f"darkport.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(darkport.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"darkport.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(darkport, alias.name) is getattr(module, alias.name)

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import darkport
from darkport.config import SCHEMA

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


def test_readme_names_resolve():
    # a name deleted or renamed while README still mentions it fails here: a
    # `prefix.name` whose prefix is a darkport module, a package attribute or
    # a config section must name an attribute of it or a key of that section
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    scopes = {name: importlib.import_module(f"darkport.{name}") for name in MODULES}
    scopes["darkport"] = darkport
    checked, missing = 0, []
    for prefix, name in set(re.findall(r"`(?:darkport\.)?(\w+)\.(\w+)`", readme)):
        scope = scopes.get(prefix, getattr(darkport, prefix, None))
        if scope is not None or prefix in SCHEMA:
            checked += 1
            if not (hasattr(scope, name) or name in SCHEMA.get(prefix, {})):
                missing.append(f"{prefix}.{name}")
    assert checked >= 20
    assert missing == []

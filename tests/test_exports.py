"""Every public name the package declares resolves to an object; importing it loads no scipy.

No module imports a name it never reads, so a removal leaves no stale import behind.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import ofdmlink

MODULES = sorted(m.name for m in pkgutil.iter_modules(ofdmlink.__path__))


def _package_exports() -> list:
    """(module, name) of each ``from .module import name`` in ``__init__.py``."""
    tree = ast.parse(pathlib.Path(ofdmlink.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_public_names_resolve(module):
    if module == "__init__":
        for source, name in _package_exports():
            assert hasattr(ofdmlink, name), name
            assert name in importlib.import_module(f"ofdmlink.{source}").__all__, name
        return
    mod = importlib.import_module(f"ofdmlink.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def _unused_imports(source: str) -> list:
    """Names a module imports and never reads; an ``__all__`` entry counts as a read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == ["os", "pi"]
    assert _unused_imports("from math import pi\n__all__ = ['pi']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    # __init__ is exempt: importing a name there is how the package exports it
    source = pathlib.Path(ofdmlink.__file__).with_name(f"{module}.py").read_text()
    assert _unused_imports(source) == []


def test_import_loads_no_scipy():
    # a fresh interpreter, so that modules the test suite imported do not count
    src = str(pathlib.Path(ofdmlink.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, ofdmlink, ofdmlink.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout

"""Every public name the package declares resolves to an object; importing it loads no scipy."""

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

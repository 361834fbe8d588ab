"""Every public name the package declares resolves to an object; importing it loads no scipy.

No module imports a name it never reads, so a removal leaves no stale import behind, and
the package reads every name it exports, so it ships nothing that only the tests use,
every module-level function and class it defines and every method and property of its
classes, so no helper outlives its last caller, and every field of its dataclasses, so
no record carries a value nobody reads.  Those checks match a read by name, so every
attribute name that more than one class defines is listed by hand.  Only ``ScenarioConfig`` gives a setting a
default, so no lower layer can choose it differently.
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


def _exports(tree: ast.Module) -> list:
    """The names in a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


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
    return sorted(imported - read - set(_exports(tree)))


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == ["os", "pi"]
    assert _unused_imports("from math import pi\n__all__ = ['pi']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    # __init__ is exempt: importing a name there is how the package exports it
    source = pathlib.Path(ofdmlink.__file__).with_name(f"{module}.py").read_text()
    assert _unused_imports(source) == []


# exports that nothing in the package reads by design
ENTRY_POINTS = {"cli.main"}  # the console script


def _reads(trees) -> set:
    """Every name the modules read, by name or attribute.

    A definition, an import or an export list is not a read.
    """
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unread_exports(sources: dict) -> list:
    """``module.name`` of each ``__all__`` name that no module reads (``sources``: module -> text)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    return sorted(
        f"{module}.{name}" for module, tree in trees.items() for name in _exports(tree) if name not in read
    )


def _definitions(tree: ast.Module):
    """``(qualified name, name)`` of each module-level function and class, and of each method.

    A property is a method here; a dunder method is left out, since Python
    itself calls it.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from (
                (f"{node.name}.{item.name}", item.name) for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )


def _unread_definitions(sources: dict) -> list:
    """``module.name`` of each definition (:func:`_definitions`) that no module reads.

    Reads are matched by name, as for exports and fields, so a method counts
    as read when any attribute of that name is read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    return sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in read
    )


def test_unread_export_check_sees_one():
    sources = {
        "a": "__all__ = ['f', 'g', 'K']\nK = 1\ndef f(): return K\ndef g(): pass\n",
        "b": "from .a import f\n__all__ = ['h']\ndef h(x): return f(x.g)\n",
    }
    assert _unread_exports(sources) == ["b.h"]


def _package_sources() -> dict:
    root = pathlib.Path(ofdmlink.__file__).parent
    return {module: (root / f"{module}.py").read_text() for module in MODULES}


def test_package_reads_every_export():
    # an export that only the tests read belongs under tests/
    assert [name for name in _unread_exports(_package_sources()) if name not in ENTRY_POINTS] == []


def test_unread_definition_check_sees_one():
    sources = {
        "a": (
            "class K:\n    def __init__(self): pass\n    @property\n    def p(self): return 1\n"
            "    @property\n    def q(self): return 2\n    def m(self): return self.p\n"
            "    def _u(self): pass\n"
            "def f(): return K().m()\ndef _g(): pass\n"
        ),
        "b": "from .a import f\n__all__ = ['h']\ndef h(x): return x.f\n",
    }
    assert _unread_definitions(sources) == ["a.K._u", "a.K.q", "a._g", "b.h"]


def test_package_reads_every_definition():
    # a helper whose last caller went is dead code, exported or not
    assert [name for name in _unread_definitions(_package_sources()) if name not in ENTRY_POINTS] == []


def _callers(source: str, name: str) -> list:
    """The module-level function around each call of ``name`` in a module, once per call."""
    return sorted(
        function.name
        for function in ast.parse(source).body if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    )


def test_caller_check_sees_each():
    source = "def f(): g()\ndef h():\n    g()\n    g(f())\ndef k(): pass\n"
    assert _callers(source, "g") == ["f", "h", "h"]


def _linalg_solves(source: str) -> int:
    """Calls of ``np.linalg.solve`` (or ``solve`` imported from ``numpy.linalg``) in a module."""
    tree = ast.parse(source)
    imported = any(
        isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
        and any(alias.name == "solve" for alias in node.names)
        for node in ast.walk(tree)
    )
    return imported + sum(
        isinstance(node, ast.Attribute) and node.attr == "solve"
        and getattr(node.value, "attr", None) == "linalg"
        for node in ast.walk(tree)
    )


def test_linalg_solve_check_sees_each():
    assert _linalg_solves("import numpy as np\nx = np.linalg.solve(a, b)\n") == 1
    assert _linalg_solves("from numpy.linalg import solve, inv\n") == 1
    assert _linalg_solves("x = np.linalg.eigvalsh(a)\n") == 0


def test_detection_forms_no_mixing_matrix():
    # detection sums its normal equations from per-branch outer products (the
    # W-forming oracle lives in tests/pair_oracle.py), and every system the
    # receiver solves, the tracker's and detection's, goes through one guard
    # and one stack-last LDL^H: no second solver or guard, and no LAPACK solve
    sources = _package_sources()
    defined = {name for source in sources.values() for _, name in _definitions(ast.parse(source))}
    gone = {"_mixing_matrices", "_solve_small", "_solve_pairs", "well_conditioned", "condition_number"}
    assert not defined & gone
    assert "LDL_MAX" not in sources["equalization"]
    assert {module: _linalg_solves(source) for module, source in sources.items() if _linalg_solves(source)} == {}
    for module, source in sources.items():
        ldl, normal = _callers(source, "_ldl_solve"), _callers(source, "_solve_normal")
        assert ldl == (["_solve_normal"] if module == "equalization" else []), module
        assert normal == (["_track", "equalize_frame"] if module == "equalization" else []), module


# dataclass fields that nothing in the package reads by design, with their readers
FIELD_READERS = {
    "equalization.FrameDecisions.soft": "tests",
    "equalization.FrameDecisions.cpe_history": "tests, and the tracker anchor (test_tracker_anchor.py)",
    "equalization.FrameDecisions.flagged_symbols": "benchmarks/layertrace.py",
}


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
        for d in node.decorator_list
    )


def _fields_of(node):
    """The name ``X`` of a ``fields(X)`` call, else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields" and node.args:
        return getattr(node.args[0], "id", None)
    return None


def _unread_fields(sources: dict) -> list:
    """``module.Class.field`` of each dataclass field that no module reads.

    A field is read by attribute, or with every field of its class through
    ``fields(Class)`` or, in a method of the class, ``fields(self)``.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read, whole = set(), set()  # attribute names read; classes whose fields() are read
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                if any(_fields_of(inner) == "self" for inner in ast.walk(node)):
                    whole.add(node.name)
            elif _fields_of(node) is not None:
                whole.add(_fields_of(node))
    return sorted(
        f"{module}.{cls.name}.{item.target.id}"
        for module, tree in trees.items()
        for cls in tree.body
        if _is_dataclass(cls) and cls.name not in whole
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in read
    )


def test_unread_field_check_sees_one():
    sources = {
        "a": (
            "@dataclass(frozen=True)\nclass K:\n    x: int\n    y: int = 0\n"
            "@dataclass\nclass R:\n    z: int\n    def csv(self): return fields(self)\n"
            "@dataclass\nclass S:\n    w: int\n"
            "class T:\n    v: int\n"
        ),
        "b": "from .a import K, S\ndef f(k: K): k.y = k.x\ndef g(): return fields(S)\n",
    }
    assert _unread_fields(sources) == ["a.K.y"]


def test_package_reads_every_dataclass_field():
    # a field nothing reads is state that is built and carried for nobody; an
    # exemption whose field the package comes to read goes from the list
    assert _unread_fields(_package_sources()) == sorted(FIELD_READERS)


def _members(cls: ast.ClassDef) -> set:
    """The attribute names a class defines: its methods and properties, the names
    its body assigns and the ``self`` attributes its methods assign; no dunder."""
    names = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
            names.update(
                node.attr for node in ast.walk(item)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"
            )
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _shared_names(sources: dict) -> dict:
    """Each attribute name that more than one class defines -> the ``module.Class`` of each."""
    owners = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for name in _members(node):
                    owners.setdefault(name, []).append(f"{module}.{node.name}")
    return {name: sorted(classes) for name, classes in owners.items() if len(classes) > 1}


def test_shared_name_check_sees_one():
    sources = {
        "a": (
            "@dataclass\nclass K:\n    x: int\n    def __init__(self): self.y = 1\n"
            "    def f(self): pass\n"
        ),
        "b": (
            "class L:\n    x = 1\n    def __init__(self): pass\n    def g(self): self.y = 2\n"
            "class M:\n    @property\n    def f(self): return 1\n    def h(self): pass\n"
        ),
    }
    assert _shared_names(sources) == {"f": ["a.K", "b.M"], "x": ["a.K", "b.L"], "y": ["a.K", "b.L"]}


# Attribute names that more than one package class defines.  The read checks
# above match a read to a name, not to a class, so a read of one class's
# member counts for every member of that name.  Each member below was seen
# read in its own class's uses when it was listed (FrameDecisions'
# flagged_symbols by its FIELD_READERS reader); a name or class that joins
# this list needs the same check of its readers by hand.
SHARED_NAMES = {
    "beta_hz": ["harness.CampaignRow", "harness.ScenarioConfig"],
    "ce_method": ["harness.CampaignRow", "harness.ScenarioConfig"],
    "detector": ["equalization.EqualizerOptions", "harness.CampaignRow", "harness.ScenarioConfig"],
    "flagged": ["equalization.FrameDecisions", "harness._Tally"],
    "flagged_symbols": ["equalization.FrameDecisions", "harness.CampaignRow"],
    "frames_run": ["harness.CampaignRow", "harness._Tally"],
    "freq": ["channel.ChannelRealization", "harness.FrameDraws"],
    "k1": ["estimation.EstimatorState", "impairments.IqParams"],
    "l_taps": ["channel.ChannelRealization", "harness.ScenarioConfig"],
    "m_r": [
        "channel.ChannelRealization", "estimation.EstimatorState", "harness.CampaignRow",
        "harness.ScenarioConfig",
    ],
    "m_t": [
        "channel.ChannelRealization", "estimation.EstimatorState", "framing.PreambleSet",
        "harness.CampaignRow", "harness.ScenarioConfig",
    ],
    "master_seed": ["harness.ScenarioConfig", "numerics.RandomSource"],
    "n": ["framing.SubcarrierMap", "harness.ScenarioConfig"],
    "psi": ["estimation.EstimatorState", "harness.FrontEnd"],
    "snr_db": ["harness.CampaignRow", "harness.ScenarioConfig"],
    "tracking_variant": ["equalization.EqualizerOptions", "harness.ScenarioConfig"],
    "truth_bits": ["harness.FrameDraws", "harness.SimulatedFrames"],
}


def test_shared_names_are_listed():
    # a member whose name another class shares can lose its last reader unseen
    assert _shared_names(_package_sources()) == SHARED_NAMES


# parameter names under which the layers below take a ScenarioConfig setting
SETTING_ALIASES = {"n_fft": "n", "n_symbols": "symbols_per_frame"}


def _defaulted_settings(sources: dict) -> list:
    """``module.owner.name`` of each default given to a ``ScenarioConfig`` field's name outside it.

    The owner is a dataclass, for a field, or a function, for a parameter;
    a name in :data:`SETTING_ALIASES` counts as the setting it carries.
    ``ScenarioConfig`` chooses every setting, so a second default could
    disagree with it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    config = next(
        node for tree in trees.values() for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ScenarioConfig"
    )
    settings = {item.target.id for item in config.body if isinstance(item, ast.AnnAssign)}
    settings |= {alias for alias, setting in SETTING_ALIASES.items() if setting in settings}
    inside = set(map(id, ast.walk(config)))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if _is_dataclass(node):
                found += [
                    f"{module}.{node.name}.{item.target.id}" for item in node.body
                    if isinstance(item, ast.AnnAssign) and item.value is not None
                    and item.target.id in settings
                ]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                found += [f"{module}.{node.name}.{arg.arg}" for arg in defaulted if arg.arg in settings]
    return sorted(found)


def test_defaulted_setting_check_sees_one():
    sources = {
        "a": (
            "@dataclass(frozen=True)\nclass ScenarioConfig:\n    n: int = 64\n    seed: int = 1\n"
            "    def f(self, n=2): pass\n"
            "@dataclass\nclass F:\n    n: int = 64\n    m: int = 2\n    seed: int\n"
            "class G:\n    n: int = 64\n"
        ),
        "b": (
            "def f(x, seed=1, k=2): pass\ndef g(*, n=3, m=1): pass\ndef h(x, n): pass\n"
            "def draw_channel(m_t, m_r, n_fft=64): pass\n"
        ),
    }
    assert _defaulted_settings(sources) == ["a.F.n", "b.draw_channel.n_fft", "b.f.seed", "b.g.n"]


def test_only_scenario_config_defaults_settings():
    # a setting is chosen once, in ScenarioConfig; the layers below take it
    # from there and keep no default of their own
    assert _defaulted_settings(_package_sources()) == []


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

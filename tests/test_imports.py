"""No module of the package imports a name that it never uses, no private
helper of the package goes unread, no public name goes both unread and
undocumented, and the package namespace loads each submodule only when one
of its names is first used.

A module's names are read from its syntax tree: a name counts as used when
it appears as a name anywhere in the module (annotations included), or as a
string in the expression assigned to the module's ``__all__``. A
module-level private name (one leading underscore: a function, class or
constant) counts as read when some module of the package loads it, as a
name or an attribute, outside its own definition. A public name (one of
``openqnet.__all__``) counts as read the same way, or when README mentions
it as a word.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import openqnet

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "openqnet"
README = PACKAGE.parents[1] / "README.md"

# Imported for the side effect: numpy.random loads at set-up, not inside the
# first sampled check.
DELIBERATE = {("verification.py", "numpy.random")}


def unused_imports(path: pathlib.Path) -> list[str]:
    """The imports of one module whose bound name is never used in it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}  # bound name -> the import as written
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            # A literal list, or one derived from a table: its strings are the
            # names the module re-exports.
            strings = (n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
            used |= {value for value in strings if isinstance(value, str)}
    return sorted(
        written
        for name, written in bound.items()
        if name not in used and (path.name, written) not in DELIBERATE
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def unread_names(paths, public=frozenset(), docs: str = "") -> list[str]:
    """module:name of every module-level private name, and of every name in
    ``public``, that no module reads outside that name's own definition. A
    public name that ``docs`` mentions as a word counts as read."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            private = {name for name in names if name.startswith("_") and not name.startswith("__")}
            own = private | (set(names) & public)
            defined += [(name, f"{path.stem}:{name}") for name in sorted(own)]
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    loaded = inner.id
                elif isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Load):
                    loaded = inner.attr
                else:
                    continue
                if loaded not in own:  # a read inside its own definition does not count
                    read.add(loaded)
    read |= set(re.findall(r"\w+", docs)) & set(public)
    return sorted(where for name, where in defined if name not in read)


def test_every_private_name_is_read():
    assert unread_names(sorted(PACKAGE.glob("*.py"))) == []


def test_every_public_name_is_read_or_documented():
    # What only tests read is not surface: it goes, or README documents it.
    paths = sorted(PACKAGE.glob("*.py"))
    assert unread_names(paths, set(openqnet.__all__), README.read_text()) == []


def test_the_check_finds_an_unread_private_name(tmp_path):
    module, user = tmp_path / "module.py", tmp_path / "user.py"
    lines = [
        "_LIMIT = 3",
        "_SPARE = 4",
        "def _loop(n):",
        "    return _loop(n - 1) if n else 0",
        "def _used(x):",
        "    return x + _LIMIT",
        "class _Holder:",
        "    pass",
        "__all__ = []",
    ]
    module.write_text("\n".join(lines) + "\n")
    user.write_text("from . import module\nvalue = module._used(1) + isinstance(1, module._Holder)\n")
    assert unread_names([module, user]) == ["module:_SPARE", "module:_loop"]


def test_the_check_finds_an_unread_public_name(tmp_path):
    module, user = tmp_path / "module.py", tmp_path / "user.py"
    lines = [
        "LIMIT = 3",
        "def spare(n):",
        "    return spare(n - 1) if n else LIMIT",
        "def documented():",
        "    pass",
        "class Holder:",
        "    pass",
        "def internal():",
        "    pass",
    ]
    module.write_text("\n".join(lines) + "\n")
    user.write_text("from .module import Holder\nvalue = isinstance(1, Holder)\n")
    public = {"LIMIT", "spare", "documented", "Holder"}  # internal is not public
    assert unread_names([module, user], public, "Call `documented()`.") == ["module:spare"]
    assert unread_names([module, user], public) == ["module:documented", "module:spare"]


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    lines = ["import math", "import numpy as np", "from os import path, sep", "x = np.pi + len(sep)"]
    module.write_text("\n".join(lines) + "\n")
    assert unused_imports(module) == ["math", "path"]


def test_the_check_finds_an_unused_import_next_to_a_derived_all(tmp_path):
    # As in the package's __init__: one name re-exported through __all__,
    # which is derived from a table rather than written as a literal.
    module = tmp_path / "__init__.py"
    lines = [
        "import sys",
        "from .core import run, spare",
        "_TABLE = {'core': ('Engine',)}",
        "__all__ = sorted(['run', *_TABLE['core']])",
    ]
    module.write_text("\n".join(lines) + "\n")
    assert unused_imports(module) == ["spare", "sys"]


def loaded_after(statement: str) -> set[str]:
    """The package's modules, and numpy.random if loaded, in a fresh
    interpreter after ``statement``."""
    probe = (
        f"{statement}\nimport sys\n"
        "print(*(m for m in sys.modules if m.partition('.')[0] == 'openqnet' or m == 'numpy.random'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


def test_a_submodule_import_loads_only_what_that_submodule_imports():
    assert loaded_after("import openqnet.positivity") == {
        "openqnet",
        "openqnet.errors",
        "openqnet.amplitudes",
        "openqnet.states",
        "openqnet.propagator",
        "openqnet.positivity",
    }


def test_the_cli_loads_neither_the_oracles_nor_positivity():
    loaded = loaded_after("import openqnet.cli")
    assert "openqnet.cli" in loaded
    skipped = {"openqnet.oracle", "openqnet.positivity", "openqnet._choi", "openqnet.verification", "numpy.random"}
    assert loaded & skipped == set()


def test_every_public_name_is_its_home_modules_object():
    # __all__ is the table, each name listed once (_HOME would hide a repeat).
    listed = ["amplitudes", *(name for names in openqnet._EXPORTS.values() for name in names)]
    assert sorted(listed) == openqnet.__all__
    for name in openqnet.__all__:
        value = getattr(openqnet, name)
        assert value.__module__.startswith("openqnet."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    for name in openqnet._SUBMODULES:
        assert getattr(openqnet, name) is importlib.import_module(f"openqnet.{name}"), name
    assert set(dir(openqnet)) >= {*openqnet.__all__, *openqnet._SUBMODULES}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'openqnet' has no attribute 'no_such_name'"):
        openqnet.no_such_name
    assert not hasattr(openqnet, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from openqnet import *", namespace)
    assert {name: namespace[name] for name in openqnet.__all__} == {
        name: getattr(openqnet, name) for name in openqnet.__all__
    }


def test_amplitudes_stays_the_function_after_every_submodule_loads():
    # The function shadows its module's name (a known wart of the namespace).
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    probe = "\n".join([
        "import sys",
        *(f"import openqnet.{module}" for module in modules),
        "import openqnet",
        "[getattr(openqnet, name) for name in openqnet.__all__]",
        "assert openqnet.amplitudes is sys.modules['openqnet.amplitudes'].amplitudes",
        "assert callable(openqnet.amplitudes)",
    ])
    assert loaded_after(probe) >= {f"openqnet.{module}" for module in modules}

"""No module of the package imports a name that it never uses.

A module's names are read from its syntax tree: a name counts as used when
it appears as a name anywhere in the module (annotations included), or in
the module's ``__all__``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "openqnet"

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
            used |= set(ast.literal_eval(node.value))
    return sorted(
        written
        for name, written in bound.items()
        if name not in used and (path.name, written) not in DELIBERATE
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    lines = ["import math", "import numpy as np", "from os import path, sep", "x = np.pi + len(sep)"]
    module.write_text("\n".join(lines) + "\n")
    assert unused_imports(module) == ["math", "path"]

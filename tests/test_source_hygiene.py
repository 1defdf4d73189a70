"""Source hygiene of src/convsense, read with ``ast``: every import is
used (the package ``__init__`` re-exports, so it is exempt), and every
private top-level name is referenced somewhere in the package."""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "convsense"
_MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(_SRC.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set:
    """Bare names a module reads; the root of every attribute chain is
    one."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported(tree: ast.AST):
    """(line, bound name) of each import, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _private_top_level(tree: ast.Module):
    """(line, name) of each top-level def, class or assignment whose name
    starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


@pytest.mark.parametrize("module", sorted(set(_MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = _MODULES[module]
    used = _loaded_names(tree)
    unused = [f"{module}:{line} {name}" for line, name in _imported(tree)
              if name not in used]
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    # read as a bare name, as an attribute (``harness._csv``) or
    # imported by name into another module
    referenced = set()
    for tree in _MODULES.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    dead = [f"{module}:{line} {name}"
            for module, tree in _MODULES.items()
            for line, name in _private_top_level(tree)
            if name not in referenced]
    assert dead == []

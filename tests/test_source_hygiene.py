"""Source hygiene of src/convsense, read with ``ast``: every import is
used (the package ``__init__`` re-exports, so it is exempt), every
private top-level name is referenced somewhere in the package, and every
public one outside its own definition, in the package, demos/ or
perfbench/."""

import ast
import pathlib
import re

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "convsense"
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


def _referenced(tree: ast.AST) -> set:
    """Names a tree reads: as a bare name, as an attribute
    (``harness._csv``) or imported by name."""
    names = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _top_level(tree: ast.Module):
    """(line, name, node) of each name a top-level def, class or
    assignment binds."""
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
            yield node.lineno, name, node


@pytest.mark.parametrize("module", sorted(set(_MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = _MODULES[module]
    used = _loaded_names(tree)
    unused = [f"{module}:{line} {name}" for line, name in _imported(tree)
              if name not in used]
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    referenced = set().union(*map(_referenced, _MODULES.values()))
    dead = [f"{module}:{line} {name}"
            for module, tree in _MODULES.items()
            for line, name, _ in _top_level(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in referenced]
    assert dead == []


def test_every_public_top_level_name_is_referenced():
    # by another top-level statement of the package (the re-exports of
    # __init__ aside), or by demos/ or perfbench/, whose string literals
    # count too: the tracer looks names up by string
    public = {module: tree for module, tree in _MODULES.items()
              if module != "__init__.py"}
    users = [(node, _referenced(node)) for tree in public.values()
             for node in tree.body]
    for path in sorted(_ROOT.glob("demos/*.py")) + \
            sorted(_ROOT.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        words = {word for node in ast.walk(tree)
                 if path.parent.name == "perfbench"
                 and isinstance(node, ast.Constant)
                 and isinstance(node.value, str)
                 for word in re.findall(r"\w+", node.value)}
        users.append((tree, _referenced(tree) | words))
    dead = [f"{module}:{line} {name}"
            for module, tree in public.items()
            for line, name, node in _top_level(tree)
            if not name.startswith("_")
            and not any(name in names for user, names in users
                        if user is not node)]
    assert dead == []

"""Source hygiene of src/convsense, read with ``ast``: every import is
used (a name the package ``__init__`` re-exports is used when README's
code blocks, demos/ or perfbench/ import it from the package), every
private top-level name is referenced somewhere in the package, and every
public top-level name and public class member outside its own
definition, in the package, demos/ or perfbench/."""

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


def test_cli_imports_no_private_harness_name_but_grid_reason():
    # the CLI parses, calls the harness and prints; _grid_reason stays
    # so that a grid error can name its flag
    private = {alias.name for node in ast.walk(_MODULES["cli.py"])
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "harness"
               for alias in node.names if alias.name.startswith("_")}
    assert private <= {"_grid_reason"}


def test_cli_restates_no_experiment_decision():
    # the baseline's family and sampling, the OFDM set-up and the audits'
    # defaults each live once, in the library; a subcommand's own flag
    # defaults live once, in its parser
    text = (_SRC / "cli.py").read_text()
    for word in ('"random_phase"', '"equispaced"', "real_taps",
                 "10.0, 20.0, 30.0", "4096", "or 100", "or 50",
                 'or "golay"', 'or "fzc"'):
        assert word not in text


def _package_imports() -> set:
    """Names README's python code blocks, demos/ and perfbench/ import
    from the package itself, ``from convsense import ...``."""
    sources = re.findall(r"```python\n(.*?)```",
                         (_ROOT / "README.md").read_text(), re.S)
    sources += [path.read_text() for path in sorted(_ROOT.glob("demos/*.py"))
                + sorted(_ROOT.glob("perfbench/*.py"))]
    return {alias.name for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "convsense"
            for alias in node.names}


@pytest.mark.parametrize("module", sorted(_MODULES))
def test_every_import_is_used(module):
    # the package __init__ re-exports only what a user-facing script
    # imports from it; every other name is reached through its module
    tree = _MODULES[module]
    used = _loaded_names(tree)
    if module == "__init__.py":
        used |= _package_imports()
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


# the package modules a public name may be used from: the re-exports of
# __init__ do not count
_PUBLIC = {module: tree for module, tree in _MODULES.items()
           if module != "__init__.py"}


def _script(path: pathlib.Path):
    """(tree, names it references) of a demos/ or perfbench/ script;
    perfbench's string literals count too: the tracer looks names up by
    string."""
    tree = ast.parse(path.read_text(), filename=str(path))
    words = {word for node in ast.walk(tree)
             if path.parent.name == "perfbench"
             and isinstance(node, ast.Constant)
             and isinstance(node.value, str)
             for word in re.findall(r"\w+", node.value)}
    return tree, _referenced(tree) | words


_SCRIPTS = [_script(path) for path in sorted(_ROOT.glob("demos/*.py"))
            + sorted(_ROOT.glob("perfbench/*.py"))]


def _unreferenced(defined, units):
    """"module:line name" for each public (module, line, name, node) in
    ``defined`` that no (unit, names) but its own node references."""
    return [f"{module}:{line} {name}" for module, line, name, node in defined
            if not name.startswith("_")
            and not any(name in names for unit, names in units
                        if unit is not node)]


def _class_members(tree: ast.Module):
    """(line, name, node) of each method, property, classmethod and
    class-level alias a top-level class defines; dataclass fields are
    annotations, not members here."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield node.lineno, node.name, node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield node.lineno, target.id, node


def test_every_public_top_level_name_is_referenced():
    # by another top-level statement of the package or by a script
    units = [(node, _referenced(node)) for tree in _PUBLIC.values()
             for node in tree.body]
    defined = [(module, line, name, node) for module, tree in _PUBLIC.items()
               for line, name, node in _top_level(tree)]
    assert _unreferenced(defined, units + _SCRIPTS) == []


def test_every_public_class_member_is_referenced():
    # by another top-level statement of the package, another statement
    # of its class's body, or a script
    units = [(node, _referenced(node)) for tree in _PUBLIC.values()
             for top in tree.body
             for node in (top.body if isinstance(top, ast.ClassDef)
                          else [top])]
    defined = [(module, line, name, node) for module, tree in _PUBLIC.items()
               for line, name, node in _class_members(tree)]
    assert _unreferenced(defined, units + _SCRIPTS) == []

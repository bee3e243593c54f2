"""The package holds only code that a command or the benchmark runs.

Every top-level function and class in src/vosa, and every method that
is not a dunder, must be named (as a name or an attribute) somewhere in
src/vosa or perfbench; a method that overrides a base-class method
counts as used.  Checks that only tests call live in tests/oracles.py.
Every module-level import must be named in the module that makes it,
and every module-level assigned name must be read somewhere in src/vosa
or perfbench, so a constant that lost its last reader goes too.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "vosa").glob("*.py"))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _named(load_only=False) -> set:
    """Every name and attribute in src/vosa and perfbench; with
    load_only, only the names that are read, not those assigned."""
    used = set()
    for path in PACKAGE + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not (
                    load_only and isinstance(node.ctx, ast.Store)):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_definition_is_used_outside_tests():
    used = _named()
    unused = []
    for path in PACKAGE:
        module = importlib.import_module(f"vosa.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCS + (ast.ClassDef,)) \
                    and node.name not in used:
                unused.append(node.name)
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                unused += [f"{node.name}.{f.name}" for f in node.body
                           if isinstance(f, FUNCS) and f.name not in used
                           and not f.name.startswith("__")
                           and not any(hasattr(b, f.name) for b in bases)]
    assert unused == []


def test_every_import_is_named_by_its_module():
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}: {bound}" for alias in node.names
                           if (bound := (alias.asname
                                         or alias.name.split(".")[0]))
                           not in named]
    assert unused == []


def test_every_module_level_assignment_is_read():
    read = _named(load_only=True)
    unread = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            unread += [f"{path.stem}: {n.id}" for t in targets
                       for n in ast.walk(t)
                       if isinstance(n, ast.Name) and n.id not in read]
    assert unread == []

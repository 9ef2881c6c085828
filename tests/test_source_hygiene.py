"""Source hygiene: every import in `src/cit` is used, and every private
module-level name is used in `src/cit` besides its definition."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cit").glob("*.py"))


def _defined(node) -> list:
    """The names a statement defines, when it is a def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_unused_import_or_private_name():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = {module: set() for module in trees}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                used[module].add(node.attr)
            elif "__all__" in _defined(node):  # `__init__` imports to re-export
                used[module].update(ast.literal_eval(node.value))
    anywhere = set().union(*used.values())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
                unused += [f"{module}: import {name}" for name, b in bound if b not in used[module]]
        private = [n for node in tree.body for n in _defined(node) if n.startswith("_")]
        unused += [f"{module}: {n}" for n in private if not n.endswith("__") and n not in anywhere]
    assert SOURCES
    assert unused == []

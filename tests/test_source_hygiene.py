"""Source hygiene: every import in `src/cit` is used, every private
module-level name is used in `src/cit` besides its definition, no
function rebinds a module global, and starting the CLI loads neither
`numpy.random` nor the process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "cit").glob("*.py"))


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


def test_no_global_statement():
    # a run's output depends on its inputs and seeds, not on what ran
    # earlier in the process
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert SOURCES
    assert found == []


def test_cli_start_loads_no_rng_or_process_pool():
    # `numpy.random` (~17 ms) is imported on first draw, and the process
    # pool (multiprocessing, socket, subprocess) only by `--workers > 1`
    code = ("import sys, cit.cli; cit.cli._build_parser(); "
            "print(*sorted({'numpy.random', 'concurrent.futures.process'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "\n"

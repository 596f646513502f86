"""``dataio._fork_map`` is the only code in the package that refers to
``multiprocessing``, ``concurrent.futures`` or ``os.fork``, so one rule
decides where every recording job runs and one path brings its results and
faults back."""

import ast
from pathlib import Path

import imulab

POOL = ("dataio", "_fork_map")
_REFERENCES = ("multiprocessing", "concurrent.futures", "os.fork")


def _names(node: ast.AST) -> list[str]:
    """The dotted names that ``node`` imports or refers to."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, (ast.Name, ast.Attribute)):
        return [ast.unparse(node)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]  # importlib.import_module("multiprocessing")
    return []


def pool_references(source: str) -> list[tuple[str, int]]:
    """(qualified function name, line) of each line of ``source`` that refers
    to one of ``_REFERENCES`` or to a name inside it."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if any(name == ref or name.startswith(ref + ".")
                   for name in _names(child) for ref in _REFERENCES):
                found.add((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found, key=lambda ref: ref[1])


def test_only_fork_map_refers_to_process_pools():
    package = Path(imulab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for scope, line in pool_references(path.read_text(encoding="utf-8")):
            if (path.stem, scope) != POOL:
                offenders.append(f"{path.name}:{line} in {scope}")
    assert offenders == []
    pool = pool_references((package / f"{POOL[0]}.py").read_text(encoding="utf-8"))
    assert {scope for scope, _ in pool} == {POOL[1]}


def test_guard_finds_each_kind_of_reference():
    source = "\n".join([
        "import multiprocessing",
        "def f():",
        "    import multiprocessing.pool",
        "    from multiprocessing import Pool",
        "    import concurrent.futures",
        "    from concurrent import futures",
        "    from os import fork",
        "    os.fork()",
        "    ctx = multiprocessing.get_context('fork')",
        "    importlib.import_module('concurrent.futures')",
        "    import concurrent, os, threading",
        "    os.forkpty()",
        "    os.getpid()",
        "class C:",
        "    def g(self):",
        "        return concurrent.futures.ProcessPoolExecutor",
    ])
    assert pool_references(source) == [
        ("<module>", 1), ("f", 3), ("f", 4), ("f", 5), ("f", 6), ("f", 7), ("f", 8),
        ("f", 9), ("f", 10), ("C.g", 16),
    ]

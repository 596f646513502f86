"""``dataio.write_report`` is the only code in the package that writes,
creates, renames or removes a file, so every output is written one way:
complete, through a temporary file renamed into place. In ``cli`` only
``main`` runs a stage's writes, once the stage has computed them all."""

import ast
from pathlib import Path

import imulab

WRITER = ("dataio", "write_report")
_PATH_WRITES = {"write_text", "write_bytes", "mkdir", "unlink"}
_WRITE_MODES = set("wax+")


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in _PATH_WRITES or ast.unparse(func) == "os.replace":
            return True
        if func.attr != "open":
            return False
        mode_at = 0  # path.open(mode)
    elif isinstance(func, ast.Name) and func.id == "open":
        mode_at = 1  # open(file, mode)
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > mode_at:
        mode = call.args[mode_at]
    if mode is None:
        return False  # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode that is not a literal may write
    return bool(_WRITE_MODES & set(mode.value))


def _calls(source: str, match) -> list[tuple[str, int]]:
    """(qualified function name, line) of each call in ``source`` that ``match``es."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def file_writes(source: str) -> list[tuple[str, int]]:
    """(qualified function name, line) of each call in ``source`` that writes a file."""
    return _calls(source, _writes)


# The writers that ``cli`` imports from ``dataio``.
CLI_WRITERS = {"write_report", "write_array", "write_recording_stats"}


def writer_calls(source: str) -> list[tuple[str, int]]:
    """(qualified function name, line) of each call of a ``CLI_WRITERS`` name
    in ``source``. Passing a writer to ``partial`` is not a call of it."""
    def calls_writer(call: ast.Call) -> bool:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in CLI_WRITERS

    return _calls(source, calls_writer)


def test_only_write_report_writes_files():
    package = Path(imulab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for scope, line in file_writes(path.read_text(encoding="utf-8")):
            if (path.stem, scope) != WRITER:
                offenders.append(f"{path.name}:{line} in {scope}")
    assert offenders == []
    writer = file_writes((package / f"{WRITER[0]}.py").read_text(encoding="utf-8"))
    assert {scope for scope, _ in writer} == {WRITER[1]}


def test_guard_finds_each_kind_of_write():
    source = "\n".join([
        "import os",
        "def f(p, q, m):",
        "    p.write_text('x')",
        "    p.write_bytes(b'x')",
        "    p.mkdir()",
        "    p.unlink()",
        "    os.replace(p, q)",
        "    open(p, 'w')",
        "    open(p, mode='ab')",
        "    p.open('r+')",
        "    open(p, m)",
        "    open(p)",
        "    open(p, 'rb')",
        "    p.open()",
        "    'a'.replace('a', 'b')",
        "class C:",
        "    def g(self, p):",
        "        p.write_text('x')",
        "open('log', 'x')",
    ])
    assert file_writes(source) == [
        ("f", 3), ("f", 4), ("f", 5), ("f", 6), ("f", 7), ("f", 8), ("f", 9), ("f", 10),
        ("f", 11), ("C.g", 18), ("<module>", 19),
    ]


def test_only_main_runs_the_writes_in_cli():
    source = (Path(imulab.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert {scope for scope, _ in writer_calls(source)} <= {"main"}
    named = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    assert CLI_WRITERS <= named  # the stages do hand each writer to main


def test_writer_guard_finds_calls_not_partials():
    source = "\n".join([
        "def cmd(p):",
        "    write_report({}, 'json', p)",
        "    w = partial(write_report, {}, 'json', p)",
        "    dataio.write_array(a, p, g)",
        "    w()",
        "def main(p):",
        "    write_recording_stats(p, k, s)",
    ])
    assert writer_calls(source) == [("cmd", 2), ("cmd", 4), ("main", 7)]

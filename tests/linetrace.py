"""Line coverage of src/sill under the test suite, with the standard
library alone: a pytest plugin that runs a ``sys.settrace`` line tracer.

    PYTHONPATH=src:tests python -m pytest -q -p linetrace \\
        --linetrace-report FILE

After the run it appends to FILE (or prints, without the option) one
Markdown row per module of src/sill: its statements, how many the suite
did not execute, and their line numbers. A statement is the first line of
an ``ast.stmt`` that compiles to code, docstrings aside.

The tracer is installed before the initial conftests load, so before the
suite imports sill, and again before each test: a ``RecursionError``
inside the trace function, as the deep-input tests provoke, silently
unsets it. A statement such a test runs after the error is not seen (the
CLI's handler of a too-deep program reads as not run). A code object all
of whose statements have run is not traced again, so the suite's hot
loops run at close to full speed.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sill"


def _code_lines(code) -> set[int]:
    """The lines code and the code objects nested in it compile to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for c in code.co_consts:
        if hasattr(c, "co_lines"):
            lines |= _code_lines(c)
    return lines


def statements(path: pathlib.Path) -> set[int]:
    """The statement lines of the module at path."""
    src = path.read_text(encoding="utf-8")
    tree = ast.parse(src)
    docs = {id(body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and (body := node.body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)}
    stmts = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt) and id(node) not in docs}
    return stmts & _code_lines(compile(src, str(path), "exec"))


_FILES = {str(p): p for p in sorted(SRC.glob("*.py"))}
_lines: dict[str, set[int]] = {}  # per module, its statements
_hit: dict[str, set[int]] = {}  # per module, the lines run
_todo: dict[object, set[int]] = {}  # per code object, its lines not yet run


def _trace(frame, event, arg):
    code = frame.f_code
    hit = _hit.get(code.co_filename)
    if hit is None:
        return None
    todo = _todo.get(code)
    if todo is None:
        todo = _todo[code] = _lines[code.co_filename].intersection(
            line for _, _, line in code.co_lines())
    if not todo:
        return None

    def local(frame, event, arg):
        if event == "line":
            line = frame.f_lineno
            hit.add(line)
            todo.discard(line)
        return local

    return local


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    for f, p in _FILES.items():
        _lines[f], _hit[f] = statements(p), set()
    sys.settrace(_trace)


def pytest_addoption(parser):
    parser.addoption("--linetrace-report", default=None,
                     help="append the Markdown coverage table to this file")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sys.settrace(_trace)


def report() -> str:
    rows = ["| module | statements | not run | lines not run |",
            "|---|---|---|---|"]
    total = missed = 0
    for f, p in _FILES.items():
        miss = sorted(_lines[f] - _hit[f])
        total, missed = total + len(_lines[f]), missed + len(miss)
        rows.append(f"| `{p.name}` | {len(_lines[f])} | {len(miss)} | "
                    + ", ".join(map(str, miss)) + " |")
    rows.append(f"| all | {total} | {missed} | |")
    return "\n".join(rows) + "\n"


def pytest_sessionfinish(session):
    sys.settrace(None)
    out = session.config.getoption("--linetrace-report")
    text = "### Statements of src/sill the tests did not run\n\n" + report()
    if out is None:
        sys.stdout.write("\n" + text)
    else:
        with open(out, "a", encoding="utf-8") as f:
            f.write(text)

"""Mutation audit of the runtime's bookkeeping.

    python tests/mutate.py

The incremental runtime is fast because of the statements in
src/sill/runtime.py that decide what the next enumeration and the next
monitor pass read: the calls to ``mark_providers``, ``dirty.add`` and
``dirty.update``, the drops of the shared tail (``tail = None``, each its
own statement), the writes to ``rec.touched`` and ``rec.gamma``, the bumps
of the count of Γ overwrites and forwards (``epoch += 1``) and the writes
of a process's recheck stamp (``stamp = ...``, each its own statement). Each
one is replaced by ``pass``, one at a time, in a copy of the checkout
under a temporary directory, and tests/test_runtime.py and
tests/test_acceptance.py run against the copy with -x. A statement whose
mutant passes them both survives: it is either redundant, and goes with
a written argument, or a gap in the tests (DeMillo, Lipton & Sayward,
"Hints on Test Data Selection", IEEE Computer 1978).

Prints each statement with its verdict, then the survivors and a summary
line. Exits 0 when every statement is killed, 1 when any survives, and 2
when the unmutated copy fails its tests or a run ends neither passing
nor failing. Nothing is written under the repository. The file is not
named test_*.py, so pytest does not collect it; tests/test_runtime.py
tests the finder.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNTIME = pathlib.Path("src", "sill", "runtime.py")
TESTS = ("tests/test_runtime.py", "tests/test_acceptance.py")
# what those tests read: the package, the tests, the corpus, the bench's
# program generator and pytest's settings
COPIED = ("src/sill", "tests", "corpus", "bench", "pyproject.toml")
KINDS = ("mark_providers", "dirty", "tail", "touched", "gamma", "epoch",
         "stamp")
TIMEOUT = 1200  # seconds; a mutant that runs longer is killed


class Site(NamedTuple):
    kind: str
    where: str  # the enclosing function, as Class.method
    line: int
    col: int
    end_line: int
    end_col: int
    text: str


def _rec_field(e: ast.expr) -> str | None:
    """"touched" or "gamma" where e is rec.touched or rec.gamma."""
    if isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name) \
            and e.value.id == "rec" and e.attr in ("touched", "gamma"):
        return e.attr
    return None


def _kind(s: ast.stmt) -> str | None:
    """The kind of bookkeeping statement s is, if any."""
    if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call) \
            and isinstance(f := s.value.func, ast.Attribute):
        if f.attr == "mark_providers":
            return "mark_providers"
        if f.attr in ("add", "update") and isinstance(f.value, ast.Attribute) \
                and f.value.attr == "dirty":
            return "dirty"
        return _rec_field(f.value)
    if isinstance(s, ast.AugAssign):
        t = s.target
        if isinstance(t, ast.Attribute) and t.attr == "epoch":
            return "epoch"
        return _rec_field(t)
    if isinstance(s, ast.Assign):
        for t in s.targets:
            if isinstance(t, ast.Subscript) and _rec_field(t.value):
                return _rec_field(t.value)
        stamps = [e for t in s.targets for e in (t, *getattr(t, "elts", ()))
                  if isinstance(e, ast.Attribute) and e.attr == "stamp"]
        if stamps:
            if len(s.targets) > 1 or stamps[0] is not s.targets[0]:
                # pass in its place would also undo the other targets
                raise ValueError(f"line {s.lineno}: write a stamp as its "
                                 f"own statement")
            return "stamp"
        t = s.targets[0]
        if isinstance(t, ast.Attribute) and t.attr == "tail" \
                and isinstance(s.value, ast.Constant) \
                and s.value.value is None:
            return "tail"
        if any(isinstance(e, ast.Attribute) and e.attr == "tail"
               and isinstance(v, ast.Constant) and v.value is None
               for e, v in zip(getattr(t, "elts", ()),
                               getattr(s.value, "elts", ()))):
            # pass in its place would also undo the other targets
            raise ValueError(f"line {s.lineno}: write a tail drop as its "
                             f"own statement")
    return None


def find(source: str) -> list[Site]:
    """The bookkeeping statements of source, in order."""
    sites = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.stmt) and (k := _kind(child)):
                sites.append(Site(k, where, child.lineno, child.col_offset,
                                  child.end_lineno, child.end_col_offset,
                                  ast.get_source_segment(source, child)))
            walk(child, inner)
    walk(ast.parse(source), "")
    return sorted(sites, key=lambda s: (s.line, s.col))


def mutant(source: str, site: Site) -> str:
    """source with the statement at site replaced by pass."""
    lines = source.splitlines(keepends=True)
    head = lines[:site.line - 1] + [lines[site.line - 1][:site.col]]
    tail = [lines[site.end_line - 1][site.end_col:]] + lines[site.end_line:]
    return "".join(head + ["pass"] + tail)


def _run_tests(copy: pathlib.Path) -> tuple[int, float]:
    """pytest's exit code on TESTS in copy (1 where it timed out), and the
    seconds it took."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(copy / "src")}
    t = time.perf_counter()
    try:
        rc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *TESTS], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        rc = 1
    return rc, time.perf_counter() - t


def main() -> int:
    start = time.perf_counter()
    source = (ROOT / RUNTIME).read_text()
    sites = find(source)
    with tempfile.TemporaryDirectory(prefix="sill-mutate-") as tmp:
        copy = pathlib.Path(tmp)
        for rel in COPIED:
            src, dst = ROOT / rel, copy / rel
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", "out", ".hypothesis"))
            else:
                shutil.copy(src, dst)
        rc, secs = _run_tests(copy)
        print(f"unmutated copy: exit {rc} in {secs:.0f} s", flush=True)
        if rc != 0:
            return 2
        survivors, errors = [], []
        for s in sites:
            (copy / RUNTIME).write_text(mutant(source, s))
            rc, secs = _run_tests(copy)
            verdict = {0: "SURVIVED", 1: "killed"}.get(rc, f"error {rc}")
            print(f"{verdict:8} {RUNTIME.name}:{s.line} {s.where}: "
                  f"{s.text}  ({secs:.0f} s)", flush=True)
            if rc == 0:
                survivors.append(s)
            elif rc != 1:
                errors.append(s)
    for s in survivors:
        print(f"survivor: {RUNTIME.name}:{s.line} {s.where}: {s.text}")
    killed = len(sites) - len(survivors) - len(errors)
    print(f"{len(sites)} statements found, {killed} killed, "
          f"{len(survivors)} survived, {len(errors)} errors "
          f"in {time.perf_counter() - start:.0f} s")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

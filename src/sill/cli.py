"""Command line frontend.

Subcommands: ``check``, ``sub``, ``ssync``, ``esync``, ``meet``, ``run``,
``fmt``. Exit codes: 0 for success / a positive verdict, 1 for a negative
verdict, diagnostics (for a judgment, those of the file's type
environment), a monitor violation or a run that halts without progress, 2
for usage and syntax errors (unreadable files, unknown type names) and for
programs too deep to process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .types import (
    TOP, BOT, SHARED, SharedC, TypeDefEnv, modality, validate_env,
)
from .parser import parse_program, parse_type, ParseError, Program, SystemDecl
from .printer import format_program, format_type
from .subtype import is_subtype
from .synchro import is_ssync, is_esync, meet_types, SsyncPreconditionError
from .typecheck import check_program, check_header
from .runtime import run, RunStatus, ProgressError


def _load(path: str) -> Program:
    with open(path, encoding="utf-8") as f:
        return parse_program(f.read())


def _report(diags: list[str]) -> bool:
    """Print each diagnostic on its own line; whether there were none."""
    for d in diags:
        print(d, file=sys.stderr)
    return not diags


def _judgment(cmd: Callable[..., int]) -> Callable[..., int]:
    """cmd on the file's type environment once it is well formed: the
    judgments assume it is, and raise or unfold forever on a cycle of
    names."""
    def judged(args) -> int:
        env = _load(args.file).types
        return cmd(args, env) if _report(validate_env(env)) else 1
    return judged


def _checked(prog: Program, bodies: bool = True) -> Program | None:
    """The elaborated program, or None after printing its diagnostics.
    Without bodies only the header must check; the bodies are elaborated
    as far as they check and their diagnostics are ignored."""
    diags, prog2 = check_program(prog)
    if not bodies:
        diags = check_header(prog)
    return prog2 if _report(diags) else None


def cmd_check(args) -> int:
    if _checked(_load(args.file)) is None:
        return 1
    print("ok")
    return 0


def cmd_fmt(args) -> int:
    prog = _load(args.file)
    sys.stdout.write(format_program(prog))
    return 0


@_judgment
def cmd_sub(args, env: TypeDefEnv) -> int:
    a = parse_type(args.a, env)
    b = parse_type(args.b, env)
    ok = is_subtype(env, a, b)
    print("yes" if ok else "no")
    return 0 if ok else 1


@_judgment
def cmd_ssync(args, env: TypeDefEnv) -> int:
    a = parse_type(args.a, env)
    b = parse_type(args.b, env)
    if args.constraint == "top":
        d = TOP
    elif args.constraint == "bot":
        d = BOT
    else:
        c = parse_type(args.constraint, env)
        if modality(env, c) != SHARED:
            print(f"--constraint {format_type(c)}: not top, bot or a shared "
                  f"type", file=sys.stderr)
            return 2
        d = SharedC(c)
    try:
        ok = is_ssync(env, a, b, d)
    except SsyncPreconditionError:
        print("not a subtype pair", file=sys.stderr)
        return 2
    print("yes" if ok else "no")
    return 0 if ok else 1


@_judgment
def cmd_esync(args, env: TypeDefEnv) -> int:
    a = parse_type(args.a, env)
    ok = is_esync(env, a)
    print("yes" if ok else "no")
    return 0 if ok else 1


@_judgment
def cmd_meet(args, env: TypeDefEnv) -> int:
    a = parse_type(args.a, env)
    b = parse_type(args.b, env)
    t, env2 = meet_types(env, a, b)
    if t is None:
        print("none")
        return 1
    for d in env2.defs[len(env.defs):]:
        print(f"type {d.name} = {format_type(d.body)}")
    print(format_type(t))
    return 0


def cmd_run(args) -> int:
    prog = _load(args.file)
    if args.main is not None:
        # checked as the system block it replaces
        prog = Program(prog.types, prog.procs,
                       SystemDecl((), (args.main, ())))
    prog = _checked(prog, bodies=not args.no_static)
    if prog is None:
        return 1
    if prog.system is None:
        print("program has no system block", file=sys.stderr)
        return 2
    trace = None
    if args.trace:
        trace = open(args.trace, "w", encoding="utf-8")
    try:
        res = run(prog, seed=args.seed, max_steps=args.steps,
                  monitor=args.monitor, policy=args.policy, trace=trace)
    except ProgressError as e:
        # a well-typed configuration always steps or halts classified;
        # this one is an unchecked ill-typed program run unmonitored
        print(f"progress: {e}", file=sys.stderr)
        return 1
    finally:
        if trace is not None:
            trace.close()
    print(f"{res.status.value} after {res.steps} steps")
    if res.violation is not None:
        print(res.violation, file=sys.stderr)
    return 1 if res.status is RunStatus.MONITOR_VIOLATION else 0


def _count(s: str) -> int:
    """A step bound: a whole number, 0 or more."""
    if not s.isdecimal():
        raise argparse.ArgumentTypeError(f"expected 0 or more, got {s!r}")
    return int(s)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sill")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="typecheck a source file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fmt", help="canonical formatting")
    p.add_argument("file")
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("sub", help="decide a <= b")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_sub)

    p = sub.add_parser("ssync", help="decide the subsynchronizing judgment")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--constraint", default="top",
                   help="release obligation: top, bot, or a shared type")
    p.set_defaults(fn=cmd_ssync)

    p = sub.add_parser("esync", help="decide equi-synchronization")
    p.add_argument("file")
    p.add_argument("a")
    p.set_defaults(fn=cmd_esync)

    p = sub.add_parser("meet", help="greatest lower bound of two types")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_meet)

    p = sub.add_parser("run", help="execute the system block")
    p.add_argument("file")
    p.add_argument("--main", default=None,
                   help="run this process (no arguments) instead of the "
                        "manifest main")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_count, default=1000)
    p.add_argument("--monitor", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--policy", choices=("random", "fifo"), default="random")
    p.add_argument("--trace", default=None, help="JSONL trace output path")
    p.add_argument("--no-static", action="store_true",
                   help="skip the static check of the process bodies")
    p.set_defaults(fn=cmd_run)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"{args.file}: not UTF-8 text: {e.reason} at byte {e.start}",
              file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{args.file}: program too deep to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

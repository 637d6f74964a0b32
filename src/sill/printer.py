"""Canonical formatter. ``parse_program(format_program(p))`` reproduces
``p`` up to the modality annotations the parser recomputes, and formatting
is a fixed point of parse-then-format.

Elaborated term variants print in the same surface keywords as their
generic counterparts, so runtime snapshots remain valid source text.
"""

from __future__ import annotations

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, SessionType,
)
from .procast import (
    Fwd, FwdLL, FwdSS, FwdLS, Spawn, Close, Wait,
    SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
    Acquire, AcquireL, Accept, AcceptL, Release, ReleaseL, Detach, DetachL,
    SendVal, RecvVal, ProcessTerm, ProcDef,
)
from .parser import Program

# precedence levels: lolli 0, tensor 1, prefix 2, atom 3
_LOLLI, _TENSOR, _PREFIX, _ATOM = 0, 1, 2, 3


def _fmt(t: SessionType, level: int) -> str:
    match t:
        case One():
            s, mine = "1", _ATOM
        case Ref(name):
            s, mine = name, _ATOM
        case Tensor(p, c):
            s, mine = f"{_fmt(p, _PREFIX)} * {_fmt(c, _TENSOR)}", _TENSOR
        case Lolli(p, c):
            s, mine = f"{_fmt(p, _TENSOR)} -o {_fmt(c, _LOLLI)}", _LOLLI
        case IChoice(bs):
            inner = ", ".join(f"{l}: {_fmt(ty, _LOLLI)}" for l, ty in bs)
            s, mine = "+{" + inner + "}", _ATOM
        case EChoice(bs):
            inner = ", ".join(f"{l}: {_fmt(ty, _LOLLI)}" for l, ty in bs)
            s, mine = "&{" + inner + "}", _ATOM
        case UpSL(c):
            s, mine = f"up_s {_fmt(c, _PREFIX)}", _PREFIX
        case DownSL(c):
            s, mine = f"down_s {_fmt(c, _PREFIX)}", _PREFIX
        case UpLL(c):
            s, mine = f"up_l {_fmt(c, _PREFIX)}", _PREFIX
        case DownLL(c):
            s, mine = f"down_l {_fmt(c, _PREFIX)}", _PREFIX
        case ValIn(base, c):
            s, mine = f"?{base}. {_fmt(c, _PREFIX)}", _PREFIX
        case ValOut(base, c):
            s, mine = f"!{base}. {_fmt(c, _PREFIX)}", _PREFIX
        case _:
            raise AssertionError(f"unprintable type {t!r}")
    return f"({s})" if mine < level else s


def format_type(t: SessionType) -> str:
    return _fmt(t, _LOLLI)


def format_proc(p: ProcessTerm, indent: int = 0) -> str:
    """p in surface syntax, one action a line. Loops along the spine and
    recurses only into case arms."""
    pad = "    " * indent
    lines = []
    while True:
        match p:
            case Fwd(a, b) | FwdLL(a, b) | FwdSS(a, b) | FwdLS(a, b):
                lines.append(f"{pad}fwd {a} {b}")
                break
            case Close(a):
                lines.append(f"{pad}close {a}")
                break
            case CaseRecv(a, bs):
                joined = f"\n{pad}|\n".join(
                    f"{pad}  {l} =>\n{format_proc(t, indent + 1)}"
                    for l, t in bs)
                lines.append(f"{pad}case {a} {{\n{joined}\n{pad}}}")
                break
            case Wait(a, _):
                head = f"wait {a}"
            case SendChan(a, y, _) | SendChanS(a, y, _):
                head = f"send {a} {y}"
            case RecvChan(a, y, _):
                head = f"{y} <- recv {a}"
            case SendLabel(a, l, _):
                head = f"{a}.{l}"
            case Acquire(y, a, _) | AcquireL(y, a, _):
                head = f"{y} <- acquire {a}"
            case Accept(y, a, _) | AcceptL(y, a, _):
                head = f"{y} <- accept {a}"
            case Release(y, a, _) | ReleaseL(y, a, _):
                head = f"{y} <- release {a}"
            case Detach(y, a, _) | DetachL(y, a, _):
                head = f"{y} <- detach {a}"
            case SendVal(a, v, _):
                head = f"put {a} {v}"
            case RecvVal(a, y, _):
                head = f"{y} <- get {a}"
            case Spawn(proc, y, args, _, _):
                head = f"{y} <- spawn {proc}({', '.join(args)})"
            case _:
                raise AssertionError(f"unprintable term {p!r}")
        lines.append(f"{pad}{head};")
        p = p.cont
    return "\n".join(lines)


def format_procdef(d: ProcDef) -> str:
    params = ", ".join(
        ("sh " if prm.shared else "") + f"{prm.chan}: {format_type(prm.ty)}"
        for prm in d.params)
    head = (f"proc {d.name} : ({params}) |- "
            f"{d.offer}: {format_type(d.offer_ty)} =")
    return head + "\n" + format_proc(d.body, 1)


def format_program(p: Program) -> str:
    parts: list[str] = []
    for d in p.types.defs:
        parts.append(f"type {d.name} = {format_type(d.body)}")
    for d in p.procs.defs:
        parts.append(format_procdef(d))
    if p.system is not None:
        lines = ["system {"]
        for binder, proc, args in p.system.spawns:
            lines.append(f"    {binder} <- spawn {proc}({', '.join(args)});")
        mproc, margs = p.system.main
        lines.append(f"    main {mproc}({', '.join(margs)});")
        lines.append("}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"

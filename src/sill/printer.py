"""Canonical formatter. ``parse_program(format_program(p))`` reproduces
``p`` up to the modality annotations the parser recomputes, and formatting
is a fixed point of parse-then-format.

Every keyword and marker comes from the parser's ``SYNTAX`` table.
Elaborated term variants print as the generic actions ``GENERIC`` maps
them to, so runtime snapshots remain valid source text.
"""

from __future__ import annotations

from .types import (
    One, Tensor, Lolli, Ref, IChoice, EChoice, ValIn, ValOut, SessionType,
)
from .procast import (
    Spawn, SendLabel, CaseRecv, ProcessTerm, FIELDS, NAME, GENERIC,
)
from .parser import Program, SYNTAX

# precedence levels: lolli 0, tensor 1, prefix 2, atom 3
_LOLLI, _TENSOR, _PREFIX, _ATOM = 0, 1, 2, 3


def _form(cls: type) -> str:
    """The surface form of an action, as a format string over its fields."""
    bound = "{binder} <- " if "binder" in cls.__match_args__ else ""
    names = ["{%s}" % f for f, role in FIELDS[cls] if role is NAME]
    return bound + " ".join([SYNTAX[GENERIC.get(cls, cls)], *names])


# action constructor -> its surface form
_FORMS = {cls: _form(cls) for cls in FIELDS if GENERIC.get(cls, cls) in SYNTAX}


def _fmt(t: SessionType, level: int) -> str:
    cls = t.__class__
    if cls is One:
        s, mine = "1", _ATOM
    elif cls is Ref:
        s, mine = t.name, _ATOM
    elif cls is Tensor:
        s = f"{_fmt(t.payload, _PREFIX)} * {_fmt(t.cont, _TENSOR)}"
        mine = _TENSOR
    elif cls is Lolli:
        s = f"{_fmt(t.payload, _TENSOR)} -o {_fmt(t.cont, _LOLLI)}"
        mine = _LOLLI
    elif cls is IChoice or cls is EChoice:
        inner = ", ".join(f"{l}: {_fmt(ty, _LOLLI)}" for l, ty in t.branches)
        s, mine = SYNTAX[cls] + "{" + inner + "}", _ATOM
    elif cls is ValIn or cls is ValOut:
        s, mine = f"{SYNTAX[cls]}{t.base}. {_fmt(t.cont, _PREFIX)}", _PREFIX
    else:
        s, mine = f"{SYNTAX[cls]} {_fmt(t.cont, _PREFIX)}", _PREFIX
    return f"({s})" if mine < level else s


def format_type(t: SessionType) -> str:
    return _fmt(t, _LOLLI)


def format_proc(p: ProcessTerm, indent: int = 0) -> str:
    """p in surface syntax, one action a line. Loops along the spine and
    recurses only into case arms."""
    pad = "    " * indent
    lines = []
    while True:
        cls = p.__class__
        form = _FORMS.get(cls)
        if form is not None:
            head = form.format_map(vars(p))
            if not hasattr(p, "cont"):
                lines.append(pad + head)
                break
        elif cls is CaseRecv:
            joined = f"\n{pad}|\n".join(
                f"{pad}  {l} =>\n{format_proc(t, indent + 1)}"
                for l, t in p.branches)
            lines.append(f"{pad}case {p.on} {{\n{joined}\n{pad}}}")
            break
        elif cls is SendLabel:
            head = f"{p.on}.{p.label}"
        elif cls is Spawn:
            head = f"{p.binder} <- spawn {p.proc}({', '.join(p.args)})"
        else:
            raise AssertionError(f"unprintable term {p!r}")
        lines.append(f"{pad}{head};")
        p = p.cont
    return "\n".join(lines)


def format_program(p: Program) -> str:
    parts = [f"type {d.name} = {format_type(d.body)}" for d in p.types.defs]
    for d in p.procs.defs:
        params = ", ".join(("sh " if prm.shared else "")
                           + f"{prm.chan}: {format_type(prm.ty)}"
                           for prm in d.params)
        parts.append(f"proc {d.name} : ({params}) |- "
                     f"{d.offer}: {format_type(d.offer_ty)} =\n"
                     + format_proc(d.body, 1))
    if p.system is not None:
        lines = ["system {"]
        for binder, proc, args in p.system.spawns:
            lines.append(f"    {binder} <- spawn {proc}({', '.join(args)});")
        mproc, margs = p.system.main
        lines += [f"    main {mproc}({', '.join(margs)});", "}"]
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"

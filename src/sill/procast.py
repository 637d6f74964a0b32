"""Process-term AST and the global signature of process definitions.

The parser produces the generic synchronization forms (``Fwd``,
``SendChan``, ``Acquire``, ``Accept``, ``Release``, ``Detach``); the
typechecker elaborates them into the modality-resolved variants
(``FwdLL``/``FwdSS``/``FwdLS``, ``SendChanS``, ``AcquireL`` and friends)
that the runtime dispatches on. Both families live here so a term is a
plain immutable tree at every stage.

A constructor's binding rule is read off its field names, so a new one
must use them: ``offer``, ``used``, ``chan``, ``on``, ``payload`` and
``value`` hold a free name, ``args`` a tuple of free names, ``binder`` a
name bound over the continuation, ``cont`` and ``branches`` are the
continuations, and any other field holds no channel name. ``FIELDS``
records these roles for renaming and for the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, get_args

from .types import SessionType


# --------------------------------------------------------------------------- #
# Terms
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Fwd:
    """Unelaborated forward: identify the offered channel with another."""
    offer: str
    used: str


@dataclass(frozen=True)
class FwdLL:
    offer: str
    used: str


@dataclass(frozen=True)
class FwdSS:
    offer: str
    used: str


@dataclass(frozen=True)
class FwdLS:
    offer: str
    used: str


@dataclass(frozen=True)
class Spawn:
    """x <- spawn Name(args); cont. After elaboration, kinds tags each
    argument as "lin", "sl" (shared passed where a linear channel is
    expected) or "sh"."""
    proc: str
    binder: str
    args: tuple[str, ...]
    cont: "ProcessTerm"
    kinds: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Close:
    chan: str


@dataclass(frozen=True)
class Wait:
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class SendChan:
    """send on payload; cont (payload is a linear channel)."""
    on: str
    payload: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class SendChanS:
    """send on payload; cont (payload is a shared channel)."""
    on: str
    payload: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class RecvChan:
    on: str
    binder: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class SendLabel:
    on: str
    label: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class CaseRecv:
    on: str
    branches: tuple[tuple[str, "ProcessTerm"], ...]

    def branch(self, label: str) -> "ProcessTerm":
        for l, t in self.branches:
            if l == label:
                return t
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.branches)


@dataclass(frozen=True)
class Acquire:
    """binder <- acquire chan; cont. Generic until elaboration; the
    resolved shared form keeps this constructor."""
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class AcquireL:
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class Accept:
    """binder <- accept chan; cont (shared provider side)."""
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class AcceptL:
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class Release:
    """binder <- release chan; cont (the session returns to the shared
    layer; binder names the shared channel afterwards)."""
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class ReleaseL:
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class Detach:
    """binder <- detach chan; cont (provider side of a release)."""
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class DetachL:
    binder: str
    chan: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class SendVal:
    on: str
    value: str
    cont: "ProcessTerm"


@dataclass(frozen=True)
class RecvVal:
    on: str
    binder: str
    cont: "ProcessTerm"


ProcessTerm = (
    Fwd | FwdLL | FwdSS | FwdLS | Spawn | Close | Wait
    | SendChan | SendChanS | RecvChan | SendLabel | CaseRecv
    | Acquire | AcquireL | Accept | AcceptL
    | Release | ReleaseL | Detach | DetachL
    | SendVal | RecvVal
)
# elaborated variant -> the generic action it elaborates, which it checks
# and prints as
GENERIC = {FwdLL: Fwd, FwdSS: Fwd, FwdLS: Fwd, SendChanS: SendChan,
           AcquireL: Acquire, AcceptL: Accept, ReleaseL: Release,
           DetachL: Detach}


# --------------------------------------------------------------------------- #
# Signatures
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Param:
    chan: str
    ty: SessionType
    shared: bool


@dataclass(frozen=True)
class ProcDef:
    name: str
    offer: str
    offer_ty: SessionType
    offer_shared: bool
    params: tuple[Param, ...]
    body: ProcessTerm


@dataclass(frozen=True)
class ProcSignature:
    defs: tuple[ProcDef, ...] = ()

    @cached_property
    def _table(self) -> dict[str, ProcDef]:
        # the first definition wins; a duplicate is a typecheck diagnostic
        return {d.name: d for d in reversed(self.defs)}

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def lookup(self, name: str) -> ProcDef:
        try:
            return self._table[name]
        except KeyError:
            raise KeyError(f"undefined process: {name}") from None


# --------------------------------------------------------------------------- #
# Renaming
# --------------------------------------------------------------------------- #

NAME, NAMES, BINDER, CONT, BRANCHES = (
    "name", "names", "binder", "cont", "branches")
_ROLES = {**dict.fromkeys(("offer", "used", "chan", "on", "payload", "value"),
                          NAME),
          "args": NAMES, "binder": BINDER, "cont": CONT, "branches": BRANCHES}
# constructor -> ((field, role or None), ...) in field order
FIELDS = {cls: tuple((f.name, _ROLES.get(f.name)) for f in fields(cls))
          for cls in get_args(ProcessTerm)}
# action -> the field naming the channel it synchronizes on
SUBJECT = {cls: f for cls, roles in FIELDS.items() for f, _ in roles
           if f in ("on", "chan")}


def _rename(t: ProcessTerm, ren: dict[str, str],
            gen: Callable[[], str] | None) -> ProcessTerm:
    """Rename the free names of t by ren. With gen None a binder shadows
    (its name leaves ren below it); otherwise each binder gets gen(), in
    preorder. Recurses only into case branches, not along the spine."""
    spine = []
    while gen is not None or ren:
        vals, inner, k = [], ren, None
        for f, role in FIELDS[type(t)]:
            v = getattr(t, f)
            if role is NAME:
                v = ren.get(v, v)
            elif role is NAMES:
                v = tuple([ren.get(x, x) for x in v])
            elif role is BINDER:
                if gen is not None:
                    fresh = gen()
                    inner, v = {**ren, v: fresh}, fresh
                elif v in ren:
                    inner = {x: y for x, y in ren.items() if x != v}
            elif role is BRANCHES:
                v = tuple([(l, _rename(b, inner, gen)) for l, b in v])
            elif role is CONT:
                k = len(vals)
            vals.append(v)
        if k is None:
            t = type(t)(*vals)
            break
        spine.append((type(t), vals, k))
        t, ren = vals[k], inner
    for cls, vals, k in reversed(spine):
        vals[k] = t
        t = cls(*vals)
    return t


def substitute(p: ProcessTerm, renaming: dict[str, str]) -> ProcessTerm:
    """Simultaneous renaming of free channel and value names. Binders
    shadow: a renaming for a name rebound below does not cross it."""
    return _rename(p, renaming, None)


def freshen(p: ProcessTerm, gen: Callable[[], str],
            renaming: dict[str, str] | None = None) -> ProcessTerm:
    """Rename every binder to gen(), in preorder, and the free names by
    renaming, which maps no name gen() returns. Instantiating a body so,
    no actual channel name is captured by a binder spelt the same."""
    return _rename(p, renaming or {}, gen)

"""Process-term AST and the global signature of process definitions.

The parser produces the generic synchronization forms (``Fwd``,
``SendChan``, ``Acquire``, ``Accept``, ``Release``, ``Detach``); the
typechecker elaborates them into the modality-resolved variants
(``FwdLL``/``FwdSS``/``FwdLS``, ``SendChanS``, ``AcquireL`` and friends)
that the runtime dispatches on. Both families live here so a term is a
plain immutable tree at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __contains__(self, name: str) -> bool:
        return any(d.name == name for d in self.defs)

    def lookup(self, name: str) -> ProcDef:
        for d in self.defs:
            if d.name == name:
                return d
        raise KeyError(f"undefined process: {name}")

    def with_body(self, name: str, body: ProcessTerm) -> "ProcSignature":
        out = tuple(
            ProcDef(d.name, d.offer, d.offer_ty, d.offer_shared, d.params, body)
            if d.name == name else d
            for d in self.defs)
        return ProcSignature(out)


# --------------------------------------------------------------------------- #
# Substitution and alpha normalization
# --------------------------------------------------------------------------- #

def substitute(p: ProcessTerm, renaming: dict[str, str]) -> ProcessTerm:
    """Simultaneous renaming of free channel and value names. Binders
    shadow: a renaming for a name rebound below does not cross it."""
    if not renaming:
        return p

    def sub(n: str) -> str:
        return renaming.get(n, n)

    match p:
        case Fwd(a, b):
            return Fwd(sub(a), sub(b))
        case FwdLL(a, b):
            return FwdLL(sub(a), sub(b))
        case FwdSS(a, b):
            return FwdSS(sub(a), sub(b))
        case FwdLS(a, b):
            return FwdLS(sub(a), sub(b))
        case Close(a):
            return Close(sub(a))
        case Wait(a, c):
            return Wait(sub(a), substitute(c, renaming))
        case SendChan(a, y, c):
            return SendChan(sub(a), sub(y), substitute(c, renaming))
        case SendChanS(a, y, c):
            return SendChanS(sub(a), sub(y), substitute(c, renaming))
        case SendLabel(a, l, c):
            return SendLabel(sub(a), l, substitute(c, renaming))
        case CaseRecv(a, bs):
            return CaseRecv(sub(a), tuple(
                (l, substitute(t, renaming)) for l, t in bs))
        case SendVal(a, v, c):
            return SendVal(sub(a), sub(v), substitute(c, renaming))
        case Spawn(proc, binder, args, cont, kinds):
            inner = {k: v for k, v in renaming.items() if k != binder}
            return Spawn(proc, binder, tuple(sub(x) for x in args),
                         substitute(cont, inner), kinds)
        case RecvChan(a, binder, cont) | RecvVal(a, binder, cont) \
                | Acquire(binder, a, cont) | AcquireL(binder, a, cont) \
                | Accept(binder, a, cont) | AcceptL(binder, a, cont) \
                | Release(binder, a, cont) | ReleaseL(binder, a, cont) \
                | Detach(binder, a, cont) | DetachL(binder, a, cont):
            inner = {k: v for k, v in renaming.items() if k != binder}
            cont2 = substitute(cont, inner)
            cls = type(p)
            if cls in (RecvChan, RecvVal):
                return cls(sub(a), binder, cont2)
            return cls(binder, sub(a), cont2)
    raise AssertionError(f"unhandled term {p!r}")


def free_names(p: ProcessTerm) -> frozenset[str]:
    """Free channel/value names (the offered channel counts as free)."""
    match p:
        case Fwd(a, b) | FwdLL(a, b) | FwdSS(a, b) | FwdLS(a, b):
            return frozenset((a, b))
        case Close(a):
            return frozenset((a,))
        case Wait(a, c) | SendLabel(a, _, c):
            return free_names(c) | {a}
        case SendChan(a, y, c) | SendChanS(a, y, c) | SendVal(a, y, c):
            return free_names(c) | {a, y}
        case CaseRecv(a, bs):
            out = frozenset((a,))
            for _, t in bs:
                out |= free_names(t)
            return out
        case Spawn(_, binder, args, cont, _):
            return (free_names(cont) - {binder}) | frozenset(args)
        case RecvChan(a, binder, cont) | RecvVal(a, binder, cont) \
                | Acquire(binder, a, cont) | AcquireL(binder, a, cont) \
                | Accept(binder, a, cont) | AcceptL(binder, a, cont) \
                | Release(binder, a, cont) | ReleaseL(binder, a, cont) \
                | Detach(binder, a, cont) | DetachL(binder, a, cont):
            return (free_names(cont) - {binder}) | {a}
    raise AssertionError(f"unhandled term {p!r}")


def freshen(p: ProcessTerm, gen) -> ProcessTerm:
    """Rename every binder using the supplied name generator. Used when a
    definition body is instantiated, so no actual channel name can be
    captured by a binder that happens to spell the same."""

    def go(t: ProcessTerm, ren: dict[str, str]) -> ProcessTerm:
        def sub(n: str) -> str:
            return ren.get(n, n)

        match t:
            case Spawn(proc, binder, args, cont, kinds):
                fresh = gen()
                inner = dict(ren)
                inner[binder] = fresh
                return Spawn(proc, fresh, tuple(sub(x) for x in args),
                             go(cont, inner), kinds)
            case RecvChan(a, binder, cont) | RecvVal(a, binder, cont) \
                    | Acquire(binder, a, cont) | AcquireL(binder, a, cont) \
                    | Accept(binder, a, cont) | AcceptL(binder, a, cont) \
                    | Release(binder, a, cont) | ReleaseL(binder, a, cont) \
                    | Detach(binder, a, cont) | DetachL(binder, a, cont):
                fresh = gen()
                inner = dict(ren)
                inner[binder] = fresh
                cont2 = go(cont, inner)
                cls = type(t)
                if cls in (RecvChan, RecvVal):
                    return cls(sub(a), fresh, cont2)
                return cls(fresh, sub(a), cont2)
            case CaseRecv(a, bs):
                return CaseRecv(sub(a), tuple((l, go(b, ren)) for l, b in bs))
            case Wait(a, c):
                return Wait(sub(a), go(c, ren))
            case SendChan(a, y, c):
                return SendChan(sub(a), sub(y), go(c, ren))
            case SendChanS(a, y, c):
                return SendChanS(sub(a), sub(y), go(c, ren))
            case SendLabel(a, l, c):
                return SendLabel(sub(a), l, go(c, ren))
            case SendVal(a, v, c):
                return SendVal(sub(a), sub(v), go(c, ren))
            case _:
                return substitute(t, ren)

    return go(p, {})


def alpha_normalize(p: ProcessTerm) -> ProcessTerm:
    """Rename all binders to a canonical c0, c1, ... scheme, numbering by
    preorder position. Free names are untouched; idempotent."""
    counter = [0]

    def go(t: ProcessTerm, ren: dict[str, str]) -> ProcessTerm:
        def sub(n: str) -> str:
            return ren.get(n, n)

        match t:
            case Fwd(a, b):
                return Fwd(sub(a), sub(b))
            case FwdLL(a, b):
                return FwdLL(sub(a), sub(b))
            case FwdSS(a, b):
                return FwdSS(sub(a), sub(b))
            case FwdLS(a, b):
                return FwdLS(sub(a), sub(b))
            case Close(a):
                return Close(sub(a))
            case Wait(a, c):
                return Wait(sub(a), go(c, ren))
            case SendChan(a, y, c):
                return SendChan(sub(a), sub(y), go(c, ren))
            case SendChanS(a, y, c):
                return SendChanS(sub(a), sub(y), go(c, ren))
            case SendLabel(a, l, c):
                return SendLabel(sub(a), l, go(c, ren))
            case CaseRecv(a, bs):
                return CaseRecv(sub(a), tuple((l, go(b, ren)) for l, b in bs))
            case SendVal(a, v, c):
                return SendVal(sub(a), sub(v), go(c, ren))
            case Spawn(proc, binder, args, cont, kinds):
                fresh = f"c{counter[0]}"
                counter[0] += 1
                inner = dict(ren)
                inner[binder] = fresh
                return Spawn(proc, fresh, tuple(sub(x) for x in args),
                             go(cont, inner), kinds)
            case RecvChan(a, binder, cont) | RecvVal(a, binder, cont) \
                    | Acquire(binder, a, cont) | AcquireL(binder, a, cont) \
                    | Accept(binder, a, cont) | AcceptL(binder, a, cont) \
                    | Release(binder, a, cont) | ReleaseL(binder, a, cont) \
                    | Detach(binder, a, cont) | DetachL(binder, a, cont):
                fresh = f"c{counter[0]}"
                counter[0] += 1
                inner = dict(ren)
                inner[binder] = fresh
                cont2 = go(cont, inner)
                cls = type(t)
                if cls in (RecvChan, RecvVal):
                    return cls(sub(a), fresh, cont2)
                return cls(fresh, sub(a), cont2)
        raise AssertionError(f"unhandled term {t!r}")

    return go(p, {})

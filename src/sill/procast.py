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

from .types import SessionType, TypeDefEnv


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

    @cached_property
    def slots(self) -> tuple[int, frozenset[str]]:
        """The number of binders in the body, and the names free in it
        other than the offered channel and the parameters (none once the
        definition typechecks)."""
        n, free = scope(self.body)
        return n, free - {self.offer, *(p.chan for p in self.params)}


@dataclass(frozen=True)
class ProcSignature:
    defs: tuple[ProcDef, ...] = ()

    @cached_property
    def _table(self) -> dict[str, ProcDef]:
        # the first definition wins; a duplicate is a typecheck diagnostic
        return {d.name: d for d in reversed(self.defs)}

    @cached_property
    def free(self) -> dict[int, tuple[str, ...]]:
        """Every node of every body, by identity (the signature keeps the
        nodes alive), to the names free in the suffix from it."""
        return self._scopes[0]

    @cached_property
    def steps(self) -> dict[int, tuple | dict[str, tuple]]:
        """Every node of every body, by identity, to how its step moves a
        closure on: (continuation, binders skipped, binder or None, names
        dropped from a renaming: free in the node or its binder, not in the
        continuation, the name the continuation's action is on or None);
        for a case, per label, the first branch winning."""
        return self._scopes[1]

    @cached_property
    def _scopes(self) -> tuple[dict, dict]:
        free: dict[int, tuple[str, ...]] = {}
        steps: dict[int, tuple | dict[str, tuple]] = {}
        for d in self.defs:
            scope(d.body, free, steps)
        return free, steps

    @cached_property
    def memo(self) -> dict[int, tuple[TypeDefEnv, set[tuple]]]:
        """Per type env, by identity (the env held alongside), the nodes of
        the bodies, by identity, each with a context its suffix passed
        under."""
        return {}

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


def _on(t: ProcessTerm | None) -> str | None:
    """The name the action of t synchronizes on; None for a spawn, a
    forward or no term."""
    f = SUBJECT.get(type(t))
    return None if f is None else getattr(t, f)


def _rename(t: ProcessTerm, ren: dict[str, str],
            gen: Callable[[], str] | None) -> ProcessTerm:
    """Rename the free names of t by ren. With gen None a binder shadows
    (its name leaves ren below it); otherwise each binder gets gen(), in
    preorder. Recurses only into case branches, not along the spine, and
    copies ren at most once per call, as a binder's scope is the rest of
    the spine. A node that renames to itself is returned as it is."""
    spine, own = [], False
    while gen is not None or ren:
        vals, bound, k, same = [], None, None, True
        for f, role in FIELDS[type(t)]:
            v = getattr(t, f)
            if role is NAME:
                w = ren.get(v, v)
                if w is not v:
                    v, same = w, False
            elif role is NAMES:
                w = tuple([ren.get(x, x) for x in v])
                if w != v:
                    v, same = w, False
            elif role is BINDER:
                bound = v
                if gen is not None:
                    v = fresh = gen()
                    same = False
            elif role is BRANCHES:
                bs = []
                for l, b in v:
                    w = _rename(b, ren, gen)
                    if w is not b:
                        same = False
                    bs.append((l, w))
                if not same:
                    v = tuple(bs)
            elif role is CONT:
                k = len(vals)
            vals.append(v)
        if k is None:
            if not same:
                t = type(t)(*vals)
            break
        # the binder scopes over the continuation only, not a spawn's args
        if bound is not None and (gen is not None or bound in ren):
            if not own:
                ren, own = dict(ren), True
            if gen is not None:
                ren[bound] = fresh
            else:
                del ren[bound]
        spine.append((t, vals, k, same))
        t = vals[k]
    for node, vals, k, same in reversed(spine):
        if not same or t is not vals[k]:
            vals[k] = t
            t = type(node)(*vals)
        else:
            t = node
    return t


def scope(t: ProcessTerm, out: dict[int, tuple[str, ...]] | None = None,
          steps: dict[int, tuple | dict] | None = None
          ) -> tuple[int, frozenset[str]]:
    """The number of binders in t, which is how many names freshen(t, gen)
    takes from gen, and the names free in t; with out given, records there
    by identity those free in the suffix from each node of t, and in steps
    how each node's step moves a closure on (see ProcSignature.steps)."""
    spine = []
    while t is not None:
        spine.append(t)
        t = getattr(t, "cont", None)
    n, free = 0, frozenset()
    for t in reversed(spine):
        names, binder, arms, skip = [], None, {}, 0
        for f, role in FIELDS[type(t)]:
            v = getattr(t, f)
            if role is NAME:
                names.append(v)
            elif role is NAMES:
                names += v
            elif role is BINDER:
                binder, skip = v, 1
            elif role is BRANCHES:
                for label, b in v:
                    bn, bfree = scope(b, out, steps)
                    arms.setdefault(label, (b, skip, bfree))
                    skip += bn
                    names += bfree
        n += skip
        # the binder scopes over the continuation only, not a spawn's args
        after, free = free, (free - {binder}).union(names)
        if out is not None:
            # a tuple of strings, unlike a set, the collector stops tracking
            out[id(t)] = tuple(free)
        if steps is not None:
            cont = getattr(t, "cont", None)
            steps[id(t)] = {l: (b, k, None, tuple(free - f), _on(b))
                            for l, (b, k, f) in arms.items()} if arms else (
                cont, skip, binder,
                tuple(free.union({binder}) - after - {None}), _on(cont))
    return n, free


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

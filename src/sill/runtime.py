"""Executable semantics: a configuration is a multiset of predicates
rewritten one synchronization at a time.

The linear part (processes offering linear channels, and aliases from a
linear name to a shared one) is kept as an ordered list in which every
entry only uses channels offered further to the right; the shared part
(available shared sessions) is unordered. A channel is unavailable exactly
when the linear part offers it; the trace still records that as an
``unavail`` predicate.

Alongside the rewriting the runtime maintains a typing record for every
process (its current offer type and the view type of every linear channel
it uses) plus the shared context Gamma: one constraint per shared channel,
recorded by a spawn or a release and carried by a forward. A linear
channel's release obligation is its entry, or never-available without one.
The monitor rechecks the touched records after each step, and every
record of the initial configuration as if each channel were touched; any
failure is reported as a violation instead of silently continuing, which
is what makes broken release points observable at runtime.

The configuration indexes its linear part by channel (who offers it, who
uses it, which aliases stand for it), so neither step enumeration nor the
monitor scans for a provider or a client. The order and the enabled steps
are kept by what each step changes. Entries are ranked along the list, and
every change that makes a use records it. Where every use points right,
the leftmost entry still to place is always ready, so the list is its own
order: if each use a step made points right, the step keeps the list as it
is, and only otherwise does a full pass re-sort it (see _retopo). A linear
process's enabled step is a pure function of its template, channel and
subject and, where that subject is its channel, of its client's channel,
template and subject. A change to one of these marks dirty exactly the
processes whose step reads it, and an enumeration recomputes only those,
or every one after a re-sort (see _resume and _rename_all). The step list
is kept the same way: the linear part's steps, with their processes, in
one list in its order, and the processes waiting to acquire in another; a
marker on each process says which list holds it, so a recomputation moves
a process in or out without a scan. The shared part's steps (forwards,
spawns and each acquire of an accepting session) are cached as a tail,
rebuilt only where the shared part, an alias, an acquirer or a name
changed. An enumeration returns the kept steps followed by the tail, so a
step costs what it changed, not how many processes wait (see
enumerate_steps).

No step rebuilds a term. A process holds a closure in the manner of
explicit substitutions (Abadi, Cardelli, Curien & Levy) and of the CEK
machine (Felleisen & Friedman): an immutable template from its
definition's body and a renaming of the template's free names. A step
moves the template on and binds its binder; a forward records its
renaming once, in a union-find map every name resolves through. The
concrete term is forced only for a trace record, the monitor's forced
check and a reader of ``Proc.term``.

The monitor decides on the ids of the type env's graph (hash-consing in
the manner of Filliâtre & Conchon). The first time it judges under an
env, it pins the signature's offer and parameter types in the graph, so
every type it reads is found by identity; only a type the run built
(down_sl2's view, a meet's result) is interned. Its judgments read the
graph's verdict memo first and decide on a miss; a passed judgment
stamps its entry with its inputs, by identity, and the same inputs pass
again without a lookup. It rechecks a template in its own names, and a
suffix that passed under the same context before is a lookup in a memo
keyed by tuples of ints. It rechecks only the entries a step changed: a
step's touched channels name every record it changed and every provider
whose client's view it changed, so no client of a touched channel is
rechecked for its provider's step (see _relevant).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter

from .types import (
    UpLL, SessionType, TypeDefEnv, TypeGraph, TypeError_, ConstraintType,
    SharedC, Top, BOT, TOP, unfold,
)
from .subtype import is_subtype
from .synchro import (
    is_ssync, meet, cleq, SsyncPreconditionError, TOP_ID, BOT_ID,
)
from .procast import (
    FwdLL, FwdSS, FwdLS, Spawn, Close, Wait,
    SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
    Acquire, AcquireL, Accept, AcceptL, Release, ReleaseL, Detach, DetachL,
    SendVal, RecvVal, ProcessTerm, ProcDef, ProcSignature, SUBJECT, freshen,
)
from .parser import Program
from .printer import format_proc
from .typecheck import _Ck


class ProgressError(Exception):
    """A configuration that neither steps nor matches the terminal shapes."""


class RunStatus(str, Enum):
    ALL_POISED = "all_poised"
    STUCK_ACQUIRE = "stuck_acquire"
    MAX_STEPS = "max_steps"
    MONITOR_VIOLATION = "monitor_violation"


class Names:
    """The forwards of a run as one union-find map, extended in place:
    each channel a forward renamed maps to (the channel it was renamed
    to, the number of that forward, the root that channel resolved to at
    its last lookup, the number of the forward that made it the root).
    ``n`` counts the forwards, so a trace snapshot or a memo keeps only
    the count of its time: a snapshot resolves through the forwards
    numbered up to it, and a memo holds while the count is unchanged. A
    forward renames a root to a root, so the numbers rise along every
    path, and a compressed hop is taken only by a snapshot that has every
    forward it stands for."""
    __slots__ = ("map", "n")

    def __init__(self) -> None:
        self.map: dict[str, tuple[str, int, str, int]] = {}
        self.n = 0

    def union(self, old: str, new: str) -> None:
        if old != new:  # a channel forwarded to itself keeps its name
            self.n += 1
            self.map[old] = (new, self.n, new, self.n)


def _find(m: dict[str, tuple], x: str) -> str:
    """x resolved through all the forwards in m, compressing the path."""
    e = m.get(x)
    if e is None:
        return x
    root, k = e[2], e[3]
    path = []
    while (f := m.get(root)) is not None:
        path.append(root)
        root, k = f[2], f[3]
    if path:
        for y in (x, *path):
            e = m[y]
            m[y] = (e[0], e[1], root, k)
    return root


def _find_at(m: dict[str, tuple], x: str, n: int) -> str:
    """x resolved through the forwards in m numbered up to n."""
    while (e := m.get(x)) is not None:
        if e[3] <= n:
            x = e[2]
        elif e[1] <= n:
            x = e[0]
        else:
            break
    return x


def _force(tmpl: ProcessTerm | None, env: dict[str, str], base: int,
           m: dict[str, tuple], n: int | None = None) -> ProcessTerm | None:
    """The concrete term of a closure under the forwards in m (those
    numbered up to n, with n given): the template with its free names
    renamed by env and resolved through m, and binder i (in preorder)
    named %g{base+i}."""
    if tmpl is None:
        return None
    if m:
        env = {x: y if y not in m else _find(m, y) if n is None
               else _find_at(m, y, n) for x, y in env.items()}
    return freshen(tmpl, map("%g{}".format, count(base)).__next__, env)


class Proc:
    """A process predicate. Its term is a closure that no step rebuilds:
    ``tmpl``, a node of an elaborated definition body; ``env``, the names
    the template's free names stand for (never changed in place; a name
    it lacks stands for itself); ``base``, the number of the fresh name
    the template's first binder takes; and ``names``, the run's forwards,
    through which every name then resolves.

    ``term`` forces the closure for a trace, the monitor's forced check
    and other readers, and keeps it while the template and the number of
    forwards stay the same. ``rank`` is its place in the linear part,
    ``kept`` where the last enumeration keeps it (see Config) and ``up``
    the last direct acquire step built for it (see _tail)."""
    __slots__ = ("chan", "tmpl", "env", "base", "names", "offer", "uses",
                 "shared", "term_memo", "judged", "rank", "kept", "up")

    def __init__(self, chan: str, tmpl: ProcessTerm | None,
                 offer: SessionType, uses: dict[str, SessionType],
                 shared: bool, names: Names | None = None,
                 env: dict[str, str] | None = None, base: int = 0) -> None:
        self.chan, self.offer, self.uses, self.shared = \
            chan, offer, uses, shared
        self.names = Names() if names is None else names
        self.tmpl, self.env, self.base = tmpl, {} if env is None else env, base
        # the forced term, and what the last passed judgment read (see
        # term and _synchronizes)
        self.term_memo = self.judged = None
        self.rank = 0
        self.kept = self.up = None

    def name(self, x: str) -> str:
        """What the template's name x stands for now."""
        x, m = self.env.get(x, x), self.names.map
        return _find(m, x) if x in m else x

    @property
    def term(self) -> ProcessTerm | None:
        m, n = self.term_memo, self.names.n
        if m is None or m[0] is not self.tmpl or m[1] != n:
            m = self.term_memo = (self.tmpl, n, _force(
                self.tmpl, self.env, self.base, self.names.map))
        return m[2]

    def __repr__(self) -> str:
        return f"Proc({self.chan!r}, {self.term!r}, {self.offer!r}, " \
               f"{self.uses!r}, {self.shared!r})"


@dataclass(eq=False)
class Connect:
    chan: str
    target: str
    rank: int = field(default=0, init=False, repr=False)
    # what the alias check last passed with (see _linear_fault)
    judged: tuple | None = field(default=None, init=False, repr=False)


_rank = attrgetter("rank")


def _unindex(m: dict[str, list], k: str, e) -> None:
    """Take e out of m[k]; a list holds more than e only where two entries
    offer or use one channel."""
    es = m[k]
    if len(es) == 1:
        del m[k]
    else:
        m[k] = [x for x in es if x is not e]


@dataclass
class Config:
    env: TypeDefEnv
    sig: ProcSignature
    theta: list  # Proc (linear) | Connect, ordered
    lam: dict[str, Proc]  # available shared sessions
    gamma: dict[str, ConstraintType]  # shared channels only
    counter: int = 0
    names: Names = field(default_factory=Names)
    # the linear part by channel: the entries offering it, the processes
    # using it and the aliases of it. Only the methods below and
    # _rename_all change the linear part, and they keep these in step.
    offered: dict[str, list] = field(default_factory=dict)
    client: dict[str, list[Proc]] = field(default_factory=dict)
    aliases: dict[str, list[Connect]] = field(default_factory=dict)
    # ranks rise along theta, and add gives a new entry top: no two
    # entries, live or dropped since the last re-sort, share one.
    # ordered: every use pointed right after the last re-sort, so theta
    # is its own order unless one of the (user, channel) uses in edges,
    # made since, does not (see _retopo)
    top: int = 0
    ordered: bool = False
    edges: list[tuple] = field(default_factory=list)
    # the linear processes with a step pending, in order, with their steps
    # in the parallel list steps, and those with an acquire pending, in
    # order. A process's kept is its step where it is in stepping, its
    # template where it is in acquiring, None where in neither. These hold
    # for every process not in dirty, unless stale (every process is to be
    # recomputed, as after a re-sort); a shared process is dirty where it
    # joined, left or moved on in the shared part.
    # tail: the shared part's steps (see _tail), None when to be rebuilt
    stepping: list[Proc] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)
    acquiring: list[Proc] = field(default_factory=list)
    dirty: set[Proc] = field(default_factory=set)
    stale: bool = True
    tail: list[Step] | None = None
    # the monitor's checker of env (see _checker)
    ck: _Ck | None = field(default=None, repr=False)

    def fresh(self) -> str:
        name = f"%g{self.counter}"
        self.counter += 1
        return name

    def _first(self, es: list):
        """Of two or more entries es, the first in the linear part: the
        lowest-ranked; a well-formed configuration has only one."""
        return min(es, key=_rank)

    def mark_providers(self, c: str) -> None:
        """Mark the providers of c dirty: a step reads the client."""
        es = self.offered.get(c)
        if es is not None:
            self.dirty.update(es)

    def provider(self, chan: str) -> Proc | Connect | None:
        es = self.offered.get(chan)
        if es is None:
            return self.lam.get(chan)
        return es[0] if len(es) == 1 else self._first(es)

    def user_of(self, chan: str) -> Proc | None:
        es = self.client.get(chan)
        if es is None:
            return None
        return es[0] if len(es) == 1 else self._first(es)

    def add(self, e: Proc | Connect) -> None:
        """Append e to the linear part, ranked after every entry there."""
        self.theta.append(e)
        e.rank = self.top
        self.top += 1
        self.offered.setdefault(e.chan, []).append(e)
        if isinstance(e, Connect):
            self.aliases.setdefault(e.target, []).append(e)
            self.edges.append((e, e.target))
            self.tail = None  # an acquire through an alias reads it
        else:
            self.dirty.add(e)
            for c in e.uses:
                self.client.setdefault(c, []).append(e)
                self.edges.append((e, c))
                self.mark_providers(c)

    def drop(self, e: Proc | Connect) -> None:
        """Take e out of the linear part; a dirty process that is in no
        offered list leaves the kept lists at the next enumeration."""
        i = bisect_left(self.theta, e.rank, key=_rank)
        assert self.theta[i] is e
        del self.theta[i]
        if isinstance(e, Connect) or len(self.offered[e.chan]) > 1:
            self.tail = None  # the channel's provider may change
        _unindex(self.offered, e.chan, e)
        if isinstance(e, Connect):
            _unindex(self.aliases, e.target, e)
        else:
            self.dirty.add(e)
            for c in e.uses:
                _unindex(self.client, c, e)
                self.mark_providers(c)

    def use(self, p: Proc, c: str, ty: SessionType) -> None:
        """p uses c at view ty; a shared session is nobody's client."""
        if c not in p.uses and not p.shared:
            self.client.setdefault(c, []).append(p)
            self.edges.append((p, c))
            self.mark_providers(c)
        p.uses[c] = ty

    def unuse(self, p: Proc, c: str) -> None:
        """p no longer uses c."""
        if c in p.uses:
            del p.uses[c]
            if not p.shared:
                _unindex(self.client, c, p)
                self.mark_providers(c)

    def unf(self, t: SessionType) -> SessionType:
        return unfold(self.env, t)


@dataclass(frozen=True)
class Step:
    rule: str
    provider: str
    user: str | None = None


@dataclass
class StepRecord:
    rule: str
    consumed: list
    produced: list
    fresh: list[str]
    renames: dict[str, str]
    touched: set[str]


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #

def _record(e: Proc | Connect) -> tuple:
    """A snapshot of a process or alias predicate: kind, channel, and the
    closure with the number of forwards so far or the alias target;
    forced and formatted only for a trace."""
    if isinstance(e, Connect):
        return ("connect", e.chan, e.target)
    return ("procS" if e.shared else "procL", e.chan,
            (e.tmpl, e.env, e.base, e.names.map, e.names.n))


def _trace_pred(r: tuple) -> dict:
    """The trace form of a predicate snapshot."""
    kind, chan, x = r
    if kind == "unavail":
        return {"kind": kind, "chan": chan}
    if kind == "connect":
        return {"kind": kind, "chan": chan, "target": x}
    return {"kind": kind, "chan": chan,
            "term": " ".join(format_proc(_force(*x)).split())}


def _alias(cfg: Config, target: str, rec: StepRecord) -> str:
    """Install a fresh linear name standing for the shared channel target:
    the alias predicate, recorded with its unavailability marker."""
    alias = cfg.fresh()
    rec.fresh.append(alias)
    conn = Connect(alias, target)
    cfg.add(conn)
    rec.produced += [_record(conn), ("unavail", alias, None)]
    return alias


def _instance(cfg: Config, d: ProcDef, chan: str, actuals: dict[str, str],
              uses: dict[str, SessionType], shared: bool) -> Proc:
    """A new process running d's body at chan, taking over the dict
    actuals as its renaming: its binders take the next fresh names in
    preorder, and a free name of the body that is neither the offer nor a
    parameter stands for itself."""
    n, others = cfg.sig.slots[id(d)]
    env = {x: x for x in others} | actuals if others else actuals
    env[d.offer] = chan
    base = cfg.counter
    cfg.counter += n
    return Proc(chan, d.body, d.offer_ty, uses, shared, cfg.names, env, base)


def _spawn_linear(cfg: Config, spawner: Proc | None,
                  d: ProcDef, chan: str, args: tuple[str, ...],
                  kinds: tuple[str, ...], rec: StepRecord) -> None:
    """Shared machinery of the spawn rules for a linear target: builds the
    new process record, routes each argument by its kind (a linear one
    moves out of the spawner's uses, a shared one passed as linear gets an
    alias) and records the new channel as unavailable. The main process
    has no spawner and takes shared arguments only."""
    uses: dict[str, SessionType] = {}
    actuals: dict[str, str] = {}
    for arg, prm, kind in zip(args, d.params, kinds):
        if kind == "lin":
            cfg.unuse(spawner, arg)
            uses[arg] = prm.ty
            actuals[prm.chan] = arg
        elif kind == "sl":
            alias = _alias(cfg, arg, rec)
            uses[alias] = prm.ty
            actuals[prm.chan] = alias
        else:
            actuals[prm.chan] = arg
    p = _instance(cfg, d, chan, actuals, uses, False)
    cfg.add(p)
    rec.produced += [_record(p), ("unavail", chan, None)]


def _spawn_shared(cfg: Config, d: ProcDef, chan: str,
                  args: tuple[str, ...], rec: StepRecord) -> None:
    actuals = {prm.chan: arg for prm, arg in zip(d.params, args)}
    p = _instance(cfg, d, chan, actuals, {}, True)
    cfg.lam[chan] = p
    cfg.gamma[chan] = SharedC(d.offer_ty)
    cfg.dirty.add(p)
    rec.produced.append(_record(p))


def initial_config(prog: Program) -> Config:
    """Build the starting configuration from the system block of an
    elaborated program."""
    if prog.system is None:
        raise ValueError("program has no system block")
    cfg = Config(prog.types, prog.procs, [], {}, {})
    rec = StepRecord("init", [], [], [], {}, set())
    for binder, pname, args in prog.system.spawns:
        d = prog.procs.lookup(pname)
        _spawn_shared(cfg, d, binder, args, rec)
    mname, margs = prog.system.main
    d = prog.procs.lookup(mname)
    # manifest arguments are always shared channels; main takes each one
    # as declared, exactly as a spawn would
    kinds = tuple("sh" if prm.shared else "sl" for prm in d.params)
    _spawn_linear(cfg, None, d, cfg.fresh(), margs, kinds, rec)
    _retopo(cfg)
    return cfg


# --------------------------------------------------------------------------- #
# Ordering of the linear part
# --------------------------------------------------------------------------- #

def _retopo(cfg: Config) -> None:
    """Stable re-sort of the linear part so each entry uses only channels
    offered to its right: place, again and again, the leftmost entry that
    no entry still to place uses. An entry using its own channel is always
    ready.

    Where every use points right (its channel's one provider ranks above
    its user), the leftmost entry still to place is always ready, so the
    order is the list itself. If that held after the last re-sort, only a
    use made since can break it; when each of those points right too, the
    list stays as it is. Otherwise, and for a bare namespace holding a
    theta alone, _kahn re-sorts it."""
    if getattr(cfg, "ordered", False):
        offered = cfg.offered
        for u, c in cfg.edges:
            es = offered.get(c)
            if es is not None and (len(es) > 1 or es[0].rank <= u.rank):
                break
        else:
            cfg.edges.clear()
            return
    _kahn(cfg)


def _kahn(cfg: Config) -> None:
    """The full re-sort by Kahn's algorithm, ready entries taken by
    position; it ranks the entries anew. Where two entries offer one
    channel, both wait for its users, and once either is placed the
    channel is out of the order: the other is ready."""
    theta = cfg.theta
    offers: dict[str, list[int]] = {}  # channels still to place
    for i, e in enumerate(theta):
        offers.setdefault(e.chan, []).append(i)
    uses = [[c for c in ((e.target,) if isinstance(e, Connect) else e.uses)
             if c in offers] for e in theta]
    users = dict.fromkeys(offers, 0)  # per channel, its users to place
    for us in uses:
        for c in us:
            users[c] += 1
    # an entry using its own channel is always ready
    ready = [i for i, e in enumerate(theta)
             if users[e.chan] == 0 or e.chan in uses[i]]
    queued, out = set(ready), []
    while ready:
        i = heappop(ready)
        out.append(theta[i])
        done = [theta[i].chan]  # channels whose providers are now ready
        for c in uses[i]:
            users[c] -= 1
            if users[c] == 0:
                done.append(c)
        for c in done:
            for j in offers.pop(c, ()):
                if j not in queued:
                    queued.add(j)
                    heappush(ready, j)
    # every use points right unless a self-use, two providers of one
    # channel or a usage cycle (never from well-typed steps) remains
    cfg.ordered = len(users) == len(out) == len(theta) and not any(
        e.chan in us for e, us in zip(theta, uses))
    out += [e for i, e in enumerate(theta) if i not in queued]
    for i, e in enumerate(out):
        e.rank = i
    cfg.theta, cfg.top, cfg.edges = out, len(out), []
    cfg.stale = True  # the kept lists and user_of follow the order


# --------------------------------------------------------------------------- #
# Step enumeration
# --------------------------------------------------------------------------- #

def _subject(p: Proc):
    """(channel, action) pair of the next action; the channel is None for
    spawns and forwards, which act on their own. The action is the
    template: its names are read through p.name."""
    t = p.tmpl
    f = SUBJECT.get(type(t))
    if f is None:
        return None, t
    x = getattr(t, f)
    x, m = p.env.get(x, x), p.names.map
    return (_find(m, x) if x in m else x), t


# (provider action, client action) on the provider's channel -> the rule
# by which the two synchronize
_PAIRS = {
    (Close, Wait): "one",
    (SendChan, RecvChan): "tensor",
    (SendChanS, RecvChan): "tensor_s",
    (RecvChan, SendChan): "lolli",
    (RecvChan, SendChanS): "lolli_s",
    (SendLabel, CaseRecv): "plus",
    (CaseRecv, SendLabel): "with",
    (SendVal, RecvVal): "val_out",
    (RecvVal, SendVal): "val_in",
    (AcceptL, AcquireL): "up_ll",
    (DetachL, ReleaseL): "down_ll",
    (Detach, Release): "down_sl",
    (Detach, ReleaseL): "down_sl2",
}
# the actions by which a provider synchronizes with its client
_PROVIDES = {provider for provider, _ in _PAIRS}


def _spawnable(cfg: Config, t: Spawn) -> bool:
    """An unelaborated spawn of a linear session has no argument kinds to
    route by, and one of an undefined process nothing to instantiate: like
    an unelaborated forward, neither steps."""
    return t.proc in cfg.sig and (t.kinds is not None
                                  or cfg.sig.lookup(t.proc).offer_shared)


def _enabled(cfg: Config, e: Proc) -> Step | None:
    """The step the linear process e drives where it does not wait to
    acquire (see _kept): a forward or a spawn of its own, or its action on
    its own channel with the matching one of its client there. It reads
    e's template, channel and subject, and where that subject is e's
    channel, the client's channel, template and subject; whatever changes
    one of these marks e dirty."""
    a, t = e.chan, e.tmpl
    c = _subject(e)[0]
    if c is None:
        k = t.__class__
        if k is FwdLL:
            return Step("fwd_ll", a)
        if k is FwdLS:
            return Step("fwd_ls", a)
        if k is Spawn and _spawnable(cfg, t):
            d = cfg.sig.lookup(t.proc)
            return Step("spawn_ls" if d.offer_shared else "spawn_ll", a)
        return None
    if c != a or (u := cfg.user_of(a)) is None:
        return None
    uc, ut = _subject(u)
    rule = _PAIRS.get((type(t), type(ut))) if uc == a else None
    # a case needs a branch for the sent label
    if rule is None or rule == "plus" and t.label not in ut.labels() \
            or rule == "with" and ut.label not in t.labels():
        return None
    return Step(rule, a, u.chan)


def _kept(cfg: Config, e: Proc) -> Step | ProcessTerm | None:
    """What the live linear process e is kept with: its template where it
    waits to acquire (the shared part's steps read it), else its enabled
    step, if any."""
    t = e.tmpl
    k = t.__class__
    return t if k is Acquire or k is AcquireL else _enabled(cfg, e)


def _tail(cfg: Config) -> list[Step]:
    """The steps of the shared part, by channel: a forward, a spawn, or
    for a session that accepts, each pending acquire of it, direct or
    through a linear alias, in the order of the linear part. A direct
    acquirer's step is kept on it and built anew only where its session or
    its channel changed."""
    steps: list[Step] = []
    m = cfg.names.map
    for a in sorted(cfg.lam):
        p = cfg.lam[a]
        t = p.tmpl
        k = t.__class__
        if k is FwdSS:
            steps.append(Step("fwd_ss", a))
        elif k is Spawn and _spawnable(cfg, t):
            steps.append(Step("spawn_ss", a))
        elif k is Accept and p.name(t.chan) == a:
            # every pending acquirer of this session is a separate step
            for e in cfg.acquiring:
                # e.name inlined: this runs for every waiter at a rebuild
                w = e.tmpl
                x = e.env.get(w.chan, w.chan)
                if x in m:
                    x = _find(m, x)
                if w.__class__ is Acquire:
                    if x == a:
                        s = e.up
                        if s is None or s.provider != a or s.user != e.chan:
                            s = e.up = Step("up_sl", a, e.chan)
                        steps.append(s)
                    continue
                tgt = cfg.provider(x)
                if isinstance(tgt, Connect) and tgt.target == a:
                    steps.append(Step("up_sl2", a, e.chan))
    return steps


def enumerate_steps(cfg: Config) -> list[Step]:
    """The enabled steps in canonical order, as a new list: the linear
    part's, kept in cfg.steps, then the shared part's, kept in cfg.tail.
    Only the dirty processes are recomputed, each moved into or out of the
    kept lists by its marker; after a re-sort every process is. The tail
    is rebuilt only where the shared part, an alias, an acquirer or a name
    changed."""
    if cfg.stale:
        for e in cfg.stepping + cfg.acquiring:
            e.kept = None
        cfg.stepping, cfg.steps, cfg.acquiring = [], [], []
        for e in cfg.theta:
            if isinstance(e, Proc):
                k = e.kept = _kept(cfg, e)
                if type(k) is Step:
                    cfg.stepping.append(e)
                    cfg.steps.append(k)
                elif k is not None:
                    cfg.acquiring.append(e)
        cfg.stale, cfg.tail = False, None
    else:
        stepping, steps, acquiring = cfg.stepping, cfg.steps, cfg.acquiring
        for e in cfg.dirty:
            if isinstance(e, Connect):
                continue
            if e.shared:  # joined, left or moved on in the shared part
                cfg.tail = None
                continue
            old = e.kept
            # a dropped process is in no offered list
            new = _kept(cfg, e) if e in cfg.offered.get(e.chan, ()) else None
            if new is old:
                continue
            e.kept = new
            if type(old) is Step:
                i = bisect_left(stepping, e.rank, key=_rank)
                if type(new) is Step:
                    steps[i] = new
                    continue
                del stepping[i], steps[i]
            elif old is not None:
                del acquiring[bisect_left(acquiring, e.rank, key=_rank)]
                cfg.tail = None
            if type(new) is Step:
                i = bisect_left(stepping, e.rank, key=_rank)
                stepping.insert(i, e)
                steps.insert(i, new)
            elif new is not None:
                acquiring.insert(bisect_left(acquiring, e.rank, key=_rank), e)
                cfg.tail = None
    cfg.dirty.clear()
    if cfg.tail is None:
        cfg.tail = _tail(cfg)
    return cfg.steps + cfg.tail


# --------------------------------------------------------------------------- #
# Applying a step
# --------------------------------------------------------------------------- #

def _rename_all(cfg: Config, old: str, new: str) -> None:
    """Rename the channel old to new in the indexes, the uses, the shared
    part and Gamma; terms read old as new through cfg.names."""
    for m, f in ((cfg.offered, "chan"), (cfg.aliases, "target")):
        for e in m.pop(old, ()):
            setattr(e, f, new)
            m.setdefault(new, []).append(e)
    for e in cfg.client.pop(old, ()):
        if new not in e.uses:
            cfg.client.setdefault(new, []).append(e)
        e.uses[new] = e.uses.pop(old)
    # every use of new may now meet another provider
    cfg.edges += [(e, new) for m in (cfg.client, cfg.aliases)
                  for e in m.get(new, ())]
    if old in cfg.lam:
        p = cfg.lam[new] = cfg.lam.pop(old)
        p.chan = new
    cfg.names.union(old, new)
    # the steps that read a name the renaming moved: those of the
    # processes at new, and those of the providers at the subject of one,
    # which read its channel. A client of new needs no mark: its step
    # reads its subject only where that is its own channel
    for e in cfg.offered.get(new, ()):
        if e.__class__ is Proc:
            cfg.dirty.add(e)
            cfg.mark_providers(_subject(e)[0])
    cfg.tail = None
    if old in cfg.gamma or new in cfg.gamma:
        # a name with no entry is linear: never available
        cfg.gamma[new], cfg.env = meet(cfg.env, cfg.gamma.get(new, BOT),
                                       cfg.gamma.pop(old, BOT))


def _resume(cfg: Config, p: Proc, msg: str | None) -> None:
    """Move p's closure on by the signature's step table: a case takes the
    branch of label msg, skipping the binders of the branches before it;
    an action with a binder (a spawn too) binds it to msg. The renaming
    drops the names the continuation does not have free, so it does not
    grow with the names a long body is done with.

    p's step reads p's template, and so p is marked dirty; a shared p is
    too, as the shared part's steps read its template. A provider's step
    reads its client's template only where the client acts on the
    provider's channel (see _enabled), so the providers at p's subject
    before the move and after it are marked, not those of every channel p
    uses: exact, whatever calls it. The subject after is read through the
    step table; a shared process is nobody's client."""
    cfg.dirty.add(p)
    if not p.shared:
        cfg.mark_providers(_subject(p)[0])
    s = cfg.sig.steps[id(p.tmpl)]
    if type(s) is dict:
        s = s[msg]
    p.tmpl, n, b, drop, on = s
    p.base += n
    if b is not None or drop:
        p.env = env = {**p.env, b: msg} if b is not None else p.env.copy()
        for y in drop:
            env.pop(y, None)
    if on is not None and not p.shared:
        cfg.mark_providers(p.name(on))


def _forward(cfg: Config, rec: StepRecord, p: Proc, _u) -> None:
    """fwd_ll, fwd_ss: the forwarder at a leaves and b is renamed to a.
    fwd_ls: a stays behind as a linear alias of the shared b."""
    t = p.tmpl
    a, b = p.name(t.offer), p.name(t.used)
    rec.consumed.append(_record(p))
    rec.touched |= {a, b}
    if p.shared:
        del cfg.lam[a]
        cfg.dirty.add(p)
    else:
        cfg.drop(p)
    if isinstance(t, FwdLS):
        conn = Connect(a, b)
        cfg.add(conn)
        rec.produced.append(_record(conn))
        return
    if isinstance(t, FwdLL):
        tgt = cfg.provider(b)
        if isinstance(tgt, Proc):
            rec.consumed.append(_record(tgt))
    _rename_all(cfg, b, a)
    rec.renames[b] = a
    tgt = cfg.provider(a)
    if tgt is not None:
        rec.produced.append(_record(tgt))


def _spawn(cfg: Config, rec: StepRecord, s: Proc, _u) -> None:
    """spawn_ll, spawn_ls, spawn_ss: s spawns a process at a fresh channel
    and continues with its binder bound to it."""
    rec.consumed.append(_record(s))
    sp: Spawn = s.tmpl
    args = tuple([s.name(x) for x in sp.args])
    d = cfg.sig.lookup(sp.proc)
    c = cfg.fresh()
    rec.fresh.append(c)
    if d.offer_shared:
        _spawn_shared(cfg, d, c, args, rec)
    else:
        _spawn_linear(cfg, s, d, c, args, sp.kinds, rec)
        cfg.use(s, c, d.offer_ty)
    _resume(cfg, s, c)
    rec.produced.append(_record(s))
    rec.touched |= {s.chan, c} | set(args)


_SENDS = (SendChan, SendChanS, SendLabel, SendVal)


def _exchange(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """The binary linear rules between the provider p of a and its client
    u. Mirrored rules share this body: whichever side sends carries the
    channel, label or value, and the other side receives it. Both terms,
    the offer and the client's view of a advance together."""
    a = p.chan
    rec.consumed += [_record(p), _record(u)]
    rec.touched |= {a, u.chan}
    if isinstance(p.tmpl, Close):
        cfg.drop(p)
        _resume(cfg, u, None)
        cfg.unuse(u, a)
        rec.produced.append(_record(u))
        return
    offer, view = cfg.unf(p.offer), cfg.unf(u.uses[a])
    # the sender, the receiver and the receiver's type of a
    s, r, rty = (u, p, offer) if isinstance(u.tmpl, _SENDS) \
        else (p, u, view)
    st = s.tmpl
    k = st.__class__
    if k is SendChan or k is SendChanS:
        y = s.name(st.payload)
        if k is SendChan:
            cfg.unuse(s, y)
            msg = y
        else:
            msg = _alias(cfg, y, rec)
        cfg.use(r, msg, rty.payload)
        rec.touched.add(y)
    elif k is SendVal:
        msg = s.name(st.value)
    elif k is SendLabel:
        msg = st.label
    else:
        msg = a  # linear shifts: both sides bind a itself
    if k is SendLabel:
        p.offer, u.uses[a] = offer.branch(msg), view.branch(msg)
    else:
        p.offer, u.uses[a] = offer.cont, view.cont
    _resume(cfg, p, msg)
    _resume(cfg, u, msg)
    rec.produced += [_record(p), _record(u)]


def _acquire(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """up_sl, up_sl2: u acquires the available shared session p, directly
    or through a linear alias (which the acquire consumes); the session
    moves to the linear part at its unfolded type."""
    b = p.chan
    rec.consumed += [_record(p), _record(u)]
    rec.touched |= {b, u.chan}
    if isinstance(u.tmpl, AcquireL):
        alias = cfg.provider(u.name(u.tmpl.chan))
        rec.consumed.append(_record(alias))
        cfg.drop(alias)
        cfg.unuse(u, alias.chan)
        rec.touched.add(alias.chan)
    del cfg.lam[b]
    body = cfg.unf(p.offer).cont
    _resume(cfg, p, b)
    newp = Proc(b, p.tmpl, body, {}, False, cfg.names, p.env, p.base)
    cfg.add(newp)
    _resume(cfg, u, b)
    cfg.use(u, b, body)
    rec.produced += [_record(newp), ("unavail", b, None),
                     _record(u)]


def _release(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """down_sl, down_sl2: the session at c returns to the shared part and
    u lets go of it; a client releasing at a linear shift (down_sl2) keeps
    a fresh linear alias of c."""
    c = p.chan
    rec.consumed += [_record(p), _record(u), ("unavail", c, None)]
    cfg.drop(p)
    shared_ty = cfg.unf(p.offer).cont
    _resume(cfg, p, c)
    newp = Proc(c, p.tmpl, shared_ty, {}, True, cfg.names, p.env, p.base)
    cfg.lam[c] = newp
    cfg.gamma[c] = SharedC(shared_ty)
    cfg.dirty.add(newp)
    rec.produced.append(_record(newp))
    cfg.unuse(u, c)
    name = c
    if isinstance(u.tmpl, ReleaseL):
        name = _alias(cfg, c, rec)
        body = cfg.unf(shared_ty).cont
        view = cfg.sig.views.get(id(body))
        if view is None:
            view = cfg.sig.views[id(body)] = UpLL(body)
        cfg.use(u, name, view)
    _resume(cfg, u, name)
    rec.produced.append(_record(u))
    rec.touched |= {c, name, u.chan}


_HANDLERS = {
    **dict.fromkeys(("fwd_ll", "fwd_ss", "fwd_ls"), _forward),
    **dict.fromkeys(("spawn_ll", "spawn_ls", "spawn_ss"), _spawn),
    **dict.fromkeys(("one", "tensor", "tensor_s", "lolli", "lolli_s",
                     "plus", "with", "val_out", "val_in", "up_ll",
                     "down_ll"), _exchange),
    **dict.fromkeys(("up_sl", "up_sl2"), _acquire),
    **dict.fromkeys(("down_sl", "down_sl2"), _release),
}


def apply_step(cfg: Config, step: Step) -> StepRecord:
    rec = StepRecord(step.rule, [], [], [], {}, set())
    prov = cfg.provider(step.provider)
    user = None if step.user is None else cfg.provider(step.user)
    _HANDLERS[step.rule](cfg, rec, prov, user)
    _retopo(cfg)
    if rec.renames:
        rec.touched.update(rec.renames, rec.renames.values())
    return rec


# --------------------------------------------------------------------------- #
# Monitor
# --------------------------------------------------------------------------- #

def _tid(g: TypeGraph, t: SessionType) -> int:
    """t's id in g: by identity where t is a pinned type or a subterm of
    one or of a body. Else t is a type the run built: a client's view
    after down_sl2, one per body (ProcSignature.views), which is pinned at
    its first judgment, or a meet's result, which is interned each time."""
    i = g.ident.get(id(t))
    if i is None:
        return g.pin(t) if t.__class__ is UpLL else g.intern(t)
    return i


def _cid(g: TypeGraph, c: ConstraintType) -> int:
    """A constraint's id: TOP_ID, BOT_ID or its shared type's."""
    cls = c.__class__
    if cls is SharedC:
        return _tid(g, c.ty)
    return TOP_ID if cls is Top else BOT_ID


def _checker(cfg: Config) -> _Ck:
    """cfg's checker, built anew only where cfg.env changed. The first
    time the monitor meets a (signature, env) pair, it pins the
    signature's offer and parameter types in env's graph and starts the
    pair's recheck memo, so a run that is not monitored builds no graph.
    The memo's keys are the graph's ids, so a graph the env dropped (see
    TypeGraph.intern) takes the memo with it."""
    ck, env = cfg.ck, cfg.env
    g = env.graph
    m = cfg.sig.memo.get(id(env))
    if m is None or m[2] is not g:
        try:
            for d in cfg.sig.defs:
                g.pin(d.offer_ty)
                for prm in d.params:
                    g.pin(prm.ty)
        except (KeyError, TypeError_):
            pass  # a malformed type: the judgment posing it raises
        cfg.sig.memo[id(env)] = (env, set(), g)
    if ck is None or ck.env is not env:
        ck = cfg.ck = _Ck(env, cfg.sig)
    return ck


def _passes(cfg: Config, ck: _Ck, p: Proc) -> bool:
    """Whether p passes its recheck, decided in its template's names: each
    free name takes every place of the channel it stands for, as the offer,
    in Δ (p's uses) and in Γ, and the template checks as the forced term
    does. A context the suffix from p's node passed under before is a
    lookup in the signature's memo, keyed by graph ids: (node, shared,
    offer, the class of each free name: its constraint, or for the offer
    and a use (whether it is the offer, its view, its constraint)), a
    constraint being TOP_ID, BOT_ID or a shared type's id. A miss checks
    the template and on a pass records the context at every node of its
    spine, so after a well-typed step the next recheck is a lookup. False,
    for the forced check to decide and word the violation, where that
    check fails or the context does not translate one to one: two free
    names stand for the offer or one linear channel, none for the offer,
    or a use for none. Γ is only read and extended, so two may stand for
    one shared channel."""
    t, chan, gamma, env = p.tmpl, p.chan, cfg.gamma, cfg.env
    g, free = env.graph, cfg.sig.free
    uses = {} if p.shared else p.uses  # the shared judgment has no Δ
    ren, m = p.env, p.names.map
    x, delta, gam, cls, lin = None, {}, {}, [], set()
    for y in free[id(t)]:
        r = ren.get(y, y)
        if r in m:
            r = _find(m, r)
        d, c = uses.get(r), gamma.get(r)
        if c is not None:
            gam[y] = c
            c = _cid(g, c)
        if r == chan or d is not None:
            if r in lin:
                return False
            lin.add(r)
            if r == chan:
                x = y
            if d is not None:
                delta[y] = d
                d = _tid(g, d)
            c = (r == chan, d, c)
        cls.append(c)
    if x is None or not lin.issuperset(uses):
        return False
    memo = cfg.sig.memo[id(env)][1]
    if (id(t), p.shared, _tid(g, p.offer), tuple(cls)) not in memo:
        out = []

        def record(node, gamma, delta, x, a, shared):
            out.append((id(node), shared, _tid(g, a), tuple(
                (y == x, _tid(g, delta[y]) if y in delta else None,
                 _cid(g, gamma[y]) if y in gamma else None)
                if y == x or y in delta else
                _cid(g, gamma[y]) if y in gamma else None
                for y in free[id(node)])))

        if (ck.shared(gam, {}, t, x, p.offer, record) if p.shared else
                ck.linear(gam, delta, {}, t, x, p.offer, record)) is None:
            return False
        memo.update(out)
    return True


def _recheck(cfg: Config, ck: _Ck, p: Proc) -> str | None:
    """The violation of p's recheck, if any; where the template cannot
    decide, p's forced term decides."""
    if _passes(cfg, ck, p):
        return None
    ck.diags.clear()
    if (ck.shared(cfg.gamma, {}, p.term, p.chan, p.offer) if p.shared else
            ck.linear(cfg.gamma, p.uses, {}, p.term, p.chan, p.offer)) is None:
        return f"process at {p.chan} no longer typechecks: " \
               + "; ".join(ck.diags)
    return None


def _synchronizes(cfg: Config, e: Proc, a: SessionType, b: SessionType,
                  d: ConstraintType) -> bool:
    """Whether (a, b, d) subsynchronizes, a <= b being the judgment's
    precondition, for the entry e. The graph's verdict memo at (a, b, d)
    holds only final verdicts (a True only from a decision that checked
    the precondition), so a hit decides. A pass stamps e with the inputs by
    identity, with the type env, and the same inputs pass again with no
    lookup."""
    env = cfg.env
    s = e.judged
    if s is not None and s[0] is a and s[1] is b and s[2] is d \
            and s[3] is env:
        return True
    g = env.graph
    ok = g.memo.get((_tid(g, a), _tid(g, b), _cid(g, d)))
    if ok is None:
        try:
            ok = is_ssync(env, a, b, d)
        except SsyncPreconditionError:
            ok = False
    if ok:
        e.judged = (a, b, d, env)
    return ok


def _linear_fault(cfg: Config, ck: _Ck, e: Proc | Connect) -> str | None:
    """The violation at one entry of the linear part, if any."""
    u = cfg.user_of(e.chan)
    if e.__class__ is Connect:
        if u is None:
            return None
        con, view, env = cfg.gamma.get(e.target), u.uses[e.chan], cfg.env
        s = e.judged
        if s is not None and s[0] is con and s[1] is view and s[2] is env:
            return None
        if con.__class__ is SharedC:
            # the subtyping memo, like ssync's, holds only final verdicts
            g = env.graph
            ok = g.memo.get((_tid(g, con.ty), _tid(g, view)))
            if ok is None:
                ok = is_subtype(env, con.ty, view)
            if ok:
                e.judged = (con, view, env)
                return None
        return (f"alias {e.chan} -> {e.target}: shared constraint "
                f"does not refine the client view")
    view = u.uses[e.chan] if u is not None else e.offer
    if not _synchronizes(cfg, e, e.offer, view, cfg.gamma.get(e.chan, BOT)):
        return (f"linear {e.chan}: offer type no longer synchronizes "
                f"with the client view under its release obligation")
    return _recheck(cfg, ck, e)


def _relevant(cfg: Config, touched: set[str]) -> dict[int, Proc | Connect]:
    """The entries of the linear part that offer a touched channel or are
    an alias of one, by id. An entry's check reads its own record, its
    client's view of its channel and Γ. Every handler touches the channel
    of each process whose record it changes and of each provider whose
    client's view it changes, and a forward renames consistently, so a
    client of a touched channel, whose record its provider's step left
    alone, passes as before and is not rechecked."""
    return {id(e): e for c in touched
            for m in (cfg.offered, cfg.aliases) for e in m.get(c, ())}


def monitor_check(cfg: Config, touched: set[str] | None = None) -> str | None:
    """Recheck the typing records of the touched channels (every channel
    when touched is None). Returns a violation message or None.

    The entries to recheck come from the indexes: those offering a touched
    channel and the aliases of one (see _relevant). They are checked in
    any order first; only if one fails are they walked again in the order
    of the linear part, so the first failing entry names the violation,
    as a walk of the whole linear part would. A step can make a second
    provider only at a channel it touches, so duplicates are looked for
    there alone once the initial configuration has passed."""
    if touched is None:
        touched = cfg.offered.keys() | cfg.lam.keys()
    dup = [c for c in touched
           if len(cfg.offered.get(c, ())) + (c in cfg.lam) > 1]
    if dup:
        return f"well-formedness: multiple providers for {sorted(dup)}"
    ck = _checker(cfg)
    relevant, linear = _relevant(cfg, touched), ()
    for e in relevant.values():
        if _linear_fault(cfg, ck, e) is not None:
            linear = [e for e in cfg.theta if id(e) in relevant]
            break
    for e in linear:
        v = _linear_fault(cfg, ck, e)
        if v is not None:
            return v
    for a in sorted(cfg.lam.keys() & touched):
        p = cfg.lam[a]
        con = cfg.gamma.get(a)
        if not isinstance(con, SharedC):
            return f"shared {a}: no shared constraint recorded"
        if not _synchronizes(cfg, p, p.offer, con.ty, TOP):
            return (f"shared {a}: offer type does not equi-synchronize "
                    f"with its recorded constraint")
        if (v := _recheck(cfg, ck, p)) is not None:
            return v
    return None


# --------------------------------------------------------------------------- #
# Progress classification
# --------------------------------------------------------------------------- #

def _poised(cfg: Config, p: Proc) -> bool:
    c, t = _subject(p)
    if p.shared:
        return isinstance(t, Accept) and c == p.chan
    if c != p.chan:
        return False
    return type(t) in _PROVIDES


def _acquire_blocked(cfg: Config, p: Proc) -> bool:
    t = p.tmpl
    k = t.__class__
    if k is Acquire:
        return p.name(t.chan) not in cfg.lam
    if k is AcquireL:
        tgt = cfg.provider(p.name(t.chan))
        if isinstance(tgt, Connect):
            return tgt.target not in cfg.lam
        return tgt is None
    return False


def classify(cfg: Config) -> RunStatus:
    procs = [e for e in cfg.theta if isinstance(e, Proc)] + \
        [cfg.lam[a] for a in sorted(cfg.lam)]
    if all(_poised(cfg, p) for p in procs):
        return RunStatus.ALL_POISED
    if any(_acquire_blocked(cfg, p) for p in procs):
        return RunStatus.STUCK_ACQUIRE
    raise ProgressError(
        "configuration cannot step yet is neither poised nor blocked on "
        "an acquire")


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #

@dataclass
class RunResult:
    status: RunStatus
    steps: int
    violation: str | None
    config: Config


def _check_gamma_monotone(cfg: Config, before: dict[str, ConstraintType],
                          rec: StepRecord) -> str | None:
    """Every constraint of Γ before the step is still there after it, at
    or below where it was; one the step left alone is, as the order is
    reflexive."""
    for k, c in before.items():
        nk = rec.renames.get(k, k)
        d = cfg.gamma.get(nk)
        if d is None:
            return f"shared context: constraint for {k} disappeared"
        if d is not c and not cleq(cfg.env, d, c):
            return (f"shared context: constraint for {nk} evolved upward "
                    f"instead of tightening")
    return None


def run(prog: Program, *, seed: int = 0, max_steps: int = 1000,
        monitor: bool = True, policy: str = "random",
        trace=None) -> RunResult:
    """Execute the system block of an elaborated program.

    ``trace`` is an optional writable text stream receiving one JSON object
    per step. ``policy`` is "random" (uniform choice among the enabled
    steps, driven by ``seed``) or "fifo" (always the first enabled step in
    canonical order).
    """
    cfg = initial_config(prog)
    if monitor:
        v = monitor_check(cfg, None)
        if v is not None:
            return RunResult(RunStatus.MONITOR_VIOLATION, 0, v, cfg)
    rng = random.Random(seed)
    n = 0
    while n < max_steps:
        steps = enumerate_steps(cfg)
        if not steps:
            return RunResult(classify(cfg), n, None, cfg)
        idx = 0 if policy == "fifo" else rng.randrange(len(steps))
        before = dict(cfg.gamma) if monitor else None
        rec = apply_step(cfg, steps[idx])
        n += 1
        if trace is not None:
            trace.write(json.dumps({
                "step": n,
                "rule": rec.rule,
                "consumed": [_trace_pred(r) for r in rec.consumed],
                "produced": [_trace_pred(r) for r in rec.produced],
                "fresh": rec.fresh,
            }, sort_keys=True, separators=(",", ":")) + "\n")
        if monitor:
            v = _check_gamma_monotone(cfg, before, rec)
            if v is None:
                v = monitor_check(cfg, rec.touched)
            if v is not None:
                return RunResult(RunStatus.MONITOR_VIOLATION, n, v, cfg)
    return RunResult(RunStatus.MAX_STEPS, n, None, cfg)

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
record of the initial configuration as if each channel were touched, and
verifies the shared context only tightens at the entries the step wrote;
any failure is reported as a violation instead of silently continuing,
which is what makes broken release points observable at runtime.

The configuration indexes its linear part by channel (who offers it, who
uses it, which aliases stand for it), so neither step enumeration nor the
monitor scans for a provider or a client. The order and the enabled steps
are kept by what each step changes. Entries are ranked along the list, and
every change that makes a use records it. Where every use points right,
the leftmost entry still to place is always ready, so the list is its own
order: if each use a step made points right, the step keeps the list as it
is; if only the newest entry's do not, as after a spawn that hands its new
process the spawner's channels, the entries that wait on it move to just
after it; only otherwise does a full pass re-sort it (see _retopo). A linear
process's enabled step is a pure function of its template, channel and
subject and, where that subject is its channel, of its client's channel,
template and subject. A change to one of these marks dirty exactly the
processes whose step reads it, and an enumeration recomputes only those;
a full re-sort marks every one (see _resume and _rename_all). The step list
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
renaming once, as one key of a plain union-find map from the old channel
to the new, which every name resolves through. The concrete term is
forced only for a trace record (in the step that took it, and taken only
where a run writes a trace) and a reader of ``Proc.term()``.

The monitor decides on the ids of the type env's graph (hash-consing in
the manner of Filliâtre & Conchon). The first time it judges under an
env, it pins the signature's offer and parameter types in the graph, so
every type it reads is found by identity; only a type the run built
(down_sl2's view, a meet's result) is interned. Its judgments are
ssync_ids and sub_ids, posed on those ids, so a judgment decided before
is a read of the graph's verdict memo. It rechecks a process by one
check of its closure, each name read through the closure's renaming,
which passes, fails and words a failure as the forced term would; where
the names stand for the channels one to one, a suffix that passed under
the same context before is a lookup in a memo keyed by tuples of ints.
The memo starts with the root of every definition the static check
passed, under its declared context, so a new instance's first recheck is
a lookup too (see _checker). After an exchange or a spawn, a process
whose recheck last passed at its node, or at the node before it, with no
Γ overwrite or forward since, passes at once (see _recheck). It
rechecks only the entries a step changed: a step's touched channels name
every record, client's view, alias and Γ entry it changed, and are read
in one pass, so no client of a touched channel is rechecked for its
provider's step (see _relevant); Γ is checked at the entries the step
wrote (see _check_gamma_monotone).
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
    SharedC, Top, BOT, unfold,
)
from .subtype import sub_ids
from .synchro import ssync_ids, meet, cleq, TOP_ID, BOT_ID
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
    """A configuration that neither steps nor matches the terminal shapes,
    or a process that closes or detaches while it still uses channels."""


class RunStatus(str, Enum):
    ALL_POISED = "all_poised"
    STUCK_ACQUIRE = "stuck_acquire"
    MAX_STEPS = "max_steps"
    MONITOR_VIOLATION = "monitor_violation"


def _find(m: dict[str, str], x: str) -> str:
    """x resolved through the run's forwards m, compressing the path. m
    maps each channel a forward renamed to the channel it was renamed to;
    a forward adds one key and a renamed channel is never renamed again,
    so len(m) counts the forwards."""
    path = []
    while (y := m.get(x)) is not None:
        path.append(x)
        x = y
    for y in path[:-1]:
        m[y] = x
    return x


def _force(tmpl: ProcessTerm, env: dict[str, str], base: int,
           m: dict[str, str]) -> ProcessTerm:
    """The concrete term of a closure under the forwards m: the template
    with its free names renamed by env and resolved through m, and binder
    i (in preorder) named %g{base+i}."""
    if m:
        env = {x: y if y not in m else _find(m, y) for x, y in env.items()}
    return freshen(tmpl, map("%g{}".format, count(base)).__next__, env)


class Proc:
    """A process predicate. Its term is a closure that no step rebuilds:
    ``tmpl``, a node of an elaborated definition body; ``env``, the names
    the template's free names stand for (never changed in place; a name
    it lacks stands for itself); ``base``, the number of the fresh name
    the template's first binder takes; and ``names``, the run's forwards,
    through which every name then resolves (see _find).

    ``term()`` forces the closure afresh, for a reader such as a test.
    ``rank`` is its place in the linear part, ``kept`` where the last
    enumeration keeps it (see Config), ``up`` the last direct acquire step
    built for it (see _tail) and ``stamp`` (node, Config.epoch) where its
    last recheck passed, else None (see _recheck)."""
    __slots__ = ("chan", "tmpl", "env", "base", "names", "offer", "uses",
                 "shared", "rank", "kept", "up", "stamp")

    def __init__(self, chan: str, tmpl: ProcessTerm,
                 offer: SessionType, uses: dict[str, SessionType],
                 shared: bool, names: dict[str, str] | None = None,
                 env: dict[str, str] | None = None, base: int = 0) -> None:
        self.chan, self.offer, self.uses, self.shared = \
            chan, offer, uses, shared
        self.names = {} if names is None else names
        self.tmpl, self.env, self.base = tmpl, {} if env is None else env, base
        self.kept = self.up = None
        self.stamp = None
        self.rank = 0

    def name(self, x: str) -> str:
        """What the template's name x stands for now."""
        x, m = self.env.get(x, x), self.names
        return _find(m, x) if x in m else x

    def term(self) -> ProcessTerm:
        return _force(self.tmpl, self.env, self.base, self.names)

    def __repr__(self) -> str:
        return f"Proc({self.chan!r}, {self.term()!r}, {self.offer!r}, " \
               f"{self.uses!r}, {self.shared!r})"


@dataclass(eq=False)
class Connect:
    chan: str
    target: str
    rank: int = field(default=0, init=False, repr=False)


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
    names: dict[str, str] = field(default_factory=dict)
    # the linear part by channel: the entries offering it, the processes
    # using it and the aliases of it. Only the methods below and
    # _rename_all change the linear part, and they keep these in step.
    # Where two entries offer or use one channel, the lowest-ranked counts.
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
    # recomputed, as after a full re-sort); a shared process is dirty where it
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
    # the Γ overwrites (_release) and forwards (_rename_all) so far: each
    # changes what a process's free names stand for, or their constraints,
    # without moving it, so each makes every stamp stale (see _recheck).
    # env changes only inside _rename_all, so a current stamp was taken
    # under the present env
    epoch: int = 0
    # whether a step's record takes the snapshots a trace writes (see
    # StepRecord): a run takes them only where it writes a trace
    snap: bool = True

    def fresh(self) -> str:
        name = f"%g{self.counter}"
        self.counter += 1
        return name

    def mark_providers(self, c: str) -> None:
        """Mark the providers of c dirty: a step reads the client."""
        es = self.offered.get(c)
        if es is not None:
            self.dirty.update(es)

    def provider(self, chan: str) -> Proc | Connect | None:
        es = self.offered.get(chan)
        if es is None:
            return self.lam.get(chan)
        return es[0] if len(es) == 1 else min(es, key=_rank)

    def user_of(self, chan: str) -> Proc | None:
        es = self.client.get(chan)
        if es is None:
            return None
        return es[0] if len(es) == 1 else min(es, key=_rank)

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
        offered list leaves the kept lists at the next enumeration. The
        providers of its uses are marked: another client may now be first."""
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
        """p uses c at view ty; a shared session is nobody's client. c's
        providers are marked: p may now be the first of two clients."""
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
    # Γ's entries the step wrote, as before it (None: none), in Γ's order;
    # a shared spawn's entry, at a fresh channel, has nothing before it
    gamma: dict[str, ConstraintType | None]
    # whether consumed and produced take snapshots (see _record)
    snap: bool = True


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #

def _record(e: Proc | Connect, frozen: bool = False) -> tuple:
    """A snapshot of a process or alias predicate: kind, channel, and the
    closure or the alias target; forced and formatted only for a trace,
    in the step that took it. A forward takes its consumed snapshots
    before it renames, so they are frozen: their names resolved now."""
    if isinstance(e, Connect):
        return ("connect", e.chan, e.target)
    x = (e.tmpl, {y: e.name(y) for y in e.env}, e.base, {}) if frozen \
        else (e.tmpl, e.env, e.base, e.names)
    return ("procS" if e.shared else "procL", e.chan, x)


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
    the alias predicate, recorded with its unavailability marker and
    touched. The target's session and Γ entry stay as they were."""
    alias = cfg.fresh()
    rec.fresh.append(alias)
    conn = Connect(alias, target)
    cfg.add(conn)
    if rec.snap:
        rec.produced += [_record(conn), ("unavail", alias, None)]
    rec.touched.add(alias)
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
            rec.touched.add(arg)  # its provider's client changed
        elif kind == "sl":
            alias = _alias(cfg, arg, rec)
            uses[alias] = prm.ty
            actuals[prm.chan] = alias
        else:
            actuals[prm.chan] = arg
    p = _instance(cfg, d, chan, actuals, uses, False)
    cfg.add(p)
    if rec.snap:
        rec.produced += [_record(p), ("unavail", chan, None)]


def _spawn_shared(cfg: Config, d: ProcDef, chan: str,
                  args: tuple[str, ...], rec: StepRecord) -> None:
    actuals = {prm.chan: arg for prm, arg in zip(d.params, args)}
    p = _instance(cfg, d, chan, actuals, {}, True)
    cfg.lam[chan] = p
    cfg.gamma[chan] = SharedC(d.offer_ty)
    cfg.dirty.add(p)
    if rec.snap:
        rec.produced.append(_record(p))


def initial_config(prog: Program) -> Config:
    """Build the starting configuration from the system block of an
    elaborated program."""
    if prog.system is None:
        raise ValueError("program has no system block")
    cfg = Config(prog.types, prog.procs, [], {}, {})
    rec = StepRecord("init", [], [], [], {}, set(), {}, False)
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
    list stays as it is. When the only ones that do not are the newest
    entry's, as where a spawn's new process takes over its spawner's uses,
    _sink moves what waits on it. Otherwise _kahn re-sorts it."""
    if cfg.ordered:
        offered, p = cfg.offered, None
        for u, c in cfg.edges:
            es = offered.get(c)
            if es is not None and (len(es) > 1 or es[0].rank <= u.rank):
                if u is not cfg.theta[-1]:  # c is offered: theta is not empty
                    break
                p = u
        else:
            if p is None or _sink(cfg, p):
                cfg.edges.clear()
                return
    _kahn(cfg)


def _sink(cfg: Config, p: Proc | Connect) -> bool:
    """Where every use points right but those of the newest entry p, move
    the entries that wait on p (the providers of its uses, transitively)
    to just after it, in their order, ranked on from top. This is _kahn's
    order: it places every entry that does not wait on p first, in order,
    then p, then those that do, in order. A moved process keeps what it is
    kept with, at the end of its kept list, and the tail is rebuilt where
    an acquirer moved; since no channel a moved entry uses has two clients,
    user_of reads as before. False, for _kahn to decide, where the walk
    meets two providers of one channel, a self-use, p (a cycle) or a
    channel with two clients."""
    offered, client = cfg.offered, cfg.client
    moved, todo = set(), [p]
    while todo:
        e = todo.pop()
        for c in (e.target,) if e.__class__ is Connect else e.uses:
            es = offered.get(c)
            if es is None:
                continue
            q = es[0]
            if len(es) > 1 or q is p or q is e or len(client.get(c, ())) > 1:
                return False
            if q not in moved:
                moved.add(q)
                todo.append(q)
    if not moved:  # p's edges are to channels it no longer uses
        return True
    ms = sorted(moved, key=_rank)
    theta, stepping, steps = cfg.theta, cfg.stepping, cfg.steps
    i = bisect_left(theta, ms[0].rank, key=_rank)
    theta[i:] = [e for e in theta[i:] if e not in moved] + ms
    # each kept process out at its old rank, in again at its new one; the
    # next enumeration rebuilds stale lists anyway
    for e in ms:
        k = e.kept if e.__class__ is Proc and not cfg.stale else None
        if type(k) is Step:
            i = bisect_left(stepping, e.rank, key=_rank)
            del stepping[i], steps[i]
            stepping.append(e)
            steps.append(k)
        elif k is not None:
            cfg.acquiring.remove(e)
            cfg.acquiring.append(e)
            cfg.tail = None
        e.rank = cfg.top
        cfg.top += 1
    return True


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
    x, m = p.env.get(x, x), p.names
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
    m = cfg.names
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
    kept lists by its marker. After a full re-sort the lists are emptied,
    every live linear process is marked and the one loop places them
    (_kept is pure, so in any order); the tail is rebuilt then, and
    otherwise only where the shared part, an alias, an acquirer or a name
    changed."""
    if cfg.stale:  # place every live linear process anew
        for e in cfg.stepping + cfg.acquiring:
            e.kept = None
        cfg.stepping, cfg.steps, cfg.acquiring = [], [], []
        cfg.dirty.update(e for e in cfg.theta if e.__class__ is Proc)
        cfg.stale = False
        cfg.tail = None
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
    cfg.epoch += 1
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
    if old != new:  # a channel forwarded to itself keeps its name
        cfg.names[old] = new
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
    fwd_ls: a stays behind as a linear alias of the shared b, which is
    left alone and not touched. A shared forwarder needs no dirty mark:
    the rename, or the alias's add, drops the tail. b is not touched:
    the rename leaves nothing offered, used, shared or in Γ at it."""
    t = p.tmpl
    a, b = p.name(t.offer), p.name(t.used)
    if rec.snap:
        rec.consumed.append(_record(p, True))
    rec.touched.add(a)
    if p.shared:
        del cfg.lam[a]
    else:
        cfg.drop(p)
    if isinstance(t, FwdLS):
        conn = Connect(a, b)
        cfg.add(conn)
        if rec.snap:
            rec.produced.append(_record(conn))
        return
    if rec.snap and isinstance(t, FwdLL):
        tgt = cfg.provider(b)
        if isinstance(tgt, Proc):
            rec.consumed.append(_record(tgt, True))
    g = cfg.gamma
    if a in g or b in g:  # the meet writes a, drops b: noted in Γ's order
        first = next(k for k in g if k == a or k == b)
        for k in (first, b if first == a else a):
            rec.gamma.setdefault(k, g.get(k))
    _rename_all(cfg, b, a)
    rec.renames[b] = a
    if rec.snap and (tgt := cfg.provider(a)) is not None:
        rec.produced.append(_record(tgt))


def _spawn(cfg: Config, rec: StepRecord, s: Proc, _u) -> None:
    """spawn_ll, spawn_ls, spawn_ss: s spawns a process at a fresh channel
    and continues with its binder bound to it. A shared argument is only
    read, so it is not touched."""
    if rec.snap:
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
    if rec.snap:
        rec.produced.append(_record(s))
    rec.touched |= {s.chan, c}


_SENDS = (SendChan, SendChanS, SendLabel, SendVal)


def _exchange(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """The binary linear rules between the provider p of a and its client
    u. Mirrored rules share this body: whichever side sends carries the
    channel, label or value, and the other side receives it. Both terms,
    the offer and the client's view of a advance together."""
    a = p.chan
    if rec.snap:
        rec.consumed += [_record(p), _record(u)]
    rec.touched |= {a, u.chan}
    if isinstance(p.tmpl, Close):
        if p.uses:  # their providers would be left with no client
            raise ProgressError(f"process at {a} closes while it still "
                                f"uses {', '.join(sorted(p.uses))}")
        cfg.drop(p)
        _resume(cfg, u, None)
        cfg.unuse(u, a)
        if rec.snap:
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
            rec.touched.add(y)
        else:
            msg = _alias(cfg, y, rec)  # y's session is left alone
        cfg.use(r, msg, rty.payload)
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
    if rec.snap:
        rec.produced += [_record(p), _record(u)]


def _acquire(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """up_sl, up_sl2: u acquires the available shared session p, directly
    or through a linear alias (consumed, not touched: nothing is left at
    its name); the session moves to the linear part at its unfolded type."""
    b = p.chan
    if rec.snap:
        rec.consumed += [_record(p), _record(u)]
    rec.touched |= {b, u.chan}
    if isinstance(u.tmpl, AcquireL):
        alias = cfg.provider(u.name(u.tmpl.chan))
        if rec.snap:
            rec.consumed.append(_record(alias))
        cfg.drop(alias)
        cfg.unuse(u, alias.chan)
    del cfg.lam[b]
    body = cfg.unf(p.offer).cont
    _resume(cfg, p, b)
    newp = Proc(b, p.tmpl, body, {}, False, cfg.names, p.env, p.base)
    cfg.add(newp)
    _resume(cfg, u, b)
    cfg.use(u, b, body)
    if rec.snap:
        rec.produced += [_record(newp), ("unavail", b, None), _record(u)]


def _release(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """down_sl, down_sl2: the session at c returns to the shared part and
    u lets go of it; a client releasing at a linear shift (down_sl2) keeps
    a fresh linear alias of c. A session that still uses channels halts
    the run before anything changes, as a close does (see _exchange)."""
    c = p.chan
    if p.uses:  # their providers would be left with no client
        raise ProgressError(f"process at {c} detaches while it still "
                            f"uses {', '.join(sorted(p.uses))}")
    if rec.snap:
        rec.consumed += [_record(p), _record(u), ("unavail", c, None)]
    cfg.drop(p)
    shared_ty = cfg.unf(p.offer).cont
    _resume(cfg, p, c)
    newp = Proc(c, p.tmpl, shared_ty, {}, True, cfg.names, p.env, p.base)
    cfg.lam[c] = newp
    rec.gamma.setdefault(c, cfg.gamma.get(c))
    cfg.gamma[c] = SharedC(shared_ty)
    cfg.epoch += 1
    cfg.dirty.add(newp)
    if rec.snap:
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
    if rec.snap:
        rec.produced.append(_record(u))
    rec.touched |= {c, u.chan}


_HANDLERS = {
    **dict.fromkeys(("fwd_ll", "fwd_ss", "fwd_ls"), _forward),
    **dict.fromkeys(("spawn_ll", "spawn_ls", "spawn_ss"), _spawn),
    **dict.fromkeys(("one", "tensor", "tensor_s", "lolli", "lolli_s",
                     "plus", "with", "val_out", "val_in", "up_ll",
                     "down_ll"), _exchange),
    **dict.fromkeys(("up_sl", "up_sl2"), _acquire),
    **dict.fromkeys(("down_sl", "down_sl2"), _release),
}
# the rules whose every moved process moves as the checker moves its
# context, and which change no other process's context (see _recheck)
_PREDICTED = frozenset(r for r, h in _HANDLERS.items()
                       if h is _exchange or h is _spawn)


def apply_step(cfg: Config, step: Step) -> StepRecord:
    rec = StepRecord(step.rule, [], [], [], {}, set(), {}, cfg.snap)
    prov = cfg.provider(step.provider)
    user = None if step.user is None else cfg.provider(step.user)
    _HANDLERS[step.rule](cfg, rec, prov, user)
    _retopo(cfg)
    return rec


# --------------------------------------------------------------------------- #
# Monitor
# --------------------------------------------------------------------------- #

def _tid(g: TypeGraph, t: SessionType) -> int:
    """t's id in g: by identity where t is a pinned type or a subterm of
    one or of a body. Else t is a type the run built: a client's view
    after down_sl2, one per body (ProcSignature.views), which is pinned the
    first time the monitor reads it, or a meet's result, which is interned
    each time."""
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
    TypeGraph.intern) takes the memo with it.

    The memo starts with the root of every body the static check passed
    (ProcSignature.checked) under its declared context (see _root), so a
    new instance's first recheck is a lookup. This is exact, in three
    parts. (1) The memo's own argument (see _passes): where the free
    names stand for the channels one to one, the verdict is a function of
    each name's class, and the static check had exactly the classes of
    the key: the offer with no view, each linear parameter at its
    declared type, each shared parameter at its declared constraint, and
    any other free name, a literal, unbound. It named each binder as the
    template does and passed only where none shadows a name in scope, so
    naming them afresh, as a closure does, changes no test. An env that a
    meet extended (see _rename_all) only adds names, so a context of
    declared types decides under it as under the program's env. (2) The
    static check read the parsed body, and the key names the elaborated
    one: each elaborated action checks as its generic action (_PLAN),
    every forward as a forward, and a spawn's kinds are recomputed, never
    read, so the two decide alike. (3) A shared instance also has its own
    Γ entry, SharedC of its offer type (see _spawn_shared), which the
    static context lacks, and the key holds it. A body that checked never
    reads it: every rule that reads Γ at a name (an acquire, a shared
    payload, a forward, a spawn's argument) fails statically at the
    offer's name, which is in neither Γ nor Δ there, so no passing check
    makes that read. Where the offer is an action's own subject (an
    accept, a forward offering it), it is compared by name, not read in
    Γ, and an accept binds the offer to a fresh name from then on."""
    ck, env, memo = cfg.ck, cfg.env, cfg.sig.memo
    g = env.graph
    m = memo.get(id(env))
    if m is None or m[2] is not g:
        seeds: set[tuple] = set()
        try:
            for d in cfg.sig.defs:
                g.pin(d.offer_ty)
                for prm in d.params:
                    g.pin(prm.ty)
            seeds.update(_root(g, cfg.sig.free, d) for d in cfg.sig.checked)
        except (KeyError, TypeError_):
            pass  # a malformed type: the judgment posing it raises
        memo[id(env)] = (env, seeds, g)
    if ck is None or ck.env is not env:
        ck = cfg.ck = _Ck(env, cfg.sig)
    return ck


def _root(g: TypeGraph, free: dict, d: ProcDef) -> tuple:
    """The memo key (see _passes) of d's body at its root under its
    declared context (see _checker)."""
    a = _tid(g, d.offer_ty)
    cls = {d.offer: (True, None, a if d.offer_shared else None)}
    for prm in d.params:
        t = _tid(g, prm.ty)
        cls[prm.chan] = t if prm.shared else (False, t, None)
    return (id(d.body), d.offer_shared, a,
            tuple([cls.get(y) for y in free[id(d.body)]]))


def _passes(cfg: Config, ck: _Ck, p: Proc) -> bool:
    """Whether p's template, read as a closure (see _Ck.check), checks
    under Γ, p's uses and p's channel, as its forced term would; a failure
    leaves ck.diags worded as that check words it. Where the free names
    stand for distinct linear channels (Γ is only read and extended, so
    two may stand for one shared channel), the offer and every use among
    them, the verdict is a function of each name's class, so a context
    the suffix from p's node passed under before is found in the
    signature's memo: (node, shared, offer, per free name its constraint,
    or for the offer and a use (is it the offer, its view, its
    constraint)), in graph ids, a constraint being TOP_ID, BOT_ID or a
    shared type's id. A miss records, on a pass, the context at every
    node of its spine (see _recorder). Any other context has no key."""
    t, chan, gamma, env = p.tmpl, p.chan, cfg.gamma, cfg.env
    g, free = env.graph, cfg.sig.free
    uses = {} if p.shared else p.uses  # the shared judgment has no Δ
    ren, m = p.env, p.names
    cls, lin, dup = [], set(), False
    for y in free[id(t)]:
        r = ren.get(y, y)
        if r in m:
            r = _find(m, r)
        d, c = uses.get(r), gamma.get(r)
        if c is not None:
            c = _cid(g, c)
        if r == chan or d is not None:
            dup = dup or r in lin
            lin.add(r)
            if d is not None:
                d = _tid(g, d)
            c = (r == chan, d, c)
        cls.append(c)
    record = None
    if not dup and chan in lin and lin.issuperset(uses):
        memo = cfg.sig.memo[id(env)][1]
        if (id(t), p.shared, _tid(g, p.offer), tuple(cls)) in memo:
            return True
        record = _recorder(g, free, out := [])
    ck.diags.clear()
    names = {y: p.name(y) for y in free[id(t)]}
    clo = names, map("%g{}".format, count(p.base)).__next__
    el = (ck.shared(gamma, {}, t, chan, p.offer, record, clo) if p.shared
          else ck.linear(gamma, uses, {}, t, chan, p.offer, record, clo))
    if el is not None and record is not None:
        memo.update(out)
    return el is not None


def _recorder(g: TypeGraph, free: dict, out: list):
    """The callback by which a recheck miss appends to out the memo key of
    each node of its spine (see _passes and _Ck.check), reading each free
    name y of the node as the channel names[y]. A free name's class is
    built once per (Δ entry, Γ entry, is-offer), compared by identity,
    and reused along the spine. Built here, it leaves _passes no closure
    cells, so _passes reads g and free as plain locals."""
    seen: dict[str, tuple] = {}

    def record(node, gamma, delta, x, a, shared, names):
        ta, cls = _tid(g, a), []
        for y in free[id(node)]:
            r = names[y]
            d, c, o, s = delta.get(r), gamma.get(r), r == x, seen.get(y)
            if s is None or s[0] is not d or s[1] is not c or s[2] is not o:
                k = None if d is None else _tid(g, d)
                i = None if c is None else _cid(g, c)
                s = seen[y] = (d, c, o, (o, k, i) if o or k is not None else i)
            cls.append(s[3])
        out.append((id(node), shared, ta, tuple(cls)))
    return record


def _recheck(cfg: Config, ck: _Ck, p: Proc,
             predicted: bool = False) -> str | None:
    """The violation of p's recheck, if any: p's stamp decides it where it
    can, else _passes. After a predicted step (one of _PREDICTED), p
    passes at once where its stamp is current (no Γ overwrite or forward
    since it was taken) and p is at the stamped node or one step table
    edge past it. This is exact: the check that passed at the stamped node
    went on to check the suffix from each node one edge on, under the
    context it moved to, and a predicted rule moves each process it moves
    as the checker does (its binder standing for what the step binds,
    where the check named it afresh) and no other. That holds whether the
    check was keyed or not, so every pass stamps."""
    t, s = p.tmpl, p.stamp
    if predicted and s is not None and s[1] == cfg.epoch:
        e = cfg.sig.steps[id(s[0])]
        if s[0] is t or (e[0] is t if e.__class__ is tuple
                         else any(b[0] is t for b in e.values())):
            p.stamp = (t, s[1])
            return None
    ok = _passes(cfg, ck, p)
    p.stamp = (t, cfg.epoch) if ok else None
    return None if ok else f"process at {p.chan} no longer typechecks: " \
        + "; ".join(ck.diags)


def _linear_fault(cfg: Config, ck: _Ck, e: Proc | Connect,
                  predicted: bool = False) -> str | None:
    """The violation at one entry of the linear part, if any: an alias's
    constraint must refine its client's view, and a process's offer be a
    subtype of its client's view (of itself, without one) and subsynchronize
    with it under its obligation, judged on graph ids (see _tid); then a
    process is rechecked (see _recheck)."""
    u, g = cfg.user_of(e.chan), cfg.env.graph
    if e.__class__ is Connect:
        con = cfg.gamma.get(e.target)
        if u is None or con.__class__ is SharedC and sub_ids(
                g, _tid(g, con.ty), _tid(g, u.uses[e.chan])):
            return None
        return (f"alias {e.chan} -> {e.target}: shared constraint "
                f"does not refine the client view")
    a = _tid(g, e.offer)
    b = a if u is None else _tid(g, u.uses[e.chan])
    if not (sub_ids(g, a, b) and ssync_ids(
            g, a, b, _cid(g, cfg.gamma.get(e.chan, BOT)))):
        return (f"linear {e.chan}: offer type no longer synchronizes "
                f"with the client view under its release obligation")
    return _recheck(cfg, ck, e, predicted)


def _relevant(cfg: Config, touched) -> tuple[dict, list[str], list[str]]:
    """In one pass over the touched channels: the linear entries offering
    one or an alias of one, by id; the shared sessions at one; and those
    with two providers. An entry's check reads its record, its client's
    view of its channel and Γ, and every handler touches the channel of
    each record, client's view, alias and Γ entry it changes (a forward
    renames consistently). So neither a client of a touched channel nor
    the session an alias stands for, left alone, is rechecked."""
    offered, aliases, lam = cfg.offered, cfg.aliases, cfg.lam
    linear, shared, dup = {}, [], []
    for c in touched:
        es, up = offered.get(c, ()), c in lam
        if len(es) + up > 1:
            dup.append(c)
        if up:
            shared.append(c)
        for e in (*es, *aliases.get(c, ())):
            linear[id(e)] = e
    return linear, shared, dup


def monitor_check(cfg: Config, touched: set[str] | None = None,
                  rule: str | None = None) -> str | None:
    """Recheck the typing records of the touched channels (every channel
    when touched is None). Returns a violation message or None. rule is
    the step's, given where the monitor checked every step before it:
    after a predicted rule, a recheck that a stamp decides builds no key
    (see _recheck). Without it, every recheck is decided in full.

    One pass over the touched channels gives the entries, sessions and
    duplicate providers to check (see _relevant); a step can make a second
    provider only at a channel it touches. The linear entries are walked
    once, in the order of the linear part (by rank), so the first failing
    entry names the violation, as a walk of the whole linear part would."""
    if touched is None:
        touched = cfg.offered.keys() | cfg.lam.keys()
    predicted = rule in _PREDICTED
    relevant, shared, dup = _relevant(cfg, touched)
    if dup:
        return f"well-formedness: multiple providers for {sorted(dup)}"
    ck, g = _checker(cfg), cfg.env.graph
    for e in sorted(relevant.values(), key=_rank):
        if (v := _linear_fault(cfg, ck, e, predicted)) is not None:
            return v
    for a in sorted(shared):
        p = cfg.lam[a]
        con = cfg.gamma.get(a)
        if not isinstance(con, SharedC):
            return f"shared {a}: no shared constraint recorded"
        o, c = _tid(g, p.offer), _tid(g, con.ty)
        if not (sub_ids(g, o, c) and ssync_ids(g, o, c, TOP_ID)):
            return (f"shared {a}: offer type does not equi-synchronize "
                    f"with its recorded constraint")
        if (v := _recheck(cfg, ck, p, predicted)) is not None:
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


def _check_gamma_monotone(cfg: Config, rec: StepRecord) -> str | None:
    """Every constraint of Γ before the step is still there after it, at
    or below where it was, checked at the entries the step wrote
    (rec.gamma), but for a shared spawn's, new at a fresh channel. An entry
    no handler wrote is the object it was, which the order, being
    reflexive, keeps; so this reports what a walk of the whole of Γ before
    the step would, in its order."""
    for k, c in rec.gamma.items():
        if c is None:
            continue  # the step made this entry
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
    cfg.snap = trace is not None
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
            v = _check_gamma_monotone(cfg, rec)
            if v is None:
                v = monitor_check(cfg, rec.touched, rec.rule)
            if v is not None:
                return RunResult(RunStatus.MONITOR_VIOLATION, n, v, cfg)
    return RunResult(RunStatus.MAX_STEPS, n, None, cfg)

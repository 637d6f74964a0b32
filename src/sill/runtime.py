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
The monitor rechecks the touched records after each step; any failure is
reported as a violation instead of silently continuing, which is what
makes broken release points observable at runtime.

The configuration indexes its linear part by channel (who offers it, who
uses it, which aliases stand for it), so neither step enumeration nor the
monitor scans for a provider or a client. Each linear process memoizes its
enabled step and its last passing recheck, keyed by what they read.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .types import (
    UpLL, SessionType, TypeDefEnv, ConstraintType, SharedC, BOT, TOP, unfold,
)
from .subtype import is_subtype
from .synchro import is_ssync, meet, cleq, SsyncPreconditionError
from .procast import (
    FwdLL, FwdSS, FwdLS, Spawn, Close, Wait,
    SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
    Acquire, AcquireL, Accept, AcceptL, Release, ReleaseL, Detach, DetachL,
    SendVal, RecvVal, ProcessTerm, ProcDef, ProcSignature, SUBJECT,
    substitute, freshen,
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


@dataclass
class Proc:
    chan: str
    term: ProcessTerm
    offer: SessionType
    uses: dict[str, SessionType]
    shared: bool
    # (term, chan, client, client's chan, client's term, step) of the last
    # enumeration, and (chan, term, offer, uses, Gamma, env) of the last
    # passing recheck; see _enabled and _linear_fault
    step_memo: tuple | None = field(default=None, compare=False, repr=False)
    check_memo: tuple | None = field(default=None, compare=False, repr=False)


@dataclass
class Connect:
    chan: str
    target: str


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
    # the linear part by channel: the entries offering it, the processes
    # using it and the aliases of it. Only the methods below and
    # _rename_all change the linear part, and they keep these in step.
    offered: dict[str, list] = field(default_factory=dict)
    client: dict[str, list[Proc]] = field(default_factory=dict)
    aliases: dict[str, list[Connect]] = field(default_factory=dict)

    def fresh(self) -> str:
        name = f"%g{self.counter}"
        self.counter += 1
        return name

    def _first(self, es: list):
        """Of two or more entries es, the first in the linear part, as a
        scan would find it; a well-formed configuration has only one."""
        ids = {id(e) for e in es}
        return next(e for e in self.theta if id(e) in ids)

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
        """Append e to the linear part."""
        self.theta.append(e)
        self.offered.setdefault(e.chan, []).append(e)
        if isinstance(e, Connect):
            self.aliases.setdefault(e.target, []).append(e)
        else:
            for c in e.uses:
                self.client.setdefault(c, []).append(e)

    def drop(self, e: Proc | Connect) -> None:
        """Take e (the first entry equal to it) out of the linear part."""
        e = self.theta.pop(self.theta.index(e))
        _unindex(self.offered, e.chan, e)
        if isinstance(e, Connect):
            _unindex(self.aliases, e.target, e)
        else:
            for c in e.uses:
                _unindex(self.client, c, e)

    def use(self, p: Proc, c: str, ty: SessionType) -> None:
        """p uses c at view ty; a shared session is nobody's client."""
        if c not in p.uses and not p.shared:
            self.client.setdefault(c, []).append(p)
        p.uses[c] = ty

    def unuse(self, p: Proc, c: str) -> None:
        """p no longer uses c."""
        if c in p.uses:
            del p.uses[c]
            if not p.shared:
                _unindex(self.client, c, p)

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
    frozen term or the alias target; formatted only for a trace."""
    if isinstance(e, Connect):
        return ("connect", e.chan, e.target)
    return ("procS" if e.shared else "procL", e.chan, e.term)


def _trace_pred(r: tuple) -> dict:
    """The trace form of a predicate snapshot."""
    kind, chan, x = r
    if kind == "unavail":
        return {"kind": kind, "chan": chan}
    if kind == "connect":
        return {"kind": kind, "chan": chan, "target": x}
    return {"kind": kind, "chan": chan,
            "term": " ".join(format_proc(x).split())}


def _alias(cfg: Config, target: str, rec: StepRecord) -> str:
    """Install a fresh linear name standing for the shared channel target:
    the alias predicate, recorded with its unavailability marker."""
    alias = cfg.fresh()
    rec.fresh.append(alias)
    conn = Connect(alias, target)
    cfg.add(conn)
    rec.produced += [_record(conn), ("unavail", alias, None)]
    return alias


def _instantiate_body(cfg: Config, d: ProcDef, chan: str,
                      actuals: dict[str, str]) -> ProcessTerm:
    return freshen(d.body, cfg.fresh, actuals | {d.offer: chan})


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
    body = _instantiate_body(cfg, d, chan, actuals)
    p = Proc(chan, body, d.offer_ty, uses, shared=False)
    cfg.add(p)
    rec.produced += [_record(p), ("unavail", chan, None)]


def _spawn_shared(cfg: Config, d: ProcDef, chan: str,
                  args: tuple[str, ...], rec: StepRecord) -> None:
    actuals = {prm.chan: arg for prm, arg in zip(d.params, args)}
    body = _instantiate_body(cfg, d, chan, actuals)
    p = Proc(chan, body, d.offer_ty, {}, shared=True)
    cfg.lam[chan] = p
    cfg.gamma[chan] = SharedC(d.offer_ty)
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
    no entry still to place uses (Kahn's algorithm, ready entries taken by
    position). An entry using its own channel is always ready."""
    theta = cfg.theta
    pos = {e.chan: i for i, e in enumerate(theta)}
    uses = [[pos[c] for c in ((e.target,) if isinstance(e, Connect)
                              else e.uses) if c in pos] for e in theta]
    # an entry using its own channel is always ready: none waits on it
    free = {i for i, us in enumerate(uses) if i in us}
    if free:
        uses = [[j for j in us if j not in free] for us in uses]
    users = [0] * len(theta)  # per entry, its users still to place
    for us in uses:
        for j in us:
            users[j] += 1
    ready = [i for i, n in enumerate(users) if n == 0]
    out = []
    while ready:
        i = heappop(ready)
        out.append(theta[i])
        for j in uses[i]:
            users[j] -= 1
            if users[j] == 0:
                heappush(ready, j)
    # defensive: a usage cycle cannot arise from well-typed steps
    out += [e for i, e in enumerate(theta) if users[i]]
    cfg.theta = out


# --------------------------------------------------------------------------- #
# Step enumeration
# --------------------------------------------------------------------------- #

def _subject(p: Proc):
    """(channel, action) pair of the next action; the channel is None for
    spawns and forwards, which act on their own."""
    t = p.term
    f = SUBJECT.get(type(t))
    return (None if f is None else getattr(t, f)), t


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
    """The step the linear process e drives: a forward or a spawn of its
    own, or its action on its own channel with the matching one of its
    client there; for a direct acquire, the step it takes once the session
    accepts. Memoized on e while e's term and channel, its client and the
    client's channel and term are the same as before."""
    t, a = e.term, e.chan
    f = SUBJECT.get(type(t))
    u = cfg.user_of(a) if f is not None and getattr(t, f) == a else None
    m = e.step_memo
    if m is not None and m[0] is t and m[1] == a and m[2] is u and (
            u is None or m[3] == u.chan and m[4] is u.term):
        return m[5]
    step = None
    if f is None:
        match t:
            case FwdLL(_, _):
                step = Step("fwd_ll", a)
            case FwdLS(_, _):
                step = Step("fwd_ls", a)
            case Spawn(_, _, _, _, _) if _spawnable(cfg, t):
                d = cfg.sig.lookup(t.proc)
                step = Step("spawn_ls" if d.offer_shared else "spawn_ll", a)
    elif isinstance(t, Acquire):
        step = Step("up_sl", t.chan, a)
    elif u is not None:
        uc, ut = _subject(u)
        rule = _PAIRS.get((type(t), type(ut))) if uc == a else None
        # a case needs a branch for the sent label
        if rule is not None and not (
                rule == "plus" and t.label not in ut.labels()
                or rule == "with" and ut.label not in t.labels()):
            step = Step(rule, a, u.chan)
    e.step_memo = (t, a, u, u and u.chan, u and u.term, step)
    return step


def enumerate_steps(cfg: Config) -> list[Step]:
    steps: list[Step] = []
    acquirers: list[tuple[Proc, Step | None]] = []
    for e in cfg.theta:
        if isinstance(e, Proc):
            step = _enabled(cfg, e)
            if isinstance(e.term, (Acquire, AcquireL)):
                acquirers.append((e, step))
            elif step is not None:
                steps.append(step)
    for a in sorted(cfg.lam):
        p = cfg.lam[a]
        match p.term:
            case FwdSS(_, _):
                steps.append(Step("fwd_ss", a))
                continue
            case Spawn(_, _, _, _, _) if _spawnable(cfg, p.term):
                steps.append(Step("spawn_ss", a))
                continue
            case Accept(_, c, _) if c == a:
                # every pending acquirer of this session is a separate step
                for e, step in acquirers:
                    if step is not None:
                        if step.provider == a:
                            steps.append(step)
                        continue
                    tgt = cfg.provider(e.term.chan)
                    if isinstance(tgt, Connect) and tgt.target == a:
                        steps.append(Step("up_sl2", a, e.chan))
    return steps


# --------------------------------------------------------------------------- #
# Applying a step
# --------------------------------------------------------------------------- #

def _rename_all(cfg: Config, old: str, new: str) -> None:
    ren = {old: new}
    for m, f in ((cfg.offered, "chan"), (cfg.aliases, "target")):
        for e in m.pop(old, ()):
            setattr(e, f, new)
            m.setdefault(new, []).append(e)
    for e in cfg.client.pop(old, ()):
        if new not in e.uses:
            cfg.client.setdefault(new, []).append(e)
        e.uses[new] = e.uses.pop(old)
    for e in cfg.theta:
        if isinstance(e, Proc):
            e.term = substitute(e.term, ren)
    for a in list(cfg.lam):
        p = cfg.lam[a]
        p.term = substitute(p.term, ren)
        if a == old:
            p.chan = new
            cfg.lam[new] = cfg.lam.pop(old)
    if old in cfg.gamma or new in cfg.gamma:
        # a name with no entry is linear: never available
        cfg.gamma[new], cfg.env = meet(cfg.env, cfg.gamma.get(new, BOT),
                                       cfg.gamma.pop(old, BOT))


_SENDS = (SendChan, SendChanS, SendLabel, SendVal)


def _resume(t: ProcessTerm, msg: str) -> ProcessTerm:
    """The continuation of a synchronizing action: a case takes the branch
    of label msg, an action with a binder binds it to msg."""
    if isinstance(t, CaseRecv):
        return t.branch(msg)
    if isinstance(t, (Wait,) + _SENDS):
        return t.cont
    return substitute(t.cont, {t.binder: msg})


def _forward(cfg: Config, rec: StepRecord, p: Proc, _u) -> None:
    """fwd_ll, fwd_ss: the forwarder at a leaves and b is renamed to a.
    fwd_ls: a stays behind as a linear alias of the shared b."""
    a, b = p.term.offer, p.term.used
    rec.consumed.append(_record(p))
    rec.touched |= {a, b}
    if p.shared:
        del cfg.lam[a]
    else:
        cfg.drop(p)
    if isinstance(p.term, FwdLS):
        conn = Connect(a, b)
        cfg.add(conn)
        rec.produced.append(_record(conn))
        return
    if isinstance(p.term, FwdLL):
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
    sp: Spawn = s.term
    d = cfg.sig.lookup(sp.proc)
    c = cfg.fresh()
    rec.fresh.append(c)
    if d.offer_shared:
        _spawn_shared(cfg, d, c, sp.args, rec)
    else:
        _spawn_linear(cfg, s, d, c, sp.args, sp.kinds, rec)
        cfg.use(s, c, d.offer_ty)
    s.term = substitute(sp.cont, {sp.binder: c})
    rec.produced.append(_record(s))
    rec.touched |= {s.chan, c} | set(sp.args)


def _exchange(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """The binary linear rules between the provider p of a and its client
    u. Mirrored rules share this body: whichever side sends carries the
    channel, label or value, and the other side receives it. Both terms,
    the offer and the client's view of a advance together."""
    a = p.chan
    rec.consumed += [_record(p), _record(u)]
    rec.touched |= {a, u.chan}
    if isinstance(p.term, Close):
        cfg.drop(p)
        u.term = u.term.cont
        cfg.unuse(u, a)
        rec.produced.append(_record(u))
        return
    offer, view = cfg.unf(p.offer), cfg.unf(u.uses[a])
    # the sender, the receiver and the receiver's type of a
    s, r, rty = (u, p, offer) if isinstance(u.term, _SENDS) \
        else (p, u, view)
    match s.term:
        case SendChan(_, y, _) | SendChanS(_, y, _):
            if isinstance(s.term, SendChan):
                cfg.unuse(s, y)
                msg = y
            else:
                msg = _alias(cfg, y, rec)
            cfg.use(r, msg, rty.payload)
            rec.touched.add(y)
        case SendLabel(_, msg, _) | SendVal(_, msg, _):
            pass
        case _:
            msg = a  # linear shifts: both sides bind a itself
    if isinstance(s.term, SendLabel):
        p.offer, u.uses[a] = offer.branch(msg), view.branch(msg)
    else:
        p.offer, u.uses[a] = offer.cont, view.cont
    p.term, u.term = _resume(p.term, msg), _resume(u.term, msg)
    rec.produced += [_record(p), _record(u)]


def _acquire(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """up_sl, up_sl2: u acquires the available shared session p, directly
    or through a linear alias (which the acquire consumes); the session
    moves to the linear part at its unfolded type."""
    b = p.chan
    rec.consumed += [_record(p), _record(u)]
    rec.touched |= {b, u.chan}
    if isinstance(u.term, AcquireL):
        alias = cfg.provider(u.term.chan)
        rec.consumed.append(_record(alias))
        cfg.drop(alias)
        cfg.unuse(u, alias.chan)
        rec.touched.add(alias.chan)
    del cfg.lam[b]
    body = cfg.unf(p.offer).cont
    newp = Proc(b, _resume(p.term, b), body, {}, shared=False)
    cfg.add(newp)
    u.term = _resume(u.term, b)
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
    newp = Proc(c, _resume(p.term, c), shared_ty, {}, shared=True)
    cfg.lam[c] = newp
    cfg.gamma[c] = SharedC(shared_ty)
    rec.produced.append(_record(newp))
    cfg.unuse(u, c)
    name = c
    if isinstance(u.term, ReleaseL):
        name = _alias(cfg, c, rec)
        cfg.use(u, name, UpLL(cfg.unf(shared_ty).cont))
    u.term = _resume(u.term, name)
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
    rec.touched |= set(rec.renames) | set(rec.renames.values())
    return rec


# --------------------------------------------------------------------------- #
# Monitor
# --------------------------------------------------------------------------- #

def _linear_fault(cfg: Config, ck: _Ck, e: Proc | Connect,
                  memo: bool) -> str | None:
    """The violation at one entry of the linear part, if any. The recheck
    of a process is a pure function of its channel, term, offer and uses,
    Gamma and the type environment, so with memo set it is skipped when
    all of them equal those of the last recheck it passed."""
    env = cfg.env
    u = cfg.user_of(e.chan)
    if isinstance(e, Connect):
        con = cfg.gamma.get(e.target)
        if u is None or isinstance(con, SharedC) and \
                is_subtype(env, con.ty, u.uses[e.chan]):
            return None
        return (f"alias {e.chan} -> {e.target}: shared constraint "
                f"does not refine the client view")
    view = u.uses[e.chan] if u is not None else e.offer
    try:
        ok = is_subtype(env, e.offer, view) and \
            is_ssync(env, e.offer, view, cfg.gamma.get(e.chan, BOT))
    except SsyncPreconditionError:
        ok = False
    if not ok:
        return (f"linear {e.chan}: offer type no longer synchronizes "
                f"with the client view under its release obligation")
    key = (e.chan, e.term, e.offer, e.uses, cfg.gamma, env)
    if memo and e.check_memo == key:
        return None
    ck.diags.clear()
    if ck.linear(cfg.gamma, e.uses, {}, e.term, e.chan, e.offer) is None:
        return f"process at {e.chan} no longer typechecks: " \
               + "; ".join(ck.diags)
    e.check_memo = key[:3] + (dict(e.uses), dict(cfg.gamma), env)
    return None


def _relevant(cfg: Config, touched: set[str]) -> dict[int, Proc | Connect]:
    """The entries of the linear part that offer or use a touched channel
    or are an alias of one, by id."""
    return {id(e): e for c in touched
            for m in (cfg.offered, cfg.client, cfg.aliases)
            for e in m.get(c, ())}


def monitor_check(cfg: Config, touched: set[str] | None = None) -> str | None:
    """Recheck the typing records of the touched channels (all of them when
    touched is None). Returns a violation message or None.

    With touched given, the entries to recheck come from the indexes: the
    entries offering or using a touched channel and the aliases of one.
    They are checked in any order first; only if one fails are they walked
    again in the order of the linear part, so the first failing entry
    names the violation, as a full walk would. A step can make a second
    provider only at a channel it touches, so duplicates are looked for
    there alone once the initial configuration has passed."""
    if touched is None:
        chans = [e.chan for e in cfg.theta] + list(cfg.lam)
        dup = {c for c in chans if chans.count(c) > 1} \
            if len(chans) != len(set(chans)) else ()
    else:
        dup = [c for c in touched
               if len(cfg.offered.get(c, ())) + (c in cfg.lam) > 1]
    if dup:
        return f"well-formedness: multiple providers for {sorted(dup)}"
    ck = _Ck(cfg.env, cfg.sig)
    if touched is None:
        linear = cfg.theta
    else:
        relevant, linear = _relevant(cfg, touched), ()
        for e in relevant.values():
            if _linear_fault(cfg, ck, e, True) is not None:
                linear = [e for e in cfg.theta if id(e) in relevant]
                break
    for e in linear:
        v = _linear_fault(cfg, ck, e, touched is not None)
        if v is not None:
            return v
    env = cfg.env
    for a in sorted(cfg.lam if touched is None else cfg.lam.keys() & touched):
        p = cfg.lam[a]
        con = cfg.gamma.get(a)
        if not isinstance(con, SharedC):
            return f"shared {a}: no shared constraint recorded"
        try:
            ok = is_subtype(env, p.offer, con.ty) and \
                is_ssync(env, p.offer, con.ty, TOP)
        except SsyncPreconditionError:
            ok = False
        if not ok:
            return (f"shared {a}: offer type does not equi-synchronize "
                    f"with its recorded constraint")
        ck.diags.clear()
        if ck.shared(cfg.gamma, {}, p.term, a, p.offer) is None:
            return f"process at {a} no longer typechecks: " \
                   + "; ".join(ck.diags)
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
    match p.term:
        case Acquire(_, b, _):
            return b not in cfg.lam
        case AcquireL(_, b, _):
            tgt = cfg.provider(b)
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
    for k, c in before.items():
        nk = rec.renames.get(k, k)
        if nk not in cfg.gamma:
            return f"shared context: constraint for {k} disappeared"
        if not cleq(cfg.env, cfg.gamma[nk], c):
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

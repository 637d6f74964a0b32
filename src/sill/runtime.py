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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
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


@dataclass
class Connect:
    chan: str
    target: str


@dataclass
class Config:
    env: TypeDefEnv
    sig: ProcSignature
    theta: list  # Proc (linear) | Connect, ordered
    lam: dict[str, Proc]  # available shared sessions
    gamma: dict[str, ConstraintType]  # shared channels only
    counter: int = 0

    def fresh(self) -> str:
        name = f"%g{self.counter}"
        self.counter += 1
        return name

    def provider(self, chan: str) -> Proc | Connect | None:
        for e in self.theta:
            if e.chan == chan:
                return e
        return self.lam.get(chan)

    def user_of(self, chan: str) -> Proc | None:
        for e in self.theta:
            if isinstance(e, Proc) and chan in e.uses:
                return e
        return None

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
    cfg.theta.append(conn)
    rec.produced += [_record(conn), ("unavail", alias, None)]
    return alias


def _instantiate_body(cfg: Config, d: ProcDef, chan: str,
                      actuals: dict[str, str]) -> ProcessTerm:
    return freshen(d.body, cfg.fresh, actuals | {d.offer: chan})


def _spawn_linear(cfg: Config, spawner_uses: dict[str, SessionType],
                  d: ProcDef, chan: str, args: tuple[str, ...],
                  kinds: tuple[str, ...], rec: StepRecord) -> None:
    """Shared machinery of the spawn rules for a linear target: builds the
    new process record, routes each argument by its kind (a linear one
    moves out of spawner_uses, a shared one passed as linear gets an
    alias) and records the new channel as unavailable."""
    uses: dict[str, SessionType] = {}
    actuals: dict[str, str] = {}
    for arg, prm, kind in zip(args, d.params, kinds):
        if kind == "lin":
            spawner_uses.pop(arg, None)
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
    cfg.theta.append(p)
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
    _spawn_linear(cfg, {}, d, cfg.fresh(), margs, kinds, rec)
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


def _spawnable(cfg: Config, t: Spawn) -> bool:
    """An unelaborated spawn of a linear session has no argument kinds to
    route by, and one of an undefined process nothing to instantiate: like
    an unelaborated forward, neither steps."""
    return t.proc in cfg.sig and (t.kinds is not None
                                  or cfg.sig.lookup(t.proc).offer_shared)


def enumerate_steps(cfg: Config) -> list[Step]:
    # one pass for what Config.provider and Config.user_of would find
    offered: dict[str, Proc | Connect] = {}
    client: dict[str, Proc] = {}
    acquirers: list[Proc] = []
    for e in cfg.theta:
        offered.setdefault(e.chan, e)
        if isinstance(e, Proc):
            for c in e.uses:
                client.setdefault(c, e)
            if isinstance(e.term, (Acquire, AcquireL)):
                acquirers.append(e)
    steps: list[Step] = []
    for e in cfg.theta:
        if isinstance(e, Connect):
            continue
        a = e.chan
        c, t = _subject(e)
        if c is None:
            match t:
                case FwdLL(_, _):
                    steps.append(Step("fwd_ll", a))
                case FwdLS(_, _):
                    steps.append(Step("fwd_ls", a))
                case Spawn(_, _, _, _, _) if _spawnable(cfg, t):
                    d = cfg.sig.lookup(t.proc)
                    rule = "spawn_ls" if d.offer_shared else "spawn_ll"
                    steps.append(Step(rule, a))
            continue
        if c != a:
            continue  # user-side action; the matching provider drives it
        u = client.get(a)
        uc, ut = _subject(u) if u is not None else (None, None)
        rule = _PAIRS.get((type(t), type(ut))) if uc == a else None
        if rule is None:
            continue
        if rule == "plus" and t.label not in ut.labels() \
                or rule == "with" and ut.label not in t.labels():
            continue  # the case has no branch for the sent label
        steps.append(Step(rule, a, u.chan))
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
                for e in acquirers:
                    match e.term:
                        case Acquire(_, b, _) if b == a:
                            steps.append(Step("up_sl", a, e.chan))
                        case AcquireL(_, b, _):
                            tgt = offered.get(b)
                            if isinstance(tgt, Connect) and tgt.target == a:
                                steps.append(Step("up_sl2", a, e.chan))
    return steps


# --------------------------------------------------------------------------- #
# Applying a step
# --------------------------------------------------------------------------- #

def _rename_all(cfg: Config, old: str, new: str) -> None:
    ren = {old: new}
    for e in cfg.theta:
        if isinstance(e, Connect):
            if e.chan == old:
                e.chan = new
            if e.target == old:
                e.target = new
        else:
            if e.chan == old:
                e.chan = new
            e.term = substitute(e.term, ren)
            if old in e.uses:
                e.uses[new] = e.uses.pop(old)
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
        cfg.theta.remove(p)
    if isinstance(p.term, FwdLS):
        conn = Connect(a, b)
        cfg.theta.append(conn)
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
        _spawn_linear(cfg, s.uses, d, c, sp.args, sp.kinds, rec)
        s.uses[c] = d.offer_ty
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
        cfg.theta.remove(p)
        u.term = u.term.cont
        u.uses.pop(a, None)
        rec.produced.append(_record(u))
        return
    offer, view = cfg.unf(p.offer), cfg.unf(u.uses[a])
    # the sender, the receiver and the receiver's type of a
    s, r, rty = (u, p, offer) if isinstance(u.term, _SENDS) \
        else (p, u, view)
    match s.term:
        case SendChan(_, y, _) | SendChanS(_, y, _):
            if isinstance(s.term, SendChan):
                s.uses.pop(y, None)
                msg = y
            else:
                msg = _alias(cfg, y, rec)
            r.uses[msg] = rty.payload
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
        cfg.theta.remove(alias)
        u.uses.pop(alias.chan, None)
        rec.touched.add(alias.chan)
    del cfg.lam[b]
    body = cfg.unf(p.offer).cont
    newp = Proc(b, _resume(p.term, b), body, {}, shared=False)
    cfg.theta.append(newp)
    u.term = _resume(u.term, b)
    u.uses[b] = body
    rec.produced += [_record(newp), ("unavail", b, None),
                     _record(u)]


def _release(cfg: Config, rec: StepRecord, p: Proc, u: Proc) -> None:
    """down_sl, down_sl2: the session at c returns to the shared part and
    u lets go of it; a client releasing at a linear shift (down_sl2) keeps
    a fresh linear alias of c."""
    c = p.chan
    rec.consumed += [_record(p), _record(u), ("unavail", c, None)]
    cfg.theta.remove(p)
    shared_ty = cfg.unf(p.offer).cont
    newp = Proc(c, _resume(p.term, c), shared_ty, {}, shared=True)
    cfg.lam[c] = newp
    cfg.gamma[c] = SharedC(shared_ty)
    rec.produced.append(_record(newp))
    u.uses.pop(c, None)
    name = c
    if isinstance(u.term, ReleaseL):
        name = _alias(cfg, c, rec)
        u.uses[name] = UpLL(cfg.unf(shared_ty).cont)
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

def monitor_check(cfg: Config, touched: set[str] | None = None) -> str | None:
    """Recheck the typing records of the touched channels (all of them when
    touched is None). Returns a violation message or None."""
    # well-formedness of the predicate multiset
    chans = [e.chan for e in cfg.theta] + list(cfg.lam)
    if len(chans) != len(set(chans)):
        dup = sorted({c for c in chans if chans.count(c) > 1})
        return f"well-formedness: multiple providers for {dup}"

    ck = _Ck(cfg.env, cfg.sig)
    env = cfg.env

    def relevant(e) -> bool:
        if touched is None:
            return True
        if isinstance(e, Connect):
            return e.chan in touched or e.target in touched
        return e.chan in touched or bool(set(e.uses) & touched)

    for e in cfg.theta:
        if not relevant(e):
            continue
        if isinstance(e, Connect):
            u = cfg.user_of(e.chan)
            if u is None:
                continue
            con = cfg.gamma.get(e.target)
            view = u.uses[e.chan]
            if not (isinstance(con, SharedC)
                    and is_subtype(env, con.ty, view)):
                return (f"alias {e.chan} -> {e.target}: shared constraint "
                        f"does not refine the client view")
            continue
        u = cfg.user_of(e.chan)
        view = u.uses[e.chan] if u is not None else e.offer
        try:
            ok = is_subtype(env, e.offer, view) and \
                is_ssync(env, e.offer, view, cfg.gamma.get(e.chan, BOT))
        except SsyncPreconditionError:
            ok = False
        if not ok:
            return (f"linear {e.chan}: offer type no longer synchronizes "
                    f"with the client view under its release obligation")
        ck.diags.clear()
        if ck.linear(cfg.gamma, e.uses, {},
                     e.term, e.chan, e.offer) is None:
            return f"process at {e.chan} no longer typechecks: " \
                   + "; ".join(ck.diags)

    for a in sorted(cfg.lam):
        p = cfg.lam[a]
        if touched is not None and a not in touched:
            continue
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
    return isinstance(t, (Close, SendChan, SendChanS, RecvChan, SendLabel,
                          CaseRecv, SendVal, RecvVal, AcceptL, Detach,
                          DetachL))


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

"""Bidirectional process typing over the two judgments.

A linear judgment ``Gamma ; Delta |- P :: (x : A)`` offers a linear
channel; a shared judgment ``Gamma |- P :: (x : ^A)`` carries no linear
context. There is no general subsumption rule: subtyping enters only where
a rule names it (forwarding, spawn arguments, sent channel views).

Checking elaborates the generic surface actions into modality-resolved
variants as a side effect, so a checked program is ready to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, SessionType, TypeDefEnv, SharedC, ConstraintType,
    unfold, validate_env,
)
from .subtype import is_subtype
from .synchro import cleq_type
from .procast import (
    Fwd, FwdLL, FwdSS, FwdLS, Spawn, Close, Wait,
    SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
    Acquire, AcquireL, Accept, AcceptL, Release, ReleaseL, Detach, DetachL,
    SendVal, RecvVal, ProcessTerm, ProcDef, ProcSignature,
)
from .parser import Program
from .printer import format_proc, format_type


def _action(p: ProcessTerm) -> str:
    """The action p starts with, in surface syntax."""
    return format_proc(p).split("\n", 1)[0].rstrip(";")


@dataclass
class _Ck:
    env: TypeDefEnv
    sig: ProcSignature
    diags: list[str] = field(default_factory=list)

    def fail(self, rule: str, msg: str) -> None:
        self.diags.append(f"{rule}: {msg}")

    def unf(self, t: SessionType) -> SessionType:
        return unfold(self.env, t)

    # -- linear judgment ---------------------------------------------------- #

    def linear(self, gamma: dict[str, ConstraintType],
               delta: dict[str, SessionType], vals: dict[str, str],
               p: ProcessTerm, x: str, a: SessionType) -> ProcessTerm | None:
        env = self.env
        ua = self.unf(a)
        match p:
            case Fwd(off, used) | FwdLL(off, used) | FwdSS(off, used) \
                    | FwdLS(off, used):
                if off != x:
                    self.fail("ID", f"forward must offer {x}, not {off}")
                    return None
                if used in delta:
                    if set(delta) != {used}:
                        extra = sorted(set(delta) - {used})
                        self.fail("ID_L", f"unused linear channels {extra}")
                        return None
                    if not is_subtype(env, delta[used], a):
                        self.fail("ID_L", f"{used} does not refine the offer")
                        return None
                    return FwdLL(x, used)
                if used in gamma:
                    if delta:
                        self.fail("ID_LS",
                                  f"unused linear channels {sorted(delta)}")
                        return None
                    if not cleq_type(env, gamma[used], a):
                        self.fail("ID_LS", f"{used} does not refine the offer")
                        return None
                    return FwdLS(x, used)
                self.fail("ID", f"unknown channel {used}")
                return None

            case Spawn(_, _, _, _, _):
                return self.spawn(gamma, delta, vals, p, x, a, shared=False)

            case Close(c):
                if c != x:
                    self.fail("1R", f"close must act on the offer {x}")
                    return None
                if not isinstance(ua, One):
                    self.fail("1R", "offer is not terminated: "
                                    + format_type(a))
                    return None
                if delta:
                    self.fail("1R", f"unused linear channels {sorted(delta)}")
                    return None
                return p

            case Wait(c, cont):
                if c == x or c not in delta:
                    self.fail("1L", f"wait needs a used linear channel, got {c}")
                    return None
                if not isinstance(self.unf(delta[c]), One):
                    self.fail("1L", f"{c} is not terminated")
                    return None
                d2 = dict(delta)
                del d2[c]
                cont2 = self.linear(gamma, d2, vals, cont, x, a)
                return Wait(c, cont2) if cont2 is not None else None

            case SendChan(on, y, cont) | SendChanS(on, y, cont):
                if on == x:
                    if not isinstance(ua, Tensor):
                        self.fail("\u2297R", "offer does not send a channel")
                        return None
                    pay, k = ua.payload, ua.cont
                    rule_l, rule_s = "\u2297R", "\u2297S R"
                else:
                    if on not in delta:
                        self.fail("\u22b8L", f"unknown channel {on}")
                        return None
                    uo = self.unf(delta[on])
                    if not isinstance(uo, Lolli):
                        self.fail("\u22b8L", f"{on} does not receive a channel")
                        return None
                    pay, k = uo.payload, uo.cont
                    rule_l, rule_s = "\u22b8L", "\u22b8S L"
                if y in delta and y != on:
                    if not is_subtype(env, delta[y], pay):
                        self.fail(rule_l, f"{y} does not refine the payload type")
                        return None
                    d2 = dict(delta)
                    del d2[y]
                    cls = SendChan
                elif y in gamma:
                    if not cleq_type(env, gamma[y], pay):
                        self.fail(rule_s, f"{y} does not refine the payload type")
                        return None
                    d2 = dict(delta)
                    cls = SendChanS
                else:
                    self.fail(rule_l, f"unknown payload channel {y}")
                    return None
                if on != x:
                    d2[on] = k
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                else:
                    cont2 = self.linear(gamma, d2, vals, cont, x, k)
                return cls(on, y, cont2) if cont2 is not None else None

            case RecvChan(on, y, cont):
                if on == x:
                    if not isinstance(ua, Lolli):
                        self.fail("\u22b8R", "offer does not receive a channel")
                        return None
                    d2 = dict(delta)
                    d2[y] = ua.payload
                    cont2 = self.linear(gamma, d2, vals, cont, x, ua.cont)
                else:
                    if on not in delta:
                        self.fail("\u2297L", f"unknown channel {on}")
                        return None
                    uo = self.unf(delta[on])
                    if not isinstance(uo, Tensor):
                        self.fail("\u2297L", f"{on} does not send a channel")
                        return None
                    d2 = dict(delta)
                    d2[on] = uo.cont
                    d2[y] = uo.payload
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                return RecvChan(on, y, cont2) if cont2 is not None else None

            case SendLabel(on, lbl, cont):
                if on == x:
                    if not isinstance(ua, IChoice):
                        self.fail("\u2295R", "offer is not an internal choice")
                        return None
                    if lbl not in ua.labels():
                        self.fail("\u2295R", f"label {lbl} not offered")
                        return None
                    cont2 = self.linear(gamma, delta, vals, cont, x,
                                        ua.branch(lbl))
                else:
                    if on not in delta:
                        self.fail("&L", f"unknown channel {on}")
                        return None
                    uo = self.unf(delta[on])
                    if not isinstance(uo, EChoice):
                        self.fail("&L", f"{on} is not an external choice")
                        return None
                    if lbl not in uo.labels():
                        self.fail("&L", f"label {lbl} not offered by {on}")
                        return None
                    d2 = dict(delta)
                    d2[on] = uo.branch(lbl)
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                return SendLabel(on, lbl, cont2) if cont2 is not None else None

            case CaseRecv(on, bs):
                if on == x:
                    if not isinstance(ua, EChoice):
                        self.fail("&R", "offer is not an external choice")
                        return None
                    ty, rule = ua, "&R"
                else:
                    if on not in delta:
                        self.fail("\u2295L", f"unknown channel {on}")
                        return None
                    uo = self.unf(delta[on])
                    if not isinstance(uo, IChoice):
                        self.fail("\u2295L", f"{on} is not an internal choice")
                        return None
                    ty, rule = uo, "\u2295L"
                have = dict(bs)
                missing = [l for l in ty.labels() if l not in have]
                if missing:
                    self.fail(rule, f"missing branches {missing}")
                    return None
                # branches beyond the type are provably dead: kept, not checked
                out = []
                for l, body in bs:
                    if l not in ty.labels():
                        out.append((l, body))
                        continue
                    if on == x:
                        b2 = self.linear(gamma, delta, vals, body, x,
                                         ty.branch(l))
                    else:
                        d2 = dict(delta)
                        d2[on] = ty.branch(l)
                        b2 = self.linear(gamma, d2, vals, body, x, a)
                    if b2 is None:
                        return None
                    out.append((l, b2))
                return CaseRecv(on, tuple(out))

            case SendVal(on, v, cont):
                if on == x:
                    if not isinstance(ua, ValOut):
                        self.fail("\u2227R", "offer does not send a value")
                        return None
                    base, k = ua.base, ua.cont
                    rule = "\u2227R"
                else:
                    if on not in delta:
                        self.fail("\u2283L", f"unknown channel {on}")
                        return None
                    uo = self.unf(delta[on])
                    if not isinstance(uo, ValIn):
                        self.fail("\u2283L", f"{on} does not expect a value")
                        return None
                    base, k = uo.base, uo.cont
                    rule = "\u2283L"
                if v in vals and vals[v] != base:
                    self.fail(rule, f"{v} has base {vals[v]}, expected {base}")
                    return None
                # an unbound name is read as a literal of the expected base
                if on == x:
                    cont2 = self.linear(gamma, delta, vals, cont, x, k)
                else:
                    d2 = dict(delta)
                    d2[on] = k
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                return SendVal(on, v, cont2) if cont2 is not None else None

            case RecvVal(on, y, cont):
                if on == x:
                    if not isinstance(ua, ValIn):
                        self.fail("\u2283R", "offer does not expect a value")
                        return None
                    base, k = ua.base, ua.cont
                else:
                    if on not in delta:
                        self.fail("\u2227L", f"unknown channel {on}")
                        return None
                    uo = self.unf(delta[on])
                    if not isinstance(uo, ValOut):
                        self.fail("\u2227L", f"{on} does not send a value")
                        return None
                    base, k = uo.base, uo.cont
                v2 = dict(vals)
                v2[y] = base
                if on == x:
                    cont2 = self.linear(gamma, delta, v2, cont, x, k)
                else:
                    d2 = dict(delta)
                    d2[on] = k
                    cont2 = self.linear(gamma, d2, v2, cont, x, a)
                return RecvVal(on, y, cont2) if cont2 is not None else None

            case Acquire(y, c, cont) | AcquireL(y, c, cont):
                # an already-elaborated linear acquire must stay linear even
                # if the name also carries a (stale) shared constraint
                shared_ok = (not isinstance(p, AcquireL)
                             and isinstance(gamma.get(c), SharedC))
                if shared_ok:
                    con = gamma[c]
                    us = self.unf(con.ty)
                    if not isinstance(us, UpSL):
                        self.fail("\u2191SL L", f"{c} is not a shared session")
                        return None
                    d2 = dict(delta)
                    d2[y] = us.cont
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                    return Acquire(y, c, cont2) if cont2 is not None else None
                if c in delta:
                    uo = self.unf(delta[c])
                    if not isinstance(uo, UpLL):
                        self.fail("\u2191LL L", f"{c} is not at a linear acquire")
                        return None
                    d2 = dict(delta)
                    del d2[c]
                    d2[y] = uo.cont
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                    return AcquireL(y, c, cont2) if cont2 is not None else None
                self.fail("\u2191SL L", f"unknown channel {c}")
                return None

            case Accept(y, c, cont) | AcceptL(y, c, cont):
                if c != x or not isinstance(ua, UpLL):
                    self.fail("\u2191LL R",
                              "accept in a linear judgment needs a linear "
                              "acquire point on the offer")
                    return None
                cont2 = self.linear(gamma, delta, vals, cont, y, ua.cont)
                return AcceptL(y, c, cont2) if cont2 is not None else None

            case Release(y, c, cont) | ReleaseL(y, c, cont):
                if c not in delta:
                    self.fail("\u2193SL L", f"unknown channel {c}")
                    return None
                uo = self.unf(delta[c])
                if isinstance(uo, DownSL):
                    d2 = dict(delta)
                    del d2[c]
                    g2 = dict(gamma)
                    g2[y] = SharedC(uo.cont)
                    cont2 = self.linear(g2, d2, vals, cont, x, a)
                    return Release(y, c, cont2) if cont2 is not None else None
                if isinstance(uo, DownLL):
                    d2 = dict(delta)
                    del d2[c]
                    d2[y] = uo.cont
                    cont2 = self.linear(gamma, d2, vals, cont, x, a)
                    return ReleaseL(y, c, cont2) if cont2 is not None else None
                self.fail("\u2193SL L", f"{c} is not at a release point")
                return None

            case Detach(y, c, cont) | DetachL(y, c, cont):
                if c != x:
                    self.fail("\u2193SL R", "detach must act on the offer")
                    return None
                if isinstance(ua, DownSL):
                    if delta:
                        self.fail("\u2193SL R",
                                  f"unused linear channels {sorted(delta)}")
                        return None
                    cont2 = self.shared(gamma, vals, cont, y, ua.cont)
                    return Detach(y, c, cont2) if cont2 is not None else None
                if isinstance(ua, DownLL):
                    cont2 = self.linear(gamma, delta, vals, cont, y, ua.cont)
                    return DetachL(y, c, cont2) if cont2 is not None else None
                self.fail("\u2193SL R", "offer is not at a release point")
                return None

        self.fail("linear", f"ill-placed action {_action(p)}")
        return None

    # -- shared judgment ---------------------------------------------------- #

    def shared(self, gamma: dict[str, ConstraintType], vals: dict[str, str],
               p: ProcessTerm, x: str, a: SessionType) -> ProcessTerm | None:
        env = self.env
        ua = self.unf(a)
        match p:
            case Fwd(off, used) | FwdSS(off, used):
                if off != x:
                    self.fail("ID_S", f"forward must offer {x}, not {off}")
                    return None
                con = gamma.get(used)
                if con is None:
                    self.fail("ID_S", f"unknown shared channel {used}")
                    return None
                if not cleq_type(env, con, a):
                    self.fail("ID_S", f"{used} does not refine the offer")
                    return None
                return FwdSS(x, used)

            case Spawn(_, _, _, _, _):
                return self.spawn(gamma, {}, vals, p, x, a, shared=True)

            case Accept(y, c, cont) | AcceptL(y, c, cont):
                if c != x:
                    self.fail("\u2191SL R", "accept must act on the offer")
                    return None
                if not isinstance(ua, UpSL):
                    self.fail("\u2191SL R", "offer is not a shared session")
                    return None
                cont2 = self.linear(gamma, {}, vals, cont, y, ua.cont)
                return Accept(y, c, cont2) if cont2 is not None else None

        self.fail("shared", "action not available in a shared judgment: "
                  + _action(p))
        return None

    # -- spawning ----------------------------------------------------------- #

    def spawn_args(self, gamma: dict[str, ConstraintType],
                   delta: dict[str, SessionType],
                   d: ProcDef, args: tuple[str, ...]
                   ) -> tuple[tuple[str, ...], dict[str, SessionType]] | None:
        """Match arguments against declared parameters; returns the
        elaborated kind tags and the residual linear context."""
        if len(args) != len(d.params):
            self.fail("SP", f"{d.name} takes {len(d.params)} arguments, "
                            f"got {len(args)}")
            return None
        env = self.env
        d2 = dict(delta)
        kinds: list[str] = []
        for arg, prm in zip(args, d.params):
            if prm.shared:
                con = gamma.get(arg)
                if con is None or not cleq_type(env, con, prm.ty):
                    self.fail("SP", f"{arg} does not refine shared parameter "
                                    f"{prm.chan} of {d.name}")
                    return None
                kinds.append("sh")
            elif arg in d2:
                if not is_subtype(env, d2[arg], prm.ty):
                    self.fail("SP", f"{arg} does not refine parameter "
                                    f"{prm.chan} of {d.name}")
                    return None
                del d2[arg]
                kinds.append("lin")
            elif arg in gamma:
                # a shared channel may stand in for a linear parameter when
                # its type refines the (necessarily synchronizing) linear one
                if not cleq_type(env, gamma[arg], prm.ty):
                    self.fail("SP", f"shared {arg} does not refine linear "
                                    f"parameter {prm.chan} of {d.name}")
                    return None
                kinds.append("sl")
            else:
                self.fail("SP", f"unknown argument channel {arg}")
                return None
        return tuple(kinds), d2

    def spawn(self, gamma: dict[str, ConstraintType],
              delta: dict[str, SessionType], vals: dict[str, str],
              p: Spawn, x: str, a: SessionType,
              shared: bool) -> ProcessTerm | None:
        if p.proc not in self.sig:
            self.fail("SP", f"undefined process {p.proc}")
            return None
        d = self.sig.lookup(p.proc)
        matched = self.spawn_args(gamma, delta, d, p.args)
        if matched is None:
            return None
        kinds, d2 = matched
        if d.offer_shared:
            g2 = dict(gamma)
            g2[p.binder] = SharedC(d.offer_ty)
            if shared:
                cont2 = self.shared(g2, vals, p.cont, x, a)
            else:
                cont2 = self.linear(g2, d2, vals, p.cont, x, a)
        else:
            if shared:
                self.fail("SP_SS", "a shared judgment may only spawn "
                                   "shared sessions")
                return None
            d2[p.binder] = d.offer_ty
            cont2 = self.linear(gamma, d2, vals, p.cont, x, a)
        if cont2 is None:
            return None
        return Spawn(p.proc, p.binder, p.args, cont2, kinds)


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def check_procdef(env: TypeDefEnv, sig: ProcSignature,
                  d: ProcDef) -> tuple[list[str], ProcessTerm | None]:
    ck = _Ck(env, sig)
    gamma: dict[str, ConstraintType] = {}
    delta: dict[str, SessionType] = {}
    for prm in d.params:
        if prm.shared:
            gamma[prm.chan] = SharedC(prm.ty)
        else:
            delta[prm.chan] = prm.ty
    if d.offer_shared:
        if delta:
            ck.fail("shared", f"{d.name}: a shared session may not hold "
                              f"linear parameters")
            return ck.diags, None
        body = ck.shared(gamma, {}, d.body, d.offer, d.offer_ty)
    else:
        body = ck.linear(gamma, delta, {}, d.body, d.offer, d.offer_ty)
    diags = [f"{d.name}: {m}" for m in ck.diags]
    return diags, body


def check_program(prog: Program) -> tuple[list[str], Program]:
    """Validate the type environment, check every process, check the
    system block. Returns diagnostics and the elaborated program."""
    diags = list(validate_env(prog.types))
    if diags:
        return diags, prog
    sig = prog.procs
    seen: set[str] = set()
    for d in sig.defs:
        if d.name in seen:
            diags.append(f"duplicate process definition: {d.name}")
        seen.add(d.name)
    out = []
    for d in sig.defs:
        ds, body = check_procdef(prog.types, sig, d)
        diags.extend(ds)
        out.append(d if body is None else replace(d, body=body))
    prog2 = Program(prog.types, ProcSignature(tuple(out)), prog.system)
    if prog.system is not None:
        diags.extend(check_system(prog2))
    return diags, prog2


def check_system(prog: Program) -> list[str]:
    """The system block spawns shared sessions, then starts one linear
    main process whose arguments are those sessions."""
    assert prog.system is not None
    ck = _Ck(prog.types, prog.procs)
    gamma: dict[str, ConstraintType] = {}
    for binder, pname, args in prog.system.spawns:
        if pname not in prog.procs:
            ck.fail("system", f"undefined process {pname}")
            continue
        d = prog.procs.lookup(pname)
        if not d.offer_shared:
            ck.fail("system", f"{pname} does not offer a shared session")
            continue
        if binder in gamma:
            ck.fail("system", f"duplicate channel {binder}")
        m = ck.spawn_args(gamma, {}, d, args)
        if m is not None:
            gamma[binder] = SharedC(d.offer_ty)
    mname, margs = prog.system.main
    if mname not in prog.procs:
        ck.fail("system", f"undefined main process {mname}")
        return ck.diags
    d = prog.procs.lookup(mname)
    if d.offer_shared:
        ck.fail("system", "the main process must offer a linear session")
        return ck.diags
    ck.spawn_args(gamma, {}, d, margs)
    return ck.diags

"""Bidirectional process typing over the two judgments.

A linear judgment ``Gamma ; Delta |- P :: (x : A)`` offers a linear
channel; a shared judgment ``Gamma |- P :: (x : ^A)`` carries no linear
context. There is no general subsumption rule: subtyping enters only where
a rule names it (forwarding, spawn arguments, sent channel views).

Each connective has a right rule, for an action on the offered channel,
and a left rule, for an action on a used one. Two tables drive them.
``ACTIONS`` gives, per action, the type constructor its right rule expects
of the offer and the one its left rule expects of the used channel.
``CONNECTIVES`` gives, per constructor, its rule symbol and the phrase a
channel of another type fails with. Rule names and messages are derived
from them: ``⊗R``, ``⊸L``, ``↑SL L``, or ``⊗S R`` when the payload is
shared; ``offer does not send a channel``, ``l does not receive a
channel``. The shifts name their shared form (``↑SL``, ``↓SL``). Their
linear twins (``↑LL``, ``↓LL``) apply where the judgment or the used
channel is linear, and elaborate to the ``...L`` variants.

``_Ck.check`` walks the continuation spine of a term in one loop. Its state
is Gamma, Delta, the value bases, the offer x : A and whether the judgment
is shared, which ``accept`` and ``detach`` flip. Delta belongs to the call
and is updated in place; Gamma and the value bases are copied when they
grow. The loop recurses only into case arms and rebuilds the elaborated
term from the spine. ``linear`` and ``shared`` are its two entry points;
through them the runtime's monitor checks a closure: the template as it
stands, each name read through the closure's renaming, and no term built.

Checking elaborates the generic surface actions into modality-resolved
variants as a side effect, so a checked program is ready to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, SessionType, TypeDefEnv, SharedC, ConstraintType,
    unfold, validate_env, type_names,
)
from .subtype import is_subtype
from .synchro import cleq_type
from .procast import (
    Fwd, FwdLL, FwdSS, FwdLS, Spawn, Close, Wait,
    SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
    Acquire, AcquireL, Accept, AcceptL, Release, ReleaseL, Detach, DetachL,
    SendVal, RecvVal, ProcessTerm, ProcDef, ProcSignature, FIELDS, CONT,
    BINDER, SUBJECT, GENERIC, freshen, scope,
)
from .parser import Program
from .printer import format_proc, format_type


# action -> (the constructor its right rule expects of the offer, the one
# its left rule expects of a used channel), None where it has no such rule
ACTIONS = {
    Close: (One, None), Wait: (None, One),
    SendChan: (Tensor, Lolli), RecvChan: (Lolli, Tensor),
    SendLabel: (IChoice, EChoice), CaseRecv: (EChoice, IChoice),
    SendVal: (ValOut, ValIn), RecvVal: (ValIn, ValOut),
    Accept: (UpSL, None), Detach: (DownSL, None),
    Acquire: (None, UpSL), Release: (None, DownSL),
}
# constructor -> (rule symbol, what a channel of another type fails with)
CONNECTIVES = {
    One: ("1", "is not terminated"),
    Tensor: ("\u2297", "does not send a channel"),
    Lolli: ("\u22b8", "does not receive a channel"),
    IChoice: ("\u2295", "is not an internal choice"),
    EChoice: ("&", "is not an external choice"),
    ValOut: ("\u2227", "does not send a value"),
    ValIn: ("\u2283", "does not expect a value"),
    UpSL: ("\u2191SL", "is not a shared session"),
    UpLL: ("\u2191LL", "is not at a linear acquire"),
    DownSL: ("\u2193SL", "is not at a release point"),
}
# a shift -> its variant at a linear twin
_LINEAR = {Accept: AcceptL, Acquire: AcquireL, Release: ReleaseL,
           Detach: DetachL}
# the failure of a one-sided action on a channel its rule cannot use; the
# others fail there with "unknown channel"
_MISPLACED = {
    Close: "close must act on the offer {x}",
    Wait: "wait needs a used linear channel, got {on}",
    Accept: "accept must act on the offer",
    Detach: "detach must act on the offer",
}
_LINEAR_ACCEPT = ("accept in a linear judgment needs a linear acquire "
                  "point on the offer")
# action -> (the generic action it checks as, that action's right and left
# constructor, the field naming its channel, its misplaced failure)
_PLAN = {cls: (gen, *ACTIONS[gen], SUBJECT[cls], _MISPLACED.get(gen))
         for cls, gen in ((c, GENERIC.get(c, c)) for c in SUBJECT)}
_FORWARDS = (Fwd, FwdLL, FwdSS, FwdLS)
# the actions that bind a name; those whose binder continues the channel
# they act on may keep its name
_BINDS = {cls for cls, roles in FIELDS.items() if ("binder", BINDER) in roles}
_CONTINUES = (Accept, AcceptL, Detach, DetachL, AcquireL, Release, ReleaseL)
_SHADOWS = "binder {b} shadows a channel in scope"
_IN_SHARED = (Fwd, FwdSS, Spawn, Accept, AcceptL)
# constructor -> the getter of its fields, and the position of its
# continuation among them
_FIELDS = {cls: attrgetter(*[f for f, _ in roles])
           for cls, roles in FIELDS.items()}
_CONT = {cls: i for cls, roles in FIELDS.items()
         for i, (_, role) in enumerate(roles) if role is CONT}


def _rule(ctor: type, side: str, shared_payload: bool = False) -> str:
    sym = CONNECTIVES[ctor][0] + ("S" if shared_payload else "")
    return f"{sym} {side}" if len(sym) > 1 else sym + side


def _shadows(gamma: dict[str, ConstraintType], delta: dict[str, SessionType],
             x: str, b: str, own: str | None = None) -> bool:
    """Whether the binder b hides the offer x, a shared channel or a
    linear one other than own, the channel it continues."""
    return b in gamma or b != own and (b == x or b in delta)


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

    def linear(self, gamma: dict[str, ConstraintType],
               delta: dict[str, SessionType], vals: dict[str, str],
               p: ProcessTerm, x: str, a: SessionType,
               rec: Callable | None = None, clo: tuple | None = None
               ) -> ProcessTerm | None:
        """Gamma ; Delta |- p :: (x : a); the arguments stay unchanged."""
        return self.check(gamma, dict(delta), vals, p, x, a, False, rec, clo)

    def shared(self, gamma: dict[str, ConstraintType], vals: dict[str, str],
               p: ProcessTerm, x: str, a: SessionType,
               rec: Callable | None = None, clo: tuple | None = None
               ) -> ProcessTerm | None:
        """Gamma |- p :: (x : a)."""
        return self.check(gamma, {}, vals, p, x, a, True, rec, clo)

    def check(self, gamma: dict[str, ConstraintType],
              delta: dict[str, SessionType], vals: dict[str, str],
              p: ProcessTerm, x: str, a: SessionType, shared: bool,
              rec: Callable | None = None, clo: tuple | None = None
              ) -> ProcessTerm | None:
        """The elaborated p, or None after recording why it does not
        check. Updates delta in place. With clo = (names, fresh), p is a
        closure's template, checked as it stands and named as freshen
        names it: a node's free name y reads as names[y], a dict the call
        owns and extends, and once they are read its binder is named
        fresh(), in preorder, a dead branch's too; so p checks and fails
        as its forced term, but a pass builds no term and returns a node
        of p. With rec given, calls rec(node, gamma, delta, x, a, shared,
        names) at each node, in case arms too, with the context the suffix
        from that node checks."""
        env, spine = self.env, []
        names, fresh = clo if clo is not None else (None, None)
        while True:
            if rec is not None:
                rec(p, gamma, delta, x, a, shared, names)
            cls, ua = type(p), unfold(env, a)
            if shared and cls not in _IN_SHARED:
                # the one node built on a closure: the action printed
                act = p if names is None else freshen(p, fresh, names)
                self.fail("shared", "action not available in a shared "
                                    "judgment: " + _action(act))
                return None
            if cls in _FORWARDS:
                offer, used = p.offer, p.used
                if names is not None:
                    offer, used = names[offer], names[used]
                el = self.forward(gamma, delta, offer, used, x, a, shared)
                if el is None:
                    return None
                if names is None:
                    p = el(x, used)
                break
            if cls is Spawn:
                args = p.args if names is None else tuple(
                    [names[y] for y in p.args])
                got = self.spawn(gamma, delta, p.proc, args, shared)
                if got is None:
                    return None
                d, kinds = got
                if names is None:
                    b = p.binder
                    spine.append((Spawn, [*_FIELDS[Spawn](p)[:-1], kinds]))
                else:
                    b = names[p.binder] = fresh()
                if _shadows(gamma, delta, x, b):
                    self.fail("SP", _SHADOWS.format(b=b))
                    return None
                if d.offer_shared:
                    gamma = {**gamma, b: SharedC(d.offer_ty)}
                else:
                    delta[b] = d.offer_ty
                p = p.cont
                continue
            gen, right, left, subject, mis = _PLAN[cls]
            on = getattr(p, subject)
            if names is not None:
                on = names[on]
            if gen is Accept and not shared:
                # only the linear twin accepts in a linear judgment
                if on != x or not isinstance(ua, UpLL):
                    self.fail(_rule(UpLL, "R"), _LINEAR_ACCEPT)
                    return None
                right = UpLL
            if right is not None and on == x:
                side, want, ty = "R", right, ua
            elif left is None or mis and on == x:
                self.fail(_rule(right, "R") if left is None
                          else _rule(left, "L"), mis.format(x=x, on=on))
                return None
            elif cls is Acquire and isinstance(gamma.get(on), SharedC):
                side, want, ty = "L", left, unfold(env, gamma[on].ty)
            elif on in delta:
                side, ty = "L", unfold(env, delta[on])
                want = UpLL if left is UpSL else left
            else:
                self.fail(_rule(left, "L"),
                          (mis or "unknown channel {on}").format(x=x, on=on))
                return None
            # a release point may return to the shared or stay in the
            # linear layer
            if not isinstance(ty, (want, DownLL) if want is DownSL else want):
                msg = "offer" if side == "R" else on
                msg += " " + CONNECTIVES[want][1]
                if want is One and side == "R":
                    msg += ": " + format_type(a)
                self.fail(_rule(want, side), msg)
                return None
            el = _LINEAR[gen] if isinstance(ty, (UpLL, DownLL)) else gen
            k = getattr(ty, "cont", None)
            if gen is Close or el is Detach:
                if delta:
                    self.fail(_rule(want, side), "unused linear channels "
                                                 f"{sorted(delta)}")
                    return None
                if gen is Close:
                    break
            if cls in _BINDS:
                if names is None:
                    b = p.binder
                else:
                    b = names[p.binder] = fresh()
                if _shadows(gamma, delta, x, b,
                            on if el in _CONTINUES else None):
                    self.fail(_rule(want, side), _SHADOWS.format(b=b))
                    return None
            if gen is Wait:
                del delta[on]
            elif gen is SendChan:
                pay = p.payload if names is None else names[p.payload]
                if pay in delta and pay != on:
                    test, held = is_subtype, delta.pop(pay)
                elif pay in gamma:
                    test, held, el = cleq_type, gamma[pay], SendChanS
                else:
                    self.fail(_rule(want, side),
                              f"unknown payload channel {pay}")
                    return None
                if not test(env, held, ty.payload):
                    self.fail(_rule(want, side, el is SendChanS),
                              f"{pay} does not refine the payload type")
                    return None
            elif gen is SendLabel:
                if p.label not in ty.labels():
                    self.fail(_rule(want, side), f"label {p.label} not offered"
                              + ("" if side == "R" else f" by {on}"))
                    return None
                k = ty.branch(p.label)
            elif gen is CaseRecv:
                missing = [l for l in ty.labels() if l not in p.labels()]
                if missing:
                    self.fail(_rule(want, side), f"missing branches {missing}")
                    return None
                # branches beyond the type are provably dead: kept, not
                # checked
                arms = []
                for l, body in p.branches:
                    if l in ty.labels():
                        d2, a2 = dict(delta), a
                        if side == "R":
                            a2 = ty.branch(l)
                        else:
                            d2[on] = ty.branch(l)
                        body = self.check(gamma, d2, vals, body, x, a2, False,
                                          rec, clo and (dict(names), fresh))
                        if body is None:
                            return None
                    elif names is not None:
                        for _ in range(scope(body)[0]):
                            fresh()
                    arms.append((l, body))
                if names is None:
                    p = CaseRecv(on, tuple(arms))
                break
            elif gen is SendVal:
                # an unbound name is read as a literal of the expected base
                v = p.value if names is None else names[p.value]
                if v in vals and vals[v] != ty.base:
                    self.fail(_rule(want, side),
                              f"{v} has base {vals[v]}, expected {ty.base}")
                    return None
            elif gen is RecvVal:
                vals = {**vals, b: ty.base}
            elif gen is Acquire or gen is Release:
                # the binder continues the used channel; a linear one is
                # consumed, and a session released to the shared layer
                # joins Gamma
                if el is not Acquire:
                    del delta[on]
                if el is Release:
                    gamma = {**gamma, b: SharedC(k)}
                else:
                    delta[b] = k
                k = None
            elif gen is Accept or gen is Detach:
                # the binder names the offer from here
                x, shared = b, el is Detach
            if k is not None:
                if side == "R":
                    a = k
                else:
                    delta[on] = k
            if gen is RecvChan:
                delta[b] = ty.payload
            if names is None:
                spine.append((el, list(_FIELDS[cls](p))))
            p = p.cont
        for cls, vs in reversed(spine):
            vs[_CONT[cls]] = p
            p = cls(*vs)
        return p

    def forward(self, gamma: dict[str, ConstraintType],
                delta: dict[str, SessionType], offer: str, used: str, x: str,
                a: SessionType, shared: bool) -> type | None:
        """ID_L from a linear channel, ID_LS and ID_S from a shared one:
        the elaborated forward's constructor."""
        if offer != x:
            self.fail("ID_S" if shared else "ID",
                      f"forward must offer {x}, not {offer}")
            return None
        if used in delta:
            rule, el, test, held = "ID_L", FwdLL, is_subtype, delta[used]
        elif used in gamma:
            rule, el = ("ID_S", FwdSS) if shared else ("ID_LS", FwdLS)
            test, held = cleq_type, gamma[used]
        else:
            self.fail("ID_S" if shared else "ID", "unknown "
                      + ("shared " if shared else "") + f"channel {used}")
            return None
        extra = sorted(set(delta) - {used})
        if extra:
            self.fail(rule, f"unused linear channels {extra}")
            return None
        if not test(self.env, held, a):
            self.fail(rule, f"{used} does not refine the offer")
            return None
        return el

    # -- spawning ----------------------------------------------------------- #

    def spawn_args(self, gamma: dict[str, ConstraintType],
                   delta: dict[str, SessionType],
                   d: ProcDef, args: tuple[str, ...]
                   ) -> tuple[str, ...] | None:
        """Match arguments against declared parameters, taking the linear
        ones out of delta; returns the elaborated kind tags."""
        if len(args) != len(d.params):
            self.fail("SP", f"{d.name} takes {len(d.params)} arguments, "
                            f"got {len(args)}")
            return None
        env = self.env
        kinds: list[str] = []
        for arg, prm in zip(args, d.params):
            if prm.shared:
                con = gamma.get(arg)
                if con is None or not cleq_type(env, con, prm.ty):
                    self.fail("SP", f"{arg} does not refine shared parameter "
                                    f"{prm.chan} of {d.name}")
                    return None
                kinds.append("sh")
            elif arg in delta:
                if not is_subtype(env, delta.pop(arg), prm.ty):
                    self.fail("SP", f"{arg} does not refine parameter "
                                    f"{prm.chan} of {d.name}")
                    return None
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
        return tuple(kinds)

    def spawn(self, gamma: dict[str, ConstraintType],
              delta: dict[str, SessionType], proc: str,
              args: tuple[str, ...], shared: bool
              ) -> tuple[ProcDef, tuple[str, ...]] | None:
        """The spawned definition and the argument kinds, the linear
        arguments taken out of delta."""
        if proc not in self.sig:
            self.fail("SP", f"undefined process {proc}")
            return None
        d = self.sig.lookup(proc)
        kinds = self.spawn_args(gamma, delta, d, args)
        if kinds is None:
            return None
        if shared and not d.offer_shared:
            self.fail("SP_SS", "a shared judgment may only spawn shared "
                               "sessions")
            return None
        return d, kinds


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def check_procdef(env: TypeDefEnv, sig: ProcSignature,
                  d: ProcDef) -> tuple[list[str], ProcessTerm | None]:
    ck = _Ck(env, sig)
    gamma: dict[str, ConstraintType] = {}
    delta: dict[str, SessionType] = {}
    for prm in d.params:
        # an instance binds each name to one actual
        if prm.chan == d.offer or prm.chan in gamma or prm.chan in delta:
            ck.fail("SP", f"parameter {prm.chan} shadows a channel in scope")
            return [f"{d.name}: {m}" for m in ck.diags], None
        if prm.shared:
            gamma[prm.chan] = SharedC(prm.ty)
        else:
            delta[prm.chan] = prm.ty
    if d.offer_shared:
        if delta:
            ck.fail("shared", "a shared session may not hold linear "
                              "parameters")
            return [f"{d.name}: {m}" for m in ck.diags], None
        body = ck.shared(gamma, {}, d.body, d.offer, d.offer_ty)
    else:
        body = ck.linear(gamma, delta, {}, d.body, d.offer, d.offer_ty)
    diags = [f"{d.name}: {m}" for m in ck.diags]
    return diags, body


def _check_types(prog: Program) -> list[str]:
    """Validate the type environment and the type names of every process
    signature."""
    diags = list(validate_env(prog.types))
    if diags:
        return diags
    for d in prog.procs.defs:
        names = {n for t in (d.offer_ty, *(prm.ty for prm in d.params))
                 for n in type_names(t)}
        diags += [f"undefined reference: {n} in {d.name}"
                  for n in sorted(names) if n not in prog.types]
    return diags


def check_header(prog: Program) -> list[str]:
    """Everything a run needs besides well-typed process bodies: the type
    environment, the signatures and the system block."""
    diags = _check_types(prog)
    if not diags and prog.system is not None:
        diags = check_system(prog)
    return diags


def check_program(prog: Program) -> tuple[list[str], Program]:
    """Validate the type environment and the signatures, check every
    process, check the system block. Returns diagnostics and the
    elaborated program, whose signature lists in ``checked`` the
    definitions whose bodies passed, each at its root under its declared
    types: the monitor starts its recheck memo from them (see
    runtime._checker)."""
    diags = _check_types(prog)
    if diags:
        return diags, prog
    sig = prog.procs
    seen: set[str] = set()
    for d in sig.defs:
        if d.name in seen:
            diags.append(f"duplicate process definition: {d.name}")
        seen.add(d.name)
    out, passed = [], []
    for d in sig.defs:
        ds, body = check_procdef(prog.types, sig, d)
        diags.extend(ds)
        out.append(d if body is None else replace(d, body=body))
        if body is not None:
            passed.append(out[-1])
    prog2 = Program(prog.types, ProcSignature(tuple(out), tuple(passed)),
                    prog.system)
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
        if ck.spawn_args(gamma, {}, d, args) is not None:
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

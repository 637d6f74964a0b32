"""The subsynchronizing judgment, its equi-synchronizing special case, and
the meet operator on constraints.

ssync(A, B, D) tracks, for a provider type A used by a client at type B,
the obligation D under which the session may be released. An up-shift into
the linear layer records the provider's shared type as the new obligation;
a down-shift back to the shared layer checks the release point against the
obligation and resets it. Choices only follow branches both sides can
take, which is what lets provably dead branches be ignored. ``ssync_ids``
decides on type graph ids, an obligation being ``TOP_ID``, ``BOT_ID`` or a
shared type's id; ``is_ssync`` interns its types and calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, SessionType, TypeDefEnv, TypeDef, TypeGraph,
    Bot, Top, SharedC, ConstraintType, BOT, TOP,
    unfold, SHARED, LINEAR,
)
from .subtype import _CROSS, is_subtype, sub_ids


# an obligation on the type graph: the id of a shared type, or one of these
TOP_ID, BOT_ID = -1, -2


class SsyncPreconditionError(Exception):
    """The judgment is only defined for pairs A <= B."""


def cleq(env: TypeDefEnv, c: ConstraintType, d: ConstraintType) -> bool:
    """Lattice order: Bot <= Shared(A) <= Top; shared constraints compare
    by subtyping."""
    if c.__class__ is Bot or d.__class__ is Top:
        return True
    if c.__class__ is SharedC and d.__class__ is SharedC:
        return is_subtype(env, c.ty, d.ty)
    return False


def cleq_type(env: TypeDefEnv, c: ConstraintType, b: SessionType) -> bool:
    """Constraint against a concrete type, as used by release checks and
    by typing premises of the form `hat(B) <= A`."""
    if c.__class__ is SharedC:
        return is_subtype(env, c.ty, b)
    return c.__class__ is Bot


def _ssync(g: TypeGraph, a: int, b: int, d: int, assumed: set[tuple]) -> bool:
    """Subsynchronization of the ids a, b under the obligation d, pairs
    already assumed holding. Every walk starts at a subtype pair (see
    ssync_ids), and every premise it follows is a subtype pair, so two
    distinct constructors here are one of _CROSS's shift pairs, which the
    first two branches take."""
    key = (a, b, d)
    hit = g.memo.get(key)
    if hit is not None:
        return hit
    if key in assumed:
        return True
    assumed.add(key)
    ta, ka, xa = g.nodes[a]
    tb, kb, xb = g.nodes[b]
    if ta is UpSL and (tb is UpSL or tb is UpLL):
        # only an unconstrained channel may be acquired; the provider's
        # shared type becomes the release obligation
        ok = d == TOP_ID and _ssync(g, ka[0], kb[0], a, assumed)
    elif ta is DownSL and (tb is DownSL or tb is DownLL):
        # the release point must satisfy the obligation, which then resets
        ok = (d == TOP_ID or d >= 0 and sub_ids(g, ka[0], d)) \
            and _ssync(g, ka[0], kb[0], TOP_ID, assumed)
    elif ta is IChoice or ta is EChoice:
        ok = all(_ssync(g, xa[l], xb[l], d, assumed) for l in xa if l in xb)
    else:
        # a payload is not followed; value types match their base type
        ok = xa == xb and (not ka or _ssync(g, ka[-1], kb[-1], d, assumed))
    if not ok:
        g.memo[key] = False
    return ok


def ssync_ids(g: TypeGraph, a: int, b: int, d: int) -> bool:
    """Subsynchronization of the ids a, b of g under the obligation d, read
    from g's verdict memo at (a, b, d) or decided and stored there. Raises
    SsyncPreconditionError where a <= b fails, which a stored (a, b, d)
    cannot: the premises of a subtype pair are subtype pairs."""
    hit = g.memo.get((a, b, d))
    if hit is None:
        if not sub_ids(g, a, b):
            raise SsyncPreconditionError(
                "subsynchronizing judgment posed for a pair that is not in "
                "the subtyping relation")
        hit = g.memo[a, b, d] = _ssync(g, a, b, d, set())
    return hit


def is_ssync(env: TypeDefEnv, a: SessionType, b: SessionType,
             d: ConstraintType = TOP) -> bool:
    g = env.graph
    a, b = g.intern(a), g.intern(b)
    return ssync_ids(g, a, b, g.intern(d.ty) if isinstance(d, SharedC)
                     else TOP_ID if isinstance(d, Top) else BOT_ID)


def is_esync(env: TypeDefEnv, a: SessionType) -> bool:
    """A type is equi-synchronizing exactly when the pair (A, A) is
    subsynchronizing under no obligation."""
    return is_ssync(env, a, a, TOP)


# --------------------------------------------------------------------------- #
# Meet
# --------------------------------------------------------------------------- #

# a shared shift and the linear one above it, in either order: (their
# meet, their join)
_MIXED = {p: (s, l) for s, l in _CROSS for p in ((s, l), (l, s))}


def _same(a: SessionType, b: SessionType) -> bool:
    """a == b, the dataclasses' structural equality, on a stack rather than
    two frames per level: names, labels and bases by value, a choice's
    branches in order. Not graph ids, as a name and its body share one."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        cls = a.__class__
        if cls is not b.__class__ or cls is Ref and a.name != b.name \
                or cls is str and a != b or cls is tuple and len(a) != len(b):
            return False
        if a is not b and cls is not str and cls is not Ref:
            # a choice's branches, each a (label, type) tuple, or the fields
            todo += zip(a, b) if cls is tuple else [
                (getattr(a, f), getattr(b, f)) for f in cls.__slots__]
    return True


class _NoMeet(Exception):
    """Internal signal: the structural meet (or join) does not exist."""


@dataclass
class _MeetState:
    env: TypeDefEnv
    fresh: list[TypeDef]
    memo: dict[tuple, str]
    counter: int = 0

    def mint(self, mode: str) -> str:
        base = "Meet" if mode == "meet" else "Join"
        taken = {*self.env.names(), *(d.name for d in self.fresh)}
        while True:
            name = f"{base}{self.counter}"
            self.counter += 1
            if name not in taken:
                return name


def _mt(st: _MeetState, mode: str, a: SessionType, b: SessionType) -> SessionType:
    """Structural meet (or join, for contravariant positions) closing
    recursion by minting fresh named definitions."""
    if _same(a, b):
        return a
    if isinstance(a, Ref) or isinstance(b, Ref):
        key = (mode, a, b)
        if key in st.memo:
            return Ref(st.memo[key])
        name = st.mint(mode)
        st.memo[key] = name
        placeholder = len(st.fresh)
        memo_snapshot = set(st.memo)
        st.fresh.append(TypeDef(name, LINEAR, One()))
        try:
            body = _mt_struct(st, mode, unfold(st.env, a), unfold(st.env, b))
        except _NoMeet:
            # roll back everything minted inside the failed subderivation:
            # a nested definition may reference this one and must not survive
            for k in set(st.memo) - memo_snapshot:
                del st.memo[k]
            del st.memo[key]
            del st.fresh[placeholder:]
            raise
        mod = SHARED if isinstance(body, UpSL) else LINEAR
        st.fresh[placeholder] = TypeDef(name, mod, body)
        return Ref(name)
    return _mt_struct(st, mode, unfold(st.env, a), unfold(st.env, b))


def _mt_struct(st: _MeetState, mode: str, a: SessionType,
               b: SessionType) -> SessionType:
    ca = a.__class__
    if ca is not b.__class__:
        # the shared shift is below the linear one
        bounds = _MIXED.get((ca, b.__class__))
        if bounds is None:
            raise _NoMeet
        return bounds[mode != "meet"](_mt(st, mode, a.cont, b.cont))
    if ca is One:
        return One()
    if ca is Tensor:
        return Tensor(_mt(st, mode, a.payload, b.payload),
                      _mt(st, mode, a.cont, b.cont))
    if ca is Lolli:
        # payloads are contravariant, so the bound flips there
        dual = "join" if mode == "meet" else "meet"
        return Lolli(_mt(st, dual, a.payload, b.payload),
                     _mt(st, mode, a.cont, b.cont))
    if ca is EChoice or ca is IChoice:
        # each label once, its first branch winning, as in branch()
        la, lb = dict.fromkeys(a.labels()), dict.fromkeys(b.labels())
        if (mode == "meet") == (ca is EChoice):
            # union of labels; non-common branches carried over verbatim
            branches = [(l, _mt(st, mode, a.branch(l), b.branch(l))
                         if l in lb else a.branch(l)) for l in la]
            branches += [(l, b.branch(l)) for l in lb if l not in la]
            return ca(tuple(branches))
        # intersection; a branch whose continuations admit no common
        # bound is dropped, and an empty result collapses
        branches = []
        for l in la:
            if l in lb:
                try:
                    branches.append(
                        (l, _mt(st, mode, a.branch(l), b.branch(l))))
                except _NoMeet:
                    pass
        if not branches:
            raise _NoMeet
        return ca(tuple(branches))
    if ca is ValIn or ca is ValOut:
        if a.base != b.base:
            raise _NoMeet
        return ca(a.base, _mt(st, mode, a.cont, b.cont))
    # a shift of one kind
    return ca(_mt(st, mode, a.cont, b.cont))


def meet(env: TypeDefEnv, c: ConstraintType,
         d: ConstraintType) -> tuple[ConstraintType, TypeDefEnv]:
    """Greatest lower bound of two constraints. May extend the environment
    with fresh definitions that close recursion in the result; two equal
    shared constraints meet at once, as c itself, minting nothing."""
    cc, cd = c.__class__, d.__class__
    if cc is Top:
        return d, env
    if cd is Top:
        return c, env
    if cc is Bot or cd is Bot:
        return BOT, env
    if _same(c.ty, d.ty):
        return c, env
    t, env2 = meet_types(env, c.ty, d.ty)
    return (BOT, env) if t is None else (SharedC(t), env2)


def meet_types(env: TypeDefEnv, a: SessionType,
               b: SessionType) -> tuple[SessionType | None, TypeDefEnv]:
    """Structural meet of two session types; None when no common
    refinement exists."""
    st = _MeetState(env, [], {})
    try:
        t = _mt(st, "meet", a, b)
    except _NoMeet:
        return None, env
    return t, env.extend(*st.fresh)

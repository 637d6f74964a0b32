import itertools
from typing import get_args

from hypothesis import given, settings, strategies as st

from sill.procast import (
    Fwd, FwdLL, FwdSS, FwdLS, Spawn, Close, Wait,
    SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
    Acquire, AcquireL, Accept, AcceptL, Release, ReleaseL, Detach, DetachL,
    SendVal, RecvVal, ProcessTerm, FIELDS,
    freshen, scope,
)
from sill.parser import parse_program
from sill.runtime import SUBJECT


def body_of(src: str, name: str):
    prog = parse_program(src)
    return prog.procs.lookup(name).body


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


def reference_substitute(p: ProcessTerm,
                         renaming: dict[str, str]) -> ProcessTerm:
    """The constructor-by-constructor renaming the role table replaced."""
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
            return Wait(sub(a), reference_substitute(c, renaming))
        case SendChan(a, y, c):
            return SendChan(sub(a), sub(y), reference_substitute(c, renaming))
        case SendChanS(a, y, c):
            return SendChanS(sub(a), sub(y), reference_substitute(c, renaming))
        case SendLabel(a, l, c):
            return SendLabel(sub(a), l, reference_substitute(c, renaming))
        case CaseRecv(a, bs):
            return CaseRecv(sub(a), tuple(
                (l, reference_substitute(t, renaming)) for l, t in bs))
        case SendVal(a, v, c):
            return SendVal(sub(a), sub(v), reference_substitute(c, renaming))
        case Spawn(proc, binder, args, cont, kinds):
            inner = {k: v for k, v in renaming.items() if k != binder}
            return Spawn(proc, binder, tuple(sub(x) for x in args),
                         reference_substitute(cont, inner), kinds)
        case RecvChan(a, binder, cont) | RecvVal(a, binder, cont) \
                | Acquire(binder, a, cont) | AcquireL(binder, a, cont) \
                | Accept(binder, a, cont) | AcceptL(binder, a, cont) \
                | Release(binder, a, cont) | ReleaseL(binder, a, cont) \
                | Detach(binder, a, cont) | DetachL(binder, a, cont):
            inner = {k: v for k, v in renaming.items() if k != binder}
            cont2 = reference_substitute(cont, inner)
            cls = type(p)
            if cls in (RecvChan, RecvVal):
                return cls(sub(a), binder, cont2)
            return cls(binder, sub(a), cont2)
    raise AssertionError(f"unhandled term {p!r}")


def reference_freshen(p: ProcessTerm, gen) -> ProcessTerm:
    """The constructor-by-constructor freshening the role table replaced:
    every binder gets gen(), in preorder."""

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
                return reference_substitute(t, ren)

    return go(p, {})


PIPE = (
    "type pipe = ?int. !int. 1\n"
    "proc P : () |- p: pipe = x <- get p; put p x; close p\n"
)


def test_free_names():
    b = body_of(PIPE, "P")
    assert free_names(b) == frozenset({"p"})
    t = SendChan("a", "b", Close("a"))
    assert free_names(t) == frozenset({"a", "b"})


def test_substitute_free_occurrences():
    t = SendVal("p", "x", Close("p"))
    r = reference_substitute(t, {"p": "q", "x": "y"})
    assert r == SendVal("q", "y", Close("q"))


def test_substitute_respects_shadowing():
    # x is rebound by the receive; the outer renaming must not cross it
    t = RecvVal("p", "x", SendVal("p", "x", Close("p")))
    r = reference_substitute(t, {"x": "z"})
    assert r == t


def test_substitute_case_branches():
    t = CaseRecv("c", (("a", Close("c")), ("b", Wait("d", Close("c")))))
    r = reference_substitute(t, {"d": "e"})
    assert r.branch("b") == Wait("e", Close("c"))


def test_substitute_spawn_binder_shadows():
    t = Spawn("Q", "x", ("a",), Wait("x", Close("o")), None)
    r = reference_substitute(t, {"x": "y", "a": "b"})
    # the spawned channel binder shadows x below; the argument renames
    assert r == Spawn("Q", "x", ("b",), Wait("x", Close("o")), None)


def test_freshen_renames_every_binder():
    b = body_of(PIPE, "P")
    counter = itertools.count()
    fresh = freshen(b, lambda: f"%g{next(counter)}")
    assert isinstance(fresh, RecvVal)
    assert fresh.binder.startswith("%g")
    # free channel p untouched, bound occurrences follow their binder
    assert free_names(fresh) == frozenset({"p"})
    assert fresh.cont == SendVal("p", fresh.binder, Close("p"))


# --------------------------------------------------------------------------- #
# The role table against the reference traversals
# --------------------------------------------------------------------------- #

# few names, so binders often shadow a renamed name or each other
NAMES = st.sampled_from("abxy")


def _spawn(cont):
    return st.lists(NAMES, max_size=3).flatmap(lambda args: st.builds(
        Spawn, st.sampled_from("PQ"), NAMES, st.just(tuple(args)), cont,
        st.none() | st.tuples(*[st.sampled_from(("lin", "sl", "sh"))]
                              * len(args))))


def _extend(cont):
    return st.one_of(
        st.builds(Wait, NAMES, cont),
        *(st.builds(cls, NAMES, NAMES, cont)
          for cls in (SendChan, SendChanS, SendVal, RecvChan, RecvVal,
                      Acquire, AcquireL, Accept, AcceptL,
                      Release, ReleaseL, Detach, DetachL)),
        st.builds(SendLabel, NAMES, st.sampled_from("lr"), cont),
        st.builds(CaseRecv, NAMES, st.lists(
            st.tuples(st.sampled_from("lrm"), cont),
            min_size=1, max_size=3).map(tuple)),
        _spawn(cont),
    )


TERMS = st.recursive(
    st.one_of(st.builds(Close, NAMES),
              *(st.builds(cls, NAMES, NAMES)
                for cls in (Fwd, FwdLL, FwdSS, FwdLS))),
    _extend, max_leaves=25)

RENAMINGS = st.dictionaries(NAMES, st.sampled_from("abxyqr"), max_size=4)


def _counter():
    calls = itertools.count()
    return calls, lambda: f"%g{next(calls)}"


@settings(max_examples=300, deadline=None)
@given(TERMS, RENAMINGS)
def test_freshen_matches_reference(t, ren):
    # one pass equals freshening then renaming the free names, because no
    # fresh %g name is a key of ren
    calls, gen = _counter()
    ref_calls, ref_gen = _counter()
    got = freshen(t, gen, ren)
    assert got == reference_substitute(reference_freshen(t, ref_gen), ren)
    n = next(calls)
    assert n == next(ref_calls)
    assert scope(t) == (n, free_names(t))
    if n == 0 and not free_names(t) & ren.keys():
        assert got is t  # nothing to rename: no copy
    assert freshen(t, _counter()[1]) == reference_freshen(t, _counter()[1])


def test_fields_cover_every_constructor():
    assert set(FIELDS) == set(get_args(ProcessTerm))
    # a field with no role must not hold a channel name
    unnamed = {f for roles in FIELDS.values() for f, r in roles if r is None}
    assert unnamed == {"proc", "label", "kinds"}


def test_subject_table():
    assert SUBJECT == {
        **dict.fromkeys((Close, Wait, Acquire, AcquireL, Accept, AcceptL,
                         Release, ReleaseL, Detach, DetachL), "chan"),
        **dict.fromkeys((SendChan, SendChanS, RecvChan, SendLabel, CaseRecv,
                         SendVal, RecvVal), "on"),
    }


def test_deep_spine_renames_without_recursion():
    n = 20_000
    t = Close("p")
    for _ in range(n):
        t = SendVal("p", "x", t)
    t = RecvVal("p", "x", t)

    def spine(u):
        out = []
        while not isinstance(u, Close):
            out.append(u)
            u = u.cont
        return out, u

    calls, gen = _counter()
    acts, last = spine(freshen(t, gen, {"p": "q"}))
    assert len(acts) == n + 1 and last == Close("q") and next(calls) == 1
    assert acts[0].binder == "%g0"
    assert all(a.on == "q" and a.value == "%g0" for a in acts[1:])

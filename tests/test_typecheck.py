import pytest

from sill.parser import parse_program
from sill.typecheck import check_program

from conftest import CORPUS_FILES


def diags_of(src: str):
    return check_program(parse_program(src))[0]


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_checks_clean(path):
    assert check_program(parse_program(path.read_text()))[0] == []


def test_close_requires_unit():
    assert diags_of("type c = !int. 1\nproc P : () |- x: c = close x\n")


def test_close_requires_empty_linear_context():
    src = (
        "type c = !int. 1\n"
        "proc Q : () |- x: c = put x 1; close x\n"
        "proc P : () |- x: 1 = y <- spawn Q(); close x\n"
    )
    assert diags_of(src)


def test_unknown_channel():
    assert diags_of("proc P : () |- x: 1 = wait y; close x\n")


def test_put_on_receiving_channel():
    assert diags_of("type c = ?int. 1\nproc P : (c: c) |- x: 1 = "
                    "v <- get x; close x\n")


def test_forward_needs_subtype():
    src = (
        "type small = +{a: 1}\n"
        "type big = +{a: 1, b: 1}\n"
        "proc P : (c: big) |- x: small = fwd x c\n"
    )
    assert diags_of(src)
    ok = (
        "type small = +{a: 1}\n"
        "type big = +{a: 1, b: 1}\n"
        "proc P : (c: small) |- x: big = fwd x c\n"
    )
    assert not diags_of(ok)


def test_spawn_argument_subtyping():
    src = (
        "type small = +{a: 1}\n"
        "type big = +{a: 1, b: 1}\n"
        "proc Q : (c: small) |- x: 1 = "
        "case c { a => wait c; close x }\n"
        "proc P : (c: big) |- x: 1 = y <- spawn Q(c); fwd x y\n"
    )
    assert diags_of(src)


def test_dead_branch_kept_unchecked():
    # the provider is declared at a view without the b branch, so the
    # case may keep an arbitrary process there
    src = (
        "type v = &{a: 1}\n"
        "proc P : () |- x: v = case x { a => close x | b => wait q; close x }\n"
    )
    assert not diags_of(src)


def test_case_must_cover_declared_branches():
    src = (
        "type v = &{a: 1, b: 1}\n"
        "proc P : () |- x: v = case x { a => close x }\n"
    )
    assert diags_of(src)


def test_shared_param_cannot_be_waited():
    src = (
        "type s = up_s &{a: down_s s}\n"
        "proc P : (sh c: s) |- x: 1 = wait c; close x\n"
    )
    assert diags_of(src)


def test_shared_passed_as_linear_argument():
    # a shared channel flows into a linear parameter position when the
    # shared type is below the declared linear view
    src = (
        "type s = up_s &{a: down_s s}\n"
        "type sv = up_l &{a: down_l sv}\n"
        "proc Q : (c: sv) |- x: 1 = l <- acquire c; l.a; "
        "r <- release l; k <- spawn Q(r); fwd x k\n"
        "proc P : (sh c: s) |- x: 1 = y <- spawn Q(c); fwd x y\n"
    )
    assert not diags_of(src)


def test_system_main_must_be_linear():
    src = (
        "type s = up_s &{a: down_s s}\n"
        "proc P : () |- x: s = l <- accept x; case l { a => "
        "d <- detach l; n <- spawn P(); fwd d n }\n"
        "system { main P(); }\n"
    )
    assert diags_of(src)


def test_system_spawns_must_be_shared():
    src = (
        "proc P : () |- x: 1 = close x\n"
        "proc M : () |- x: 1 = close x\n"
        "system { p <- spawn P(); main M(); }\n"
    )
    assert diags_of(src)


def test_diagnostics_name_the_rule():
    d = diags_of("type c = !int. 1\nproc P : () |- x: c = close x\n")
    assert any("1R" in s for s in d)
    # types and actions print in surface syntax, not as Python reprs
    assert "P: 1R: offer is not terminated: c" in d
    d = diags_of("type s = up_s &{a: down_s s}\n"
                 "proc P : () |- x: s = wait y; close x\n")
    assert "P: shared: action not available in a shared judgment: " \
        "wait y" in d


@pytest.mark.parametrize("src, want", [
    # the received channel would hide the offer, then a parameter still
    # in use
    ("proc P : (c: cell * 1) |- x: cell = x <- recv c; wait c; fwd x x\n",
     ["P: ⊗L: binder x shadows a channel in scope"]),
    ("proc P : (c: cell * 1, y: cell) |- x: 1 = y <- recv c; wait c; "
     "v <- get y; wait y; close x\n",
     ["P: ⊗L: binder y shadows a channel in scope"]),
    ("proc P : (c: cell) |- x: 1 = x <- get c; wait c; close x\n",
     ["P: ∧L: binder x shadows a channel in scope"]),
    # a shared channel, by an acquire or a spawn
    ("proc U : (sh p: s) |- x: 1 = p <- acquire p; p.a; "
     "q <- release p; close x\n",
     ["U: ↑SL L: binder p shadows a channel in scope"]),
    ("proc U : (sh p: s) |- x: 1 = p <- spawn U(p); wait p; close x\n",
     ["U: SP: binder p shadows a channel in scope"]),
    # a binder continuing the channel it acts on may keep its name
    ("proc U : (sh p: s) |- x: 1 = l <- acquire p; l.a; "
     "l <- release l; close x\n", []),
    ("proc P : () |- x: s = x <- accept x; case x { a => "
     "x <- detach x; n <- spawn P(); fwd x n }\n", []),
])
def test_binder_may_not_shadow_a_channel_in_scope(src, want):
    types = "type cell = !int. 1\ntype s = up_s &{a: down_s s}\n"
    assert diags_of(types + src) == want


def test_duplicate_process_names():
    src = ("proc P : () |- x: 1 = close x\n"
           "proc P : () |- y: 1 = close y\n")
    prog = parse_program(src)
    diags, prog2 = check_program(prog)
    assert diags == ["duplicate process definition: P"]
    # the first definition wins, before and after elaboration
    assert prog.procs.lookup("P").offer == "x"
    assert prog2.procs.lookup("P").body == prog.procs.lookup("P").body


def test_elaboration_resolves_forward_kinds():
    from sill.procast import FwdSS, FwdLS
    src = (
        "type s = up_s &{a: down_s s}\n"
        "proc P : (sh c: s) |- x: s = fwd x c\n"
    )
    diags, prog = check_program(parse_program(src))
    assert diags == []
    assert isinstance(prog.procs.lookup("P").body, FwdSS)


# --------------------------------------------------------------------------- #
# Pinned diagnostics and elaboration over mutants of the corpus bodies
# --------------------------------------------------------------------------- #

import hashlib
from dataclasses import fields, replace

from sill.parser import Program
from sill.procast import (
    FIELDS, NAME, NAMES, BINDER, CONT, BRANCHES, ProcSignature,
    Close, Fwd, Wait, CaseRecv, SendLabel, Acquire, Accept, Release, Detach,
    RecvChan, RecvVal, SendChan, SendVal,
)
from sill.runtime import run, ProgressError

_SWAPS = ((Acquire, Accept, Release, Detach), (RecvChan, RecvVal),
          (SendChan, SendVal))


def _positions(t, path=()):
    """Every subterm of t with its path: "cont" steps along the spine, an
    int into that case branch."""
    yield path, t
    for f, role in FIELDS[type(t)]:
        if role is CONT:
            yield from _positions(t.cont, path + ("cont",))
        elif role is BRANCHES:
            for i, (_, b) in enumerate(t.branches):
                yield from _positions(b, path + (i,))


def _put(t, path, new):
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == "cont":
        return replace(t, cont=_put(t.cont, rest, new))
    bs = list(t.branches)
    bs[step] = (bs[step][0], _put(bs[step][1], rest, new))
    return replace(t, branches=tuple(bs))


def _variants(t, names, offer):
    """The mutants of one subterm: its action dropped, each free name set
    to each of names, its binder renamed, a case arm dropped or relabelled,
    a sent label changed, its action swapped for a kindred one, or the
    whole subterm replaced by a short process on the offer."""
    if hasattr(t, "cont"):
        yield t.cont
    for f, role in FIELDS[type(t)]:
        v = getattr(t, f)
        if role is NAME:
            yield from (replace(t, **{f: n}) for n in names if n != v)
        elif role is NAMES:
            for i, old in enumerate(v):
                yield from (replace(t, **{f: v[:i] + (n,) + v[i + 1:]})
                            for n in names if n != old)
        elif role is BINDER:
            yield replace(t, **{f: "zb"})
    if isinstance(t, CaseRecv):
        bs = t.branches
        for i, (_, body) in enumerate(bs):
            if len(bs) > 1:
                yield replace(t, branches=bs[:i] + bs[i + 1:])
            yield replace(t, branches=bs[:i] + (("zl", body),) + bs[i + 1:])
    if isinstance(t, SendLabel):
        yield replace(t, label="zl")
    for group in _SWAPS:
        if type(t) in group:
            yield from (cls(*[getattr(t, f.name) for f in fields(t)])
                        for cls in group if cls is not type(t))
    yield from (Close(offer), Fwd(offer, "zz"), Wait(offer, Close(offer)))


def _mutants(prog):
    defs = prog.procs.defs
    for i, d in enumerate(defs):
        names = (d.offer, *(prm.chan for prm in d.params), "zz")
        for path, t in list(_positions(d.body)):
            for new in _variants(t, names, d.offer):
                d2 = replace(d, body=_put(d.body, path, new))
                yield Program(prog.types,
                              ProcSignature(defs[:i] + (d2,) + defs[i + 1:]),
                              prog.system)


def _outcome(prog) -> str:
    """A monitored run of an elaborated program that need not check."""
    try:
        res = run(prog, seed=0, max_steps=60, monitor=True)
    except ProgressError as e:
        return f"progress: {e}"
    return f"{res.status.value} {res.steps} {res.violation}"


def _rule(diag: str) -> str:
    # "P: rule: message", or "system: message" for the system block
    return "system" if diag.startswith("system: ") else diag.split(": ")[1]


def _pin(path):
    """(mutants, ill-typed mutants, digest, rules fired) of one file."""
    h, ill, rules = hashlib.sha256(), 0, set()
    n = 0
    for mutant in _mutants(parse_program(path.read_text())):
        n += 1
        diags, elab = check_program(mutant)
        h.update("\n".join(diags).encode() + b"\0")
        h.update(repr(elab.procs.defs).encode() + b"\0")
        if diags:
            ill += 1
            rules.update(map(_rule, diags))
            if mutant.system is not None:
                h.update(_outcome(elab).encode() + b"\0")
    return n, ill, h.hexdigest(), rules


# file -> (mutants, ill-typed mutants, SHA-256 of every mutant's
# diagnostics, elaborated definitions and, when ill-typed, monitored run)
PINNED = {
    "auction": (439, 415,
        "381866390bd18f5ec916540598fd940723b5c28de175bc25b41bb7a6326e7ebd"),
    "basics": (239, 220,
        "5af55df4c3e8cd18f8f1d2ba7f301fab6429d562e1bf6e81eaecd247cf58e724"),
    "dd": (283, 264,
        "1fe5cfa985d0c8ca1f4da12091340765fbec1b4af58ea661ec20a79e30dcf793"),
    "handoff": (269, 261,
        "751b34a1b5321b147e7af5d141b8c4c4637ace0feea2378e3a2486f92a8b8bef"),
    "ignore": (115, 86,
        "5e8b1606fb5a60e263fc5cee7181e0faf76d8248fcac0628bcad6efc41636405"),
    "queue": (224, 209,
        "6a67f0fae483971c1ae3dddd88f09d53580cfe64ddd76eef8c35482aeaf014a4"),
    "stuck": (100, 96,
        "ef898b5c48f6ce7e5fd65664806f2cdc0d2f45cab84e38cc68797b0114da094e"),
}

# every rule name the checker can put in front of a diagnostic
RULES = {
    "ID", "ID_L", "ID_LS", "ID_S", "1R", "1L", "⊗R", "⊗S R",
    "⊸L", "⊸S L", "⊸R", "⊗L", "⊕R", "&L", "&R",
    "⊕L", "∧R", "⊃L", "⊃R", "∧L", "↑SL L",
    "↑LL L", "↑LL R", "↓SL L", "↓SL R", "↑SL R",
    "SP", "SP_SS", "shared", "system",
}

# programs for the rules no mutant of the corpus reaches
_S = "type s = up_s &{a: down_s s}\ntype t = up_s &{b: down_s t}\n"
HANDWRITTEN = {
    _S + "proc P : (sh c: t) |- x: s * 1 = send x c; close x\n":
        ["P: ⊗S R: c does not refine the payload type"],
    _S + "proc P : (sh c: t, d: s -o 1) |- x: 1 = send d c; wait d; "
         "close x\n":
        ["P: ⊸S L: c does not refine the payload type"],
    _S + "proc Q : () |- y: 1 = close y\n"
         "proc P : () |- x: s = n <- spawn Q(); fwd x n\n":
        ["P: SP_SS: a shared judgment may only spawn shared sessions"],
    _S + "proc P : () |- x: 1 = close x\n"
         "system { c <- spawn P(); d <- spawn Nope(); main R(c); }\n":
        ["system: P does not offer a shared session",
         "system: undefined process Nope",
         "system: undefined main process R"],
}


def test_diagnostics_pinned():
    got = {p.stem: _pin(p) for p in CORPUS_FILES}
    assert {k: v[:3] for k, v in got.items()} == PINNED
    fired = set().union(*(v[3] for v in got.values()))
    for src, want in HANDWRITTEN.items():
        diags = diags_of(src)
        assert diags == want
        fired.update(map(_rule, diags))
    assert fired == RULES

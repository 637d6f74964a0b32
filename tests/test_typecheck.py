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

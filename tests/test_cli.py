import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sill.cli import main
from sill.parser import parse_program, tokenize, ParseError

from conftest import CORPUS, CORPUS_FILES, ROOT, mutate

Q = str(CORPUS / "queue.sill")
A = str(CORPUS / "auction.sill")


def test_check_clean_corpus(capsys):
    for p in sorted(CORPUS.glob("*.sill")):
        assert main(["check", str(p)]) == 0


def test_check_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.sill"
    bad.write_text("proc P : () |- x: 1 = wait y; close x\n")
    assert main(["check", str(bad)]) == 1
    captured = capsys.readouterr()
    assert (captured.out + captured.err).strip()


@pytest.mark.parametrize("sig, args, diag", [
    ("(x: cell) |- x: cell = fwd x x", "c",
     "P: SP: parameter x shadows a channel in scope"),
    ("(y: cell, y: cell) |- x: cell = fwd x y", "c, d",
     "P: SP: parameter y shadows a channel in scope"),
], ids=["offer", "parameter"])
def test_check_rejects_a_name_bound_twice_by_a_signature(sig, args, diag,
                                                        tmp_path, capsys):
    # an instance maps each name of the signature to one actual, so a
    # parameter named like the offer or like another parameter would run
    # a body other than the one checked
    f = tmp_path / "p.sill"
    f.write_text(
        "type cell = !int. 1\n"
        "proc Cell : () |- c: cell = put c 1; close c\n"
        f"proc P : {sig}\n"
        "proc Main : () |- m: 1 = "
        + "".join(f"{a} <- spawn Cell(); " for a in args.split(", "))
        + f"p <- spawn P({args}); v <- get p; wait p; close m\n"
        "system { main Main(); }\n")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().err == diag + "\n"


def test_sub_positive_and_negative(capsys):
    assert main(["sub", Q, "shared_queue", "producer"]) == 0
    assert main(["sub", Q, "producer", "shared_queue"]) == 1


def test_esync(capsys):
    assert main(["esync", A, "auction"]) == 0
    assert main(["esync", A, "bidding_shared"]) == 1


def test_ssync(capsys):
    assert main(["ssync", A, "auction", "bidding_ll"]) == 0
    assert main(["ssync", A, "bidding_ll", "auction"]) != 0


def test_meet(capsys):
    assert main(["meet", A, "auction", "auction"]) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_ssync_under_a_bot_or_shared_constraint(capsys):
    assert main(["ssync", Q, "1", "1", "--constraint", "bot"]) == 0
    assert capsys.readouterr().out == "yes\n"
    a = "down_s producer"
    assert main(["ssync", Q, a, a, "--constraint", "producer"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["ssync", Q, a, a, "--constraint", "consumer"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_ssync_of_one_type_under_an_obligation_it_fails(tmp_path, capsys):
    f = tmp_path / "st.sill"
    f.write_text("type s = up_s !int. down_s s\n"
                 "type t = up_s ?int. down_s t\n")
    a = "down_s s"
    assert main(["ssync", str(f), a, a, "--constraint", "t"]) == 1
    assert capsys.readouterr().out == "no\n"


# branch a of pp and qq meets p2 with q2 inside the meet of p and q, which
# then fails at p3 and q3, so the branch is dropped; branch b meets p2
# with q2 again under a new name
MEET_DROPS = (
    "type p2 = !int. 1\ntype p3 = !int. 1\n"
    "type q2 = !int. 1\ntype q3 = !bool. 1\n"
    "type p = p2 * p3\ntype q = q2 * q3\n"
    "type pp = +{a: p, b: p2}\ntype qq = +{a: q, b: q2}\n"
    "type u = 1\ntype w = 1\n"
)


@pytest.mark.parametrize("a, b, want", [
    ("pp", "qq", "type Meet0 = +{b: Meet4}\ntype Meet4 = !int. 1\nMeet0\n"),
    ("u", "w", "type Meet0 = 1\nMeet0\n"),
], ids=["dropped_branch", "units"])
def test_meet_prints_the_definitions_it_mints(a, b, want, tmp_path, capsys):
    f = tmp_path / "meet.sill"
    f.write_text(MEET_DROPS)
    assert main(["meet", str(f), a, b]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("a, b, want", [
    ("+{a: 1, a: !int. 1}", "+{a: 1}", "+{a: 1}"),
    ("&{a: 1, a: !int. 1}", "&{b: 1, b: 1 * 1}", "&{a: 1, b: 1}"),
], ids=["intersection", "union"])
def test_meet_keeps_each_label_once(a, b, want, capsys):
    # a repeated label's first branch wins, as everywhere else, so the meet
    # is a type the environment's validation would accept
    assert main(["meet", Q, a, b]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_fmt_round_trip(tmp_path, capsys):
    assert main(["fmt", Q]) == 0
    out = capsys.readouterr().out
    f = tmp_path / "q.sill"
    f.write_text(out)
    assert main(["fmt", str(f)]) == 0
    assert capsys.readouterr().out == out


def test_run_statuses(capsys):
    assert main(["run", str(CORPUS / "basics.sill"), "--steps", "200"]) == 0
    assert main(["run", str(CORPUS / "stuck.sill"), "--steps", "50"]) == 0
    out = capsys.readouterr().out
    assert "stuck_acquire" in out


def test_run_trace_files_identical(tmp_path, capsys):
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for t in (t1, t2):
        assert main(["run", A, "--seed", "9", "--steps", "80",
                     "--trace", str(t)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    rec = json.loads(t1.read_text().splitlines()[0])
    assert rec["step"] == 1


def test_run_policy_fifo(capsys):
    assert main(["run", str(CORPUS / "queue.sill"), "--policy", "fifo"]) == 0


def test_run_main_override(capsys):
    assert main(["run", str(CORPUS / "basics.sill"), "--main", "Main"]) == 0


def test_run_no_static_monitors(tmp_path, capsys):
    bad = tmp_path / "bad.sill"
    bad.write_text(
        "type s = up_s &{a: down_s t}\n"
        "type t = up_s &{b: down_s t}\n"
        "proc Bad : () |- x: s = l <- accept x; case l { a => "
        "d <- detach l; n <- spawn Bad(); fwd d n }\n"
        "proc C : (sh p: s) |- x: 1 = l <- acquire p; l.a; "
        "q <- release l; close x\n"
        "system { p <- spawn Bad(); main C(p); }\n"
    )
    # static gate rejects it outright
    assert main(["run", str(bad)]) == 1
    # bypassing the gate, the runtime monitor raises the violation
    assert main(["run", str(bad), "--no-static"]) == 1
    assert "violation" in capsys.readouterr().out.lower()
    # with the monitor off as well it halts without progress: one line on
    # stderr, exit 1
    assert main(["run", str(bad), "--no-static", "--no-monitor"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("progress: ") and len(err.splitlines()) == 1


def test_run_no_static_runs_first_duplicate(tmp_path, capsys):
    first = ("type u = 1\n"
             "proc P : () |- c: u = close c\n")
    rest = ("proc Q : () |- d: u = close d\n"
            "proc M : () |- m: 1 = y <- spawn P(); wait y; close m\n"
            "system { main M(); }\n")
    dup = first + "proc P : () |- c: u = z <- spawn Q(); wait z; close c\n"
    traces = []
    for i, src in enumerate((first + rest, dup + rest)):
        f, t = tmp_path / f"{i}.sill", tmp_path / f"{i}.jsonl"
        f.write_text(src)
        assert main(["run", str(f), "--no-static", "--trace", str(t)]) == 0
        traces.append(t.read_text())
    assert traces[0] == traces[1]
    assert main(["check", str(f)]) == 1
    assert "duplicate process definition: P" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--no-static"]],
                         ids=["static", "no_static"])
def test_run_main_is_checked(extra, capsys):
    # --main replaces the system block before the check, so an undefined
    # process or one that takes arguments is a diagnostic, not a traceback
    # or a run of unbound parameters
    assert main(["run", Q, "--main", "Nope"] + extra) == 1
    assert capsys.readouterr().err == "system: undefined main process Nope\n"
    assert main(["run", Q, "--main", "Writer"] + extra) == 1
    assert capsys.readouterr().err == "SP: Writer takes 1 arguments, got 0\n"


def test_usage_errors_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["sub", Q]) == 2
    assert main(["check", "/nonexistent/file.sill"]) == 2


@pytest.mark.parametrize("steps", ["-5", "-1", "many"])
def test_run_rejects_a_step_bound_that_is_not_a_count(steps, capsys):
    assert main(["run", Q, "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--steps" in captured.err and "Traceback" not in captured.err
    assert main(["run", Q, "--steps", "0"]) == 0
    assert capsys.readouterr().out == "max_steps after 0 steps\n"


def test_readme_examples_exit_0(monkeypatch, capsys):
    # the seven commands of the README's CLI section, which CI also runs
    # through the installed console script
    import shlex
    monkeypatch.chdir(ROOT)
    lines = [line.split("#")[0] for line in
             (ROOT / "README.md").read_text().splitlines()
             if line.startswith("sill ")]
    assert len(lines) == 7
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_run_without_a_system_block_exits_2(tmp_path, capsys):
    f = tmp_path / "types.sill"
    f.write_text("type cell = !int. 1\n")
    assert main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "program has no system block\n"


def test_syntax_error_exit_2(tmp_path, capsys):
    f = tmp_path / "syn.sill"
    f.write_text("type t = +{\n")
    assert main(["check", str(f)]) == 2
    captured = capsys.readouterr()
    assert "line" in (captured.out + captured.err)


def _straight_line(n: int) -> str:
    """A Main of n actions in one straight line: spawn, get and wait on a
    fresh cell, repeated, then close."""
    body = "".join(f"    c{i} <- spawn Cell();\n    v{i} <- get c{i};\n"
                   f"    wait c{i};\n" for i in range(n // 3))
    return ("type cell = !int. 1\n"
            "proc Cell : () |- c: cell = put c 5; close c\n"
            "proc Main : () |- x: 1 =\n" + body + "    close x\n"
            "system { main Main(); }\n")


def test_too_deep_program_exits_2(tmp_path, capsys):
    # the parser, checker and printer loop along the continuation spine, so
    # 3000 actions in one straight line check; nesting through case arms
    # past the recursion limit still ends in one line and exit 2
    line = tmp_path / "line.sill"
    line.write_text(_straight_line(3000))
    for cmd in ("check", "fmt"):
        assert main([cmd, str(line)]) == 0
    capsys.readouterr()
    deep = tmp_path / "deep.sill"
    deep.write_text("proc P : (c: +{a: 1}) |- x: 1 =\n"
                    + "case c { a => " * 1200 + "wait c; close x"
                    + " }" * 1200 + "\n")
    for cmd in ("check", "fmt", "run"):
        assert main([cmd, str(deep)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"{deep}: program too deep to process\n"


def test_too_deep_type_exits_2(tmp_path, capsys):
    # a type nested past the recursion limit ends each command that reads
    # the file in one line and exit 2
    deep = tmp_path / "deep.sill"
    deep.write_text("type t = " + "+{a: " * 3000 + "1" + "}" * 3000 + "\n")
    for argv in (["check"], ["fmt"], ["sub", "t", "t"]):
        assert main([argv[0], str(deep)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"{deep}: program too deep to process\n"


def test_too_deep_shift_exits_2(tmp_path, capsys):
    # 3000 nested linear shifts as a type argument of a judgment, and as a
    # type definition, end each command in one line and exit 2
    deep = "up_l " * 3000 + "1"
    f = tmp_path / "deep.sill"
    f.write_text(f"type t = {deep}\n")
    for argv in (["sub", Q, deep, deep], ["esync", Q, deep],
                 ["fmt", str(f)], ["check", str(f)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"{argv[1]}: program too deep to process\n"


def test_a_deep_type_takes_one_frame_per_node(capsys):
    # interning walks one frame per node of a type, so a chain of 900
    # value outputs is decided; a far deeper one still ends in one line
    # and exit 2
    deep = "!int. " * 900 + "1"
    assert main(["sub", Q, deep, deep]) == 0
    assert capsys.readouterr().out == "yes\n"
    deeper = "!int. " * 20000 + "1"
    assert main(["sub", Q, deeper, deeper]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"{Q}: program too deep to process\n"


def test_the_meet_of_a_deep_type_with_itself(capsys):
    # the meet compares two types on a stack, not two frames per level, so
    # a chain of 900 value outputs meets itself at once; a far deeper one
    # still ends in one line and exit 2
    deep = "!int. " * 900 + "1"
    assert main(["meet", Q, deep, deep]) == 0
    assert capsys.readouterr().out == deep + "\n"
    deeper = "!int. " * 20000 + "1"
    assert main(["meet", Q, deeper, deeper]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"{Q}: program too deep to process\n"


@pytest.mark.parametrize("argv, message", [
    (["sub", Q, "+{a 1}", "producer"], "line 1: expected ':', got '1'"),
    (["sub", Q, "1 *\n\n", "producer"], "line 3: expected a type, got ''"),
    (["sub", Q, "(producer", "producer"], "line 1: expected ')', got ''"),
    (["sub", Q, "é½", "producer"], "undefined type name: é½"),
    (["ssync", Q, "shared_queue", "producer producer"],
     "line 1: expected 'eof', got 'producer'"),
    (["ssync", Q, "shared_queue", "producer", "--constraint", "up_s #"],
     "line 1: unexpected character '#'"),
    (["ssync", Q, "1", "1", "--constraint", "1"],
     "--constraint 1: not top, bot or a shared type"),
    (["ssync", Q, "queue", "queue", "--constraint", "queue"],
     "--constraint queue: not top, bot or a shared type"),
], ids=["colon", "eof_line_3", "paren", "undefined", "eof", "character",
        "linear_constraint", "linear_named_constraint"])
def test_bad_type_argument_exits_2(argv, message, capsys):
    # parse_type reads each type argument; a malformed one ends the command
    # with its parse error on one line, and so does a constraint that is
    # a linear type, which the judgment has no place for
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"


def test_straight_line_10k_actions(tmp_path, capsys):
    # a step moves Main's closure on without rebuilding its term, so the
    # line runs to the end: a spawn, a get and a wait for each cell.
    # Monitored too: the first recheck of Main records the context of
    # every node of its spine, and each later one looks its node up there.
    f = tmp_path / "line.sill"
    f.write_text(_straight_line(10_000))
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["fmt", str(f)]) == 0
    out = capsys.readouterr().out
    main_body = out.split("proc Main")[1].split("system")[0]
    assert len(main_body.split(";\n")) == 10_000
    f.write_text(out)
    assert main(["fmt", str(f)]) == 0
    assert capsys.readouterr().out == out
    for extra in ([], ["--no-monitor"]):
        assert main(["run", str(f), "--steps", "20"] + extra) == 0
        assert capsys.readouterr().out == "max_steps after 20 steps\n"
    steps = 3 * (10_000 // 3)
    for extra in (["--no-monitor"], []):
        start = time.perf_counter()
        assert main(["run", str(f), "--steps", "100000"] + extra) == 0
        assert capsys.readouterr().out == f"all_poised after {steps} steps\n"
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("argv", [
    ["check", "{dir}"],
    ["fmt", "{latin1}"],
    ["run", Q, "--trace", "{dir}"],
    ["sub", Q, "nosuch", "producer"],
    ["ssync", Q, "producer", "nosuch"],
    ["ssync", Q, "shared_queue", "producer", "--constraint", "nosuch"],
    ["esync", Q, "nosuch"],
    ["meet", Q, "producer", "nosuch"],
], ids=["dir", "not_utf8", "trace_dir", "sub", "ssync", "constraint",
        "esync", "meet"])
def test_bad_input_or_name_exits_2(argv, tmp_path, capsys):
    # a directory, an undecodable file, an unwritable trace path and an
    # unknown type name each end in one line, not a traceback
    latin1 = tmp_path / "latin1.sill"
    latin1.write_bytes("// caf\xe9\n".encode("latin-1"))
    argv = [a.format(dir=tmp_path, latin1=latin1) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sub", "a", "b"], ["ssync", "a", "a"], ["esync", "a"], ["meet", "a", "b"],
], ids=lambda argv: argv[0])
def test_judgments_on_an_invalid_environment_exit_1(argv, tmp_path):
    # the judgments assume a well-formed environment; on a cycle of names
    # they would raise or, for meet, unfold forever, so a subprocess with a
    # timeout runs each
    f = tmp_path / "cycle.sill"
    f.write_text("type a = b\ntype b = a\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "sill.cli", argv[0], str(f),
                          *argv[1:]], capture_output=True, text=True,
                         timeout=30, env=env)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("non-contractive: a -> b -> a\n"
                          "non-contractive: b -> a -> b\n")


HANDOFF_BAD = (CORPUS / "handoff.sill").read_text().replace(
    "send t2 p;", "send t2 x;")


@pytest.mark.parametrize("extra, want", [
    ([], "process at %g4 no longer typechecks: "
         "⊸L: unknown payload channel %g4"),
    (["--no-monitor"], "progress: "),
], ids=["monitored", "unmonitored"])
def test_run_no_static_unelaborated_spawn(extra, want, tmp_path, capsys):
    # the failed definition keeps its unelaborated body, whose linear spawn
    # has no argument kinds: it offers no step, so the run halts without
    # progress instead of crashing in the spawn rule; the monitor rejects
    # the process sending its own offer before that
    f = tmp_path / "h.sill"
    f.write_text(HANDOFF_BAD)
    assert main(["run", str(f), "--no-static"] + extra) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(want) and len(err.splitlines()) == 1


def test_run_no_monitor_halts_where_a_closer_still_uses_a_channel(
        tmp_path, capsys):
    # a corpus mutant whose Adder closes right after it receives a cell:
    # unmonitored, the run halts without progress at the close, naming the
    # closer and the cell, rather than dropping the closer and leaving the
    # cell's provider with no client
    f = tmp_path / "b.sill"
    f.write_text((CORPUS / "basics.sill").read_text().replace(
        "v <- get y;\n    wait y;\n    close a", "close a"))
    assert main(["run", str(f), "--no-static", "--no-monitor"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "progress: process at %g14 closes while it still uses %g16\n"


def test_run_no_monitor_halts_where_a_detacher_still_uses_a_channel(
        tmp_path, capsys):
    # the session receives x and detaches still holding it: unmonitored,
    # the run halts without progress at the detach, naming the session and
    # x, rather than returning the session to the shared part without x
    # and leaving Q, x's provider, with no client
    f = tmp_path / "d.sill"
    f.write_text(
        "type srv = up_s (1 -o down_s srv)\n"
        "proc Srv : () |- s: srv = l <- accept s; y <- recv l; "
        "d <- detach l; n <- spawn Srv(); fwd d n\n"
        "proc Q : () |- x: 1 = close x\n"
        "proc R : () |- r: 1 -o 1 = y <- recv r; wait y; close r\n"
        "proc C : (sh s: srv, x: 1) |- c: (1 -o 1) -o 1 = "
        "l <- acquire s; rr <- recv c; send l x; l2 <- release l; "
        "wait rr; close c\n"
        "proc M : (sh s: srv) |- m: 1 = x <- spawn Q(); "
        "c <- spawn C(s, x); r <- spawn R(); send c r; wait c; close m\n"
        "system { s <- spawn Srv(); main M(s); }\n")
    assert main(["run", str(f), "--no-static", "--no-monitor"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "progress: process at s detaches while it still uses %g8\n"


def test_run_no_static_linear_payload_halts_at_send(tmp_path, capsys):
    # a process sending its own offer: a linear name is never a shared
    # payload, so the monitor halts the run at the send itself, not at the
    # client's later use of what it received
    f = tmp_path / "s.sill"
    f.write_text(
        "type cell = !int. 1\n"
        "proc P : () |- x: cell * 1 = send x x; close x\n"
        "proc Main : () |- m: 1 = p <- spawn P(); y <- recv p; wait p; "
        "v <- get y; wait y; close m\n"
        "system { main Main(); }\n")
    assert main(["run", str(f), "--no-static", "--policy", "fifo"]) == 1
    out, err = capsys.readouterr()
    assert out == "monitor_violation after 1 steps\n"
    assert err == ("process at %g4 no longer typechecks: "
                   "⊗R: unknown payload channel %g4\n")


@pytest.mark.parametrize("src, diag", [
    ("proc P : () |- x: nosuch = close x\n",
     "undefined reference: nosuch in P"),
    ("type a = !int. b\nproc P : () |- x: a = close x\n"
     "system { main P(); }\n",
     "undefined reference: b in a"),
], ids=["signature", "typedef"])
@pytest.mark.parametrize("argv", [
    ["check"], ["run"], ["run", "--no-static"],
    ["run", "--no-static", "--no-monitor"],
], ids=["check", "run", "no_static", "no_monitor"])
def test_undefined_type_name_exits_1(src, diag, argv, tmp_path, capsys):
    # --no-static skips the process bodies, never the type environment or
    # the signatures
    f = tmp_path / "u.sill"
    f.write_text(src)
    assert main([argv[0], str(f)] + argv[1:]) == 1
    assert capsys.readouterr().err == diag + "\n"


_COMMANDS = (["check"], ["fmt"], ["run", "--no-static", "--steps", "60"],
             ["run", "--no-static", "--no-monitor", "--steps", "200"])


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(CORPUS_FILES),
       edits=st.lists(st.tuples(st.sampled_from(("del", "dup", "swap")),
                                st.integers(0, 10**6), st.integers(0, 10**6)),
                      min_size=1, max_size=3))
def test_fuzz_mutated_corpus(path, edits, tmp_path, capsys):
    # token deletions, duplications and swaps end every command, the
    # judgments among them, with a documented exit code and no exception
    _fuzz(mutate(path.read_text(), edits), tmp_path, capsys)


def swap_within_declaration(src: str, swaps) -> str:
    """src with words swapped by (d, i, j) triples, joined by spaces: in
    declaration d, word i and the j-th word of its kind (ident, num or kw)
    there (indexes taken modulo the counts). Most of these still parse,
    so the commands after the parser see them."""
    toks = tokenize(src)[:-1]
    text = [t.text for t in toks]
    starts = [k for k, t in enumerate(toks)
              if t.kind == "kw" and t.text in ("type", "proc", "system")]
    for d, i, j in swaps:
        lo = starts[d % len(starts)]
        hi = next((k for k in starts if k > lo), len(toks))
        words = [k for k in range(lo, hi)
                 if toks[k].kind in ("ident", "num", "kw")]
        a = words[i % len(words)]
        same = [k for k in words if toks[k].kind == toks[a].kind]
        b = same[j % len(same)]
        text[a], text[b] = text[b], text[a]
    return " ".join(text)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(CORPUS_FILES),
       swaps=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                                st.integers(0, 10**6)),
                      min_size=1, max_size=3))
def test_fuzz_same_kind_swaps_in_one_declaration(path, swaps, tmp_path,
                                                 capsys):
    # swapping words of one kind inside one declaration keeps most files
    # parsing, so the checker, the runs and the judgments see them; each
    # ends with a documented exit code and no exception
    _fuzz(swap_within_declaration(path.read_text(), swaps), tmp_path, capsys)


def test_same_kind_swaps_mostly_parse():
    import random
    rng = random.Random("same kind swaps")
    parsed = 0
    for _ in range(200):
        swaps = [(rng.randrange(10**6), rng.randrange(10**6),
                  rng.randrange(10**6)) for _ in range(rng.randint(1, 3))]
        try:
            parse_program(swap_within_declaration(
                rng.choice(CORPUS_FILES).read_text(), swaps))
            parsed += 1
        except ParseError:
            pass
    assert parsed > 100


def _fuzz(src, tmp_path, capsys):
    """Every command, the judgments on the first type names src defines
    among them, ends with a documented exit code and no exception."""
    f = tmp_path / "m.sill"
    f.write_text(src)
    for argv in _COMMANDS:
        assert main([argv[0], str(f)] + argv[1:]) in (0, 1, 2)
    # the judgments on the first type names the file defines
    try:
        names = parse_program(f.read_text()).types.names()
    except ParseError:
        names = ()
    if names:
        a, b = names[0], names[1 % len(names)]
        for argv in (["sub", a, b], ["esync", a], ["meet", a, b]):
            assert main([argv[0], str(f)] + argv[1:]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err

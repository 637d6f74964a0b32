import json
import pathlib

import pytest

from sill.cli import main

from conftest import CORPUS

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


def test_usage_errors_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["sub", Q]) == 2
    assert main(["check", "/nonexistent/file.sill"]) == 2


def test_syntax_error_exit_2(tmp_path, capsys):
    f = tmp_path / "syn.sill"
    f.write_text("type t = +{\n")
    assert main(["check", str(f)]) == 2
    captured = capsys.readouterr()
    assert "line" in (captured.out + captured.err)


def test_too_deep_program_exits_2(tmp_path, capsys):
    # 3000 actions in one straight line exceed the recursion limit of the
    # parser, checker and printer
    body = "".join(f"    c{i} <- spawn Cell();\n    v{i} <- get c{i};\n"
                   f"    wait c{i};\n" for i in range(1000))
    deep = tmp_path / "deep.sill"
    deep.write_text("type cell = !int. 1\n"
                    "proc Cell : () |- c: cell = put c 5; close c\n"
                    "proc Main : () |- x: 1 =\n" + body + "    close x\n")
    for cmd in ("check", "fmt"):
        assert main([cmd, str(deep)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"{deep}: program too deep to process\n"


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

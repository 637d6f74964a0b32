import dataclasses
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from sill.parser import parse_program
from sill.typecheck import check_program
from sill.runtime import (
    RunStatus, run, initial_config, enumerate_steps, apply_step,
    monitor_check, classify, Connect, Proc, ProgressError,
)
from sill.types import SharedC, BOT, TOP, Ref, One, Tensor
from sill import procast
from sill.procast import CaseRecv, Close
from sill.printer import format_proc

from conftest import CORPUS, CORPUS_FILES
from test_procast import TERMS, NAMES, reference_substitute


def checked(path):
    diags, prog = check_program(parse_program(path.read_text()))
    assert diags == []
    return prog


def by_stem(stem):
    for p in CORPUS_FILES:
        if p.stem == stem:
            return checked(p)
    raise KeyError(stem)


EXPECTED_STATUS = {
    "basics": RunStatus.ALL_POISED,
    "queue": RunStatus.ALL_POISED,
    "ignore": RunStatus.ALL_POISED,
    "auction": RunStatus.MAX_STEPS,
    "dd": RunStatus.MAX_STEPS,
    "handoff": RunStatus.MAX_STEPS,
    "stuck": RunStatus.STUCK_ACQUIRE,
}


@pytest.mark.parametrize("stem", sorted(EXPECTED_STATUS), ids=str)
def test_corpus_run_status(stem):
    prog = by_stem(stem)
    for seed in (0, 1, 7):
        r = run(prog, seed=seed, max_steps=300)
        assert r.status == EXPECTED_STATUS[stem], r.violation
        assert r.violation is None


def test_terminating_runs_reach_quiescence_under_fifo():
    r = run(by_stem("basics"), policy="fifo")
    assert r.status == RunStatus.ALL_POISED
    # every remaining process is poised on its own offered channel
    assert classify(r.config) == RunStatus.ALL_POISED


def test_stuck_acquire_is_immediate_and_schedule_independent():
    prog = by_stem("stuck")
    for seed in range(10):
        r = run(prog, seed=seed)
        assert r.status == RunStatus.STUCK_ACQUIRE
        assert r.steps <= 3


def test_trace_determinism():
    prog = by_stem("auction")
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        run(prog, seed=42, max_steps=120, trace=buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 120


def test_trace_lines_are_json_records():
    buf = io.StringIO()
    run(by_stem("queue"), seed=3, max_steps=50, trace=buf)
    lines = buf.getvalue().splitlines()
    assert lines
    for ln in lines:
        rec = json.loads(ln)
        assert set(rec) == {"step", "rule", "consumed", "produced", "fresh"}
        for pred in rec["consumed"] + rec["produced"]:
            assert pred["kind"] in {"procL", "procS", "unavail", "connect"}


def test_different_seeds_may_differ_but_all_clean():
    prog = by_stem("dd")
    for seed in range(6):
        r = run(prog, seed=seed, max_steps=200)
        assert r.status == RunStatus.MAX_STEPS
        assert r.violation is None


# a linear process bringing a fresh shared session into existence; the
# corpus spawns its shared sessions from the manifest or from shared
# bodies, so this transition needs its own program
SPAWN_LS = (
    "type s = up_s &{a: down_s s}\n"
    "proc P : () |- k: s = l <- accept k; case l { a => "
    "d <- detach l; n <- spawn P(); fwd d n }\n"
    "proc M : () |- x: 1 = k <- spawn P(); a <- acquire k; a.a; "
    "r <- release a; close x\n"
    "system { main M(); }\n"
)


def test_rules_exercised_across_corpus():
    seen = set()
    progs = [by_stem(stem) for stem in EXPECTED_STATUS]
    diags, extra = check_program(parse_program(SPAWN_LS))
    assert diags == []
    progs.append(extra)
    for prog in progs:
        buf = io.StringIO()
        run(prog, seed=5, max_steps=250, trace=buf)
        for ln in buf.getvalue().splitlines():
            seen.add(json.loads(ln)["rule"])
    required = {
        "fwd_ll", "fwd_ss", "fwd_ls", "spawn_ll", "spawn_ls", "spawn_ss",
        "one", "tensor", "tensor_s", "lolli", "lolli_s", "plus", "with",
        "val_out", "val_in", "up_ll", "down_ll",
        "up_sl", "up_sl2", "down_sl", "down_sl2",
    }
    assert required <= seen, sorted(required - seen)


# SHA-256 (first 16 hex digits) of the trace bytes of a 300-step monitored
# run followed by "<status> <steps>"; computed once and never edited, so
# any change to the rule set, the order of records within a trace line or
# the order of fresh names shows up here
PINNED_TRACES = {
    ("auction", "seed0"): "57a05f80462ac01b",  # max_steps 300
    ("auction", "seed5"): "fdddc2ede40d6bee",  # max_steps 300
    ("auction", "fifo"): "88d13481b9673b46",  # max_steps 300
    ("basics", "seed0"): "1076afb76e19b60a",  # all_poised 21
    ("basics", "seed5"): "ab0e62786db55b03",  # all_poised 21
    ("basics", "fifo"): "4239630d7c067365",  # all_poised 21
    ("dd", "seed0"): "dcd8728b400eb621",  # max_steps 300
    ("dd", "seed5"): "c7378153cecc2db0",  # max_steps 300
    ("dd", "fifo"): "d4da6735584f80a3",  # max_steps 300
    ("handoff", "seed0"): "6a3a73ca5593abb4",  # max_steps 300
    ("handoff", "seed5"): "676fc30fb6eb1c0f",  # max_steps 300
    ("handoff", "fifo"): "1cf520b27de50a57",  # max_steps 300
    ("ignore", "seed0"): "80ca852486a2fcff",  # all_poised 7
    ("ignore", "seed5"): "a26051fe60025451",  # all_poised 7
    ("ignore", "fifo"): "a26051fe60025451",  # all_poised 7
    ("queue", "seed0"): "df4b36b26576fec4",  # all_poised 16
    ("queue", "seed5"): "8c5d90f5b42fab33",  # all_poised 16
    ("queue", "fifo"): "0b347fe2194e497a",  # all_poised 16
    ("stuck", "seed0"): "59697272ada08138",  # stuck_acquire 1
    ("stuck", "seed5"): "59697272ada08138",  # stuck_acquire 1
    ("stuck", "fifo"): "59697272ada08138",  # stuck_acquire 1
    ("spawn_ls", "seed0"): "ff764d149870b407",  # all_poised 6
    ("spawn_ls", "seed5"): "ff764d149870b407",  # all_poised 6
    ("spawn_ls", "fifo"): "ff764d149870b407",  # all_poised 6
}


def test_trace_bytes_pinned():
    progs = {stem: by_stem(stem) for stem in sorted(EXPECTED_STATUS)}
    diags, progs["spawn_ls"] = check_program(parse_program(SPAWN_LS))
    assert diags == []
    got = {}
    for name, prog in progs.items():
        for label, kw in (("seed0", {"seed": 0}), ("seed5", {"seed": 5}),
                          ("fifo", {"policy": "fifo"})):
            buf = io.StringIO()
            r = run(prog, max_steps=300, trace=buf, **kw)
            h = hashlib.sha256(buf.getvalue().encode())
            h.update(f"{r.status.value} {r.steps}".encode())
            got[name, label] = h.hexdigest()[:16]
    assert got == PINNED_TRACES


def wide_source():
    """A two-level program on the shared queue of corpus/queue.sill: Main
    spawns 3 Batches, each spawning 8 Cells before draining them, then 6
    clients of the queue, and waits for all of them. It grows to 29-35 live
    processes, where the corpus never passes about 10."""
    src = (CORPUS / "queue.sill").read_text()
    prelude = src[:src.index("proc Main")]
    clients = ("Writer", "Reader") * 3
    spawn = [f"c{i} <- spawn Cell();" for i in range(8)]
    drain = [f"v{i} <- get c{i}; wait c{i};" for i in range(8)]
    starts = [f"b{i} <- spawn Batch();" for i in range(3)]
    starts += [f"k{j} <- spawn {w}(q);" for j, w in enumerate(clients)]
    waits = [f"wait b{i};" for i in range(3)]
    waits += [f"wait k{j};" for j in range(len(clients))]
    return "\n".join([
        prelude,
        "type cell = !int. 1",
        "proc Cell : () |- c: cell = put c 1; close c",
        "proc Batch : () |- b: 1 = " + " ".join(spawn + drain) + " close b",
        "proc Main : (sh q: shared_queue) |- x: 1 = "
        + " ".join(starts + waits) + " close x",
        "system { q <- spawn QueueProv(); main Main(q); }",
        "",
    ])


def drive(prog, choose):
    """Step a configuration to quiescence, or to a step that halts without
    progress (an ill-typed process closing while it still uses channels),
    choose(steps) picking each step; yields the configuration after every
    step."""
    cfg = initial_config(prog)
    while steps := enumerate_steps(cfg):
        try:
            apply_step(cfg, choose(steps))
        except ProgressError:
            return
        yield cfg


# the same digest as PINNED_TRACES for monitored runs of wide_source() to
# quiescence (126 steps); computed once and never edited, so a wrong
# tie-break in the order of a large configuration shows up here
WIDE_TRACES = {
    "seed0": "00aa548ce7a679cc",  # all_poised 126
    "seed5": "d961f72247975e1d",  # all_poised 126
    "fifo": "cb2d83fdb3098a66",  # all_poised 126
}


def test_wide_trace_bytes_pinned():
    diags, prog = check_program(parse_program(wide_source()))
    assert diags == []
    peak = max(sum(hasattr(e, "term") for e in cfg.theta) + len(cfg.lam)
               for cfg in drive(prog, lambda steps: steps[0]))
    assert peak > 25
    got = {}
    for label, kw in (("seed0", {"seed": 0}), ("seed5", {"seed": 5}),
                      ("fifo", {"policy": "fifo"})):
        buf = io.StringIO()
        r = run(prog, max_steps=1000, trace=buf, **kw)
        assert r.status == RunStatus.ALL_POISED and r.steps == 126
        h = hashlib.sha256(buf.getvalue().encode())
        h.update(f"{r.status.value} {r.steps}".encode())
        got[label] = h.hexdigest()[:16]
    assert got == WIDE_TRACES


def reference_order(theta):
    """The quadratic greedy the runtime's order is defined by: place, again
    and again, the leftmost entry that no other entry still to place uses
    (an entry using its own channel is always ready); a usage cycle keeps
    its entries in their order at the end."""
    def used(e, offered):
        return ({e.target} if isinstance(e, Connect) else set(e.uses)) \
            & offered
    remaining = list(theta)
    offered = {e.chan for e in remaining}
    out = []
    while remaining:
        used_by_rest = set()
        for e in remaining:
            used_by_rest |= used(e, offered)
        for i, e in enumerate(remaining):
            if e.chan not in used_by_rest or e.chan in used(e, offered):
                out.append(e)
                remaining.pop(i)
                offered.discard(e.chan)
                break
        else:
            out.extend(remaining)
            remaining = []
    return out


def test_retopo_matches_reference_order(monkeypatch):
    import random
    from types import SimpleNamespace
    from sill import runtime
    fast = runtime._retopo
    sizes, sinks = [], []

    def checked_retopo(cfg):
        want = reference_order(cfg.theta)
        fast(cfg)
        assert [id(e) for e in cfg.theta] == [id(e) for e in want]
        sizes.append(len(want))

    monkeypatch.setattr(runtime, "_retopo", checked_retopo)
    monkeypatch.setattr(runtime, "_sink", lambda cfg, p, sink=runtime._sink:
                        sinks.append(sink(cfg, p)) or sinks[-1])
    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    progs += [check_program(parse_program(src))[1]
              for src in (SPAWN_LS, wide_source())]
    for prog in progs:
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for n, cfg in enumerate(drive(prog, rng.choice)):
                # every entry uses only channels offered to its right
                offered = {e.chan for e in cfg.theta}
                right = set()
                for e in reversed(cfg.theta):
                    mine = {e.target} if isinstance(e, Connect) \
                        else set(e.uses)
                    assert mine & offered <= right | {e.chan}
                    right.add(e.chan)
                if n == 200:
                    break
    # the sink moves what waits on a phase's new process: 220 times
    assert max(sizes) > 25 and sinks.count(True) > 150
    # random usage graphs: entries using their own channel, channels no
    # entry offers, and cycles, which well-typed steps never produce
    rng = random.Random(0)
    for _ in range(300):
        chans = [f"c{i}" for i in range(rng.randrange(1, 12))]
        theta = [Connect(c, rng.choice(chans)) if rng.random() < 0.2 else
                 Proc(c, None, None, dict.fromkeys(
                     rng.sample(chans + ["s"], rng.randrange(3))), False)
                 for c in chans]
        cfg = SimpleNamespace(theta=list(theta))
        runtime._kahn(cfg)
        want = reference_order(theta)
        assert [id(e) for e in cfg.theta] == [id(e) for e in want]


def test_order_and_steps_are_kept_by_deltas(monkeypatch):
    # a step whose new uses all point right leaves the order as it is, and
    # only the processes a step marked dirty recompute their step. The
    # wide program under fifo never re-sorts after its initial
    # configuration, and makes 211 calls to _enabled in 126 steps, where
    # recomputing every process at every step made 1840. On the corpus
    # the order does move, at each phase's spawn, and the sink moves what
    # waits on the new process: 325 moves in 21 runs, and 22 full passes,
    # one per initial configuration and one in handoff at seed 3
    from sill import runtime
    calls = dict.fromkeys(("_kahn", "_enabled", "_sink"), 0)
    for name in calls:
        def counted(*args, fn=getattr(runtime, name), name=name):
            r = fn(*args)
            calls[name] += r is not False  # a sink that defers moves nothing
            return r
        monkeypatch.setattr(runtime, name, counted)
    prog = check_program(parse_program(wide_source()))[1]
    steps = sum(1 for _ in drive(prog, lambda steps: steps[0]))
    assert steps == 126 and calls["_kahn"] == 1
    assert calls["_enabled"] < 5 * steps
    calls["_kahn"] = calls["_sink"] = runs = 0
    for stem in sorted(EXPECTED_STATUS):
        for seed in (1, 2, 3):
            run(by_stem(stem), seed=seed, max_steps=300, monitor=False)
            runs += 1
    assert calls["_kahn"] <= runs + 2 and calls["_sink"] > 2 * runs


def shared_view(cfg):
    """What the shared part's steps read, as objects compared by identity:
    each shared session and its template, each alias, and each process
    waiting to acquire and its template."""
    from sill.procast import Acquire, AcquireL
    view = [x for a in sorted(cfg.lam) for x in (cfg.lam[a], cfg.lam[a].tmpl)]
    for e in cfg.theta:
        if isinstance(e, Connect):
            view.append(e)
        elif isinstance(e.tmpl, (Acquire, AcquireL)):
            view += [e, e.tmpl]
    return view


def test_shared_tail_is_rebuilt_only_where_it_changed(monkeypatch):
    # the shared part's steps are kept across enumerations: the wide
    # program under fifo rebuilds them 31 times in its 127 enumerations,
    # where every enumeration rebuilt them before, and never after a step
    # that left the shared part, the aliases, the acquirers and the
    # forwards alone (96 of its 126 steps)
    from sill import runtime
    rebuilds, tail = [0], runtime._tail

    def counted(cfg):
        rebuilds[0] += 1
        return tail(cfg)

    monkeypatch.setattr(runtime, "_tail", counted)
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    enumerations = quiet = 0
    while steps := enumerate_steps(cfg):
        enumerations += 1
        view, n = shared_view(cfg), len(cfg.names)
        apply_step(cfg, steps[0])
        before = rebuilds[0]
        enumerate_steps(cfg)
        after = shared_view(cfg)
        if n == len(cfg.names) and len(view) == len(after) and all(
                x is y for x, y in zip(view, after)):
            assert rebuilds[0] == before
            quiet += 1
    enumerations += 1
    assert enumerations == 127 and rebuilds[0] < 40 and quiet > 80


def test_retopo_matches_reference_order_where_ill_formed(monkeypatch):
    # the check of the uses made since a re-sort, and the sink, defer to
    # the full pass where they cannot decide: at two providers of one
    # channel, a self-use, a cycle and a self-use taken away. Checked after
    # every step of each ill-typed corpus mutant, run as --no-static would
    # run it, and after random changes made through Config's own methods,
    # which reach those shapes where the mutants do not
    import random
    from sill import runtime
    from sill.procast import ProcSignature
    from sill.types import TypeDefEnv
    from test_typecheck import _mutants
    fast = runtime._retopo
    seen, sinks = [], []

    def checked_retopo(cfg):
        want = reference_order(cfg.theta)
        fast(cfg)
        assert [id(e) for e in cfg.theta] == [id(e) for e in want]
        seen.append(cfg.ordered)

    monkeypatch.setattr(runtime, "_retopo", checked_retopo)
    passes = []
    monkeypatch.setattr(runtime, "_kahn", lambda cfg, kahn=runtime._kahn:
                        passes.append(kahn(cfg)))
    monkeypatch.setattr(runtime, "_sink", lambda cfg, p, sink=runtime._sink:
                        sinks.append(sink(cfg, p)) or sinks[-1])
    runs = 0
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if not diags or mutant.system is None:
                continue
            for n, _ in enumerate(drive(elab, random.Random(0).choice)):
                if n == 59:
                    break
            runs += 1
    # 1788 sink moves on the mutants, checked as every re-sort is
    assert runs > 1500 and sinks.count(True) > 1000
    sinks.clear()
    rng, seen, skipped, recovered = random.Random(0), [], 0, 0
    for _ in range(300):
        cfg = runtime.Config(TypeDefEnv(), ProcSignature(()), [], {}, {})
        chans = [f"c{i}" for i in range(rng.randrange(2, 10))]
        for _ in range(30):
            for _ in range(rng.randrange(1, 4)):
                procs = [e for e in cfg.theta if isinstance(e, Proc)]
                op = rng.randrange(5) if cfg.theta else 0
                if op == 0:
                    cfg.add(Connect(rng.choice(chans), rng.choice(chans))
                            if rng.random() < 0.2 else
                            Proc(rng.choice(chans), None, None, dict.fromkeys(
                                rng.sample(chans, rng.randrange(3))), False))
                elif op == 1:
                    cfg.drop(rng.choice(cfg.theta))
                elif op == 2 and procs:
                    cfg.use(rng.choice(procs), rng.choice(chans), None)
                elif op == 3 and procs:
                    p = rng.choice(procs)
                    cfg.unuse(p, rng.choice(list(p.uses) or chans))
                elif op == 4:
                    old, new = rng.sample(chans, 2)
                    runtime._rename_all(cfg, old, new)
                    # old is gone; a new channel keeps the pool's size
                    chans.remove(old)
                    chans.append(f"c{len(cfg.names) + 10}")
            was, n = cfg.ordered, len(passes)
            runtime._retopo(cfg)
            skipped += len(passes) == n
            recovered += cfg.ordered and not was
    # of 9000 re-sorts, 5331 leave an ill-formed order, 2729 skip the
    # full pass and 787 find the list well formed again
    assert seen.count(False) > 2000 and skipped > 1000 and recovered > 300
    # and on the random changes 153 sink moves, and 481 walks that meet a
    # shape the sink defers to the full pass for
    assert sinks.count(True) > 100 and sinks.count(False) > 300


def _gamma_tracked(prog, choose, max_steps):
    """Step prog, checking after every step that Γ holds exactly the
    shared channels (those of the system block and of shared spawns,
    followed through renames), never an alias or a channel spawned as
    linear, and that every earlier entry is still there, at most lower.
    Returns the rules that fired."""
    from sill.synchro import cleq
    cfg = initial_config(prog)
    shared = {binder for binder, _, _ in prog.system.spawns}
    linear = {e.chan for e in cfg.theta if isinstance(e, Proc)}
    aliases, rules = set(), []
    assert set(cfg.gamma) == shared
    for _ in range(max_steps):
        steps = enumerate_steps(cfg)
        if not steps:
            break
        before = dict(cfg.gamma)
        rec = apply_step(cfg, choose(steps))
        rules.append(rec.rule)
        shared = {rec.renames.get(k, k) for k in shared}
        if rec.rule in ("spawn_ls", "spawn_ss"):
            shared.add(rec.fresh[0])
        elif rec.rule == "spawn_ll":
            linear.add(rec.fresh[0])
        aliases |= {e.chan for e in cfg.theta if isinstance(e, Connect)}
        assert set(cfg.gamma) == shared
        assert not (linear | aliases) & shared
        for k, c in before.items():
            nk = rec.renames.get(k, k)
            assert cleq(cfg.env, cfg.gamma[nk], c)
    return rules


def test_gamma_only_tightens():
    # on the first-step run of auction Γ follows spawns, releases and
    # forwards of shared channels while linear channels and aliases come
    # and go beside it; the other programs are driven at random
    import random
    rules = _gamma_tracked(by_stem("auction"), lambda steps: steps[0], 150)
    assert {"spawn_ll", "spawn_ss", "fwd_ss", "up_sl2", "down_sl2",
            "one"} <= set(rules)
    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    progs += [check_program(parse_program(src))[1]
              for src in (SPAWN_LS, CLOSE_SHARED, wide_source())]
    for prog in progs:
        for seed in (1, 2, 3):
            _gamma_tracked(prog, random.Random(seed).choice, 300)


def reference_gamma_monotone(cfg, before, rec):
    """Γ's monotonicity by a walk of the whole of Γ before the step (the
    copy before): every entry is still there, renamed as the step renamed
    it, at or below where it was."""
    from sill.synchro import cleq
    for k, c in before.items():
        nk = rec.renames.get(k, k)
        d = cfg.gamma.get(nk)
        if d is None:
            return f"shared context: constraint for {k} disappeared"
        if d is not c and not cleq(cfg.env, d, c):
            return (f"shared context: constraint for {nk} evolved upward "
                    f"instead of tightening")
    return None


def test_gamma_check_reports_lost_and_raised_entries():
    # the check reads the entries the step wrote: a shared forward notes
    # both names' entries, in Γ's order. Raising the entry noted for the
    # renamed name, then dropping the surviving name's entry, is reported
    # as the walk of the whole of Γ reports it
    from sill.runtime import _check_gamma_monotone
    cfg = initial_config(by_stem("auction"))
    for _ in range(150):
        before = dict(cfg.gamma)
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
        if set(rec.renames) & set(before):
            break
    # a shared forward: the forwarder's entry moves onto the surviving name
    assert rec.rule == "fwd_ss"
    # %g20 is renamed to a, which comes first in Γ
    assert rec.renames == {"%g20": "a"} and list(before) == ["a", "%g20"]
    assert list(rec.gamma) == ["a", "%g20"]
    assert all(rec.gamma[k] is before[k] for k in rec.gamma)
    assert _check_gamma_monotone(cfg, rec) is None
    # an entry that rises is reported
    rec.gamma["%g20"] = before["%g20"] = BOT
    v = _check_gamma_monotone(cfg, rec)
    assert v == reference_gamma_monotone(cfg, before, rec)
    assert v == ("shared context: constraint for a evolved upward instead "
                 "of tightening")
    # a shared channel losing its constraint is reported
    del cfg.gamma["a"]
    v = _check_gamma_monotone(cfg, rec)
    assert v == reference_gamma_monotone(cfg, before, rec)
    assert v == "shared context: constraint for a disappeared"


# an acquired shared session may end in `close`; its channel keeps the
# shared constraint, which aliases of it may still read
CLOSE_SHARED = (
    "type once = up_s 1\n"
    "proc Once : () |- s: once = l <- accept s; close l\n"
    "proc User : (sh s: once) |- x: 1 = l <- acquire s; wait l; close x\n"
    "proc Main : (sh s: once) |- x: 1 = u <- spawn User(s); wait u; "
    "close x\n"
    "system { s <- spawn Once(); main Main(s); }\n"
)


def test_closed_shared_session_keeps_its_constraint():
    diags, prog = check_program(parse_program(CLOSE_SHARED))
    assert diags == []
    r = run(prog, max_steps=50)
    assert r.status == RunStatus.ALL_POISED and r.violation is None
    assert r.config.gamma["s"] == SharedC(Ref("once"))


def test_monitor_accepts_initial_configurations():
    for stem in EXPECTED_STATUS:
        cfg = initial_config(by_stem(stem))
        assert monitor_check(cfg, None) is None


def test_monitor_flags_wrong_release_obligation():
    # drive the ignore system until an acquired session sits in the linear
    # part with its Γ entry, then corrupt that release obligation to an
    # unrelated shared type: the session is now headed for a release at the
    # wrong type, and the monitor must say so after the very step
    prog = by_stem("ignore")
    cfg = initial_config(prog)
    # the still-available shared p is checked against its constraint
    cfg.gamma["p"] = SharedC(Ref("other"))
    v = monitor_check(cfg, {"p"})
    assert v is not None and v.startswith("shared p: ")
    cfg = initial_config(prog)
    for _ in range(50):
        steps = enumerate_steps(cfg)
        assert steps
        rec = apply_step(cfg, steps[0])
        acquired = [e.chan for e in cfg.theta
                    if isinstance(e, Proc) and e.chan in cfg.gamma]
        if acquired:
            assert monitor_check(cfg, rec.touched) is None
            cfg.gamma[acquired[0]] = SharedC(Ref("other"))
            v = monitor_check(cfg, rec.touched)
            assert v == (f"linear {acquired[0]}: offer type no longer "
                         f"synchronizes with the client view under its "
                         f"release obligation")
            return
    pytest.fail("no acquire happened")


def test_monitor_flags_corrupted_offer():
    prog = by_stem("queue")
    cfg = initial_config(prog)
    steps = enumerate_steps(cfg)
    apply_step(cfg, steps[0])
    victim = next(p for p in cfg.theta if hasattr(p, "offer"))
    victim.offer = Tensor(One(), One())
    assert monitor_check(cfg, {victim.chan}) is not None


# the monitor's verdicts on configurations no step of a well-typed program
# makes, each pinned word for word and against the reference scan

def test_monitor_names_a_second_provider():
    for stem in sorted(EXPECTED_STATUS):
        cfg = initial_config(by_stem(stem))
        for a, p in sorted(cfg.lam.items()):
            cfg.add(Proc(a, p.tmpl, p.offer, {}, False, cfg.names, p.env,
                         p.base))
            want = f"well-formedness: multiple providers for ['{a}']"
            every = {e.chan for e in cfg.theta} | set(cfg.lam)
            assert monitor_check(cfg, None) == want
            assert monitor_check(cfg, {a}) == want
            assert reference_monitor(cfg, every) == want


def test_monitor_names_a_shared_session_with_no_constraint():
    shared = 0
    for stem in sorted(EXPECTED_STATUS):
        for a in sorted(initial_config(by_stem(stem)).lam):
            cfg = initial_config(by_stem(stem))
            del cfg.gamma[a]
            want = f"shared {a}: no shared constraint recorded"
            assert monitor_check(cfg, {a}) == want
            assert reference_monitor(cfg, {a}) == want
            shared += 1
    assert shared == 6


def test_monitor_names_an_alias_whose_target_lost_its_constraint():
    import random
    aliased = []
    for stem in sorted(EXPECTED_STATUS):
        cfg, choose, conn = initial_config(by_stem(stem)), \
            random.Random(0).choice, None
        while steps := enumerate_steps(cfg):
            rec = apply_step(cfg, choose(steps))
            conn = next((e for e in cfg.theta if isinstance(e, Connect)
                         and cfg.user_of(e.chan) is not None), None)
            if conn is not None:
                break
        if conn is None:
            continue
        cfg.gamma[conn.target] = BOT
        want = (f"alias {conn.chan} -> {conn.target}: shared constraint "
                f"does not refine the client view")
        every = {e.chan for e in cfg.theta} | set(cfg.lam)
        for touched in ({conn.chan}, rec.touched):
            assert monitor_check(cfg, touched) == want
            assert reference_monitor(cfg, touched) == want
        assert monitor_check(cfg, None) == want
        assert reference_monitor(cfg, every) == want
        aliased.append(stem)
    assert aliased == ["auction", "dd", "handoff"]


def test_monitor_names_an_offer_that_is_not_below_its_view():
    # the offer/view check's subtyping premise fails, so is_ssync raises
    # its precondition error and the monitor words it as any other refusal
    import random
    for stem in ("queue", "auction"):
        cfg, choose = initial_config(by_stem(stem)), random.Random(0).choice
        e = None
        while e is None and (steps := enumerate_steps(cfg)):
            apply_step(cfg, choose(steps))
            e = next((e for e in cfg.theta if isinstance(e, Proc)
                      and cfg.user_of(e.chan) is not None), None)
        e.offer = Tensor(One(), One())
        want = (f"linear {e.chan}: offer type no longer synchronizes with "
                f"the client view under its release obligation")
        assert monitor_check(cfg, {e.chan}) == want
        assert reference_monitor(cfg, {e.chan}) == want


def test_run_reports_violation_with_monitor_on():
    # statically broken program: the provider releases at a type unrelated
    # to its clients' view; skipping the static gate, the monitor rejects
    # the very first configuration
    src = (
        "type s = up_s &{a: down_s t}\n"
        "type t = up_s &{b: down_s t}\n"
        "proc Bad : () |- x: s = l <- accept x; case l { a => "
        "d <- detach l; n <- spawn Bad(); fwd d n }\n"
        "proc C : (sh p: s) |- x: 1 = l <- acquire p; l.a; "
        "q <- release l; close x\n"
        "system { p <- spawn Bad(); main C(p); }\n"
    )
    prog = parse_program(src)
    diags, elab = check_program(prog)
    assert diags  # the static checker already objects
    r = run(elab, seed=0)
    assert r.status == RunStatus.MONITOR_VIOLATION
    assert r.violation


def test_monitor_can_be_disabled():
    r = run(by_stem("basics"), monitor=False)
    assert r.status == RunStatus.ALL_POISED


# an ill-typed P sends the acquired channel q, which it does not hold, to
# its client R, so Main and R both use q; only the first of them in the
# order of the linear part may synchronize with q's provider. Run with
# --no-static --no-monitor; Main waits for R before (wait_first) or after
# (wait_last) its own exchange on q
DUP_USER = (
    "type s = up_s &{a: down_s s}\n"
    "proc Srv : () |- k: s = l <- accept k; case l { a => "
    "d <- detach l; n <- spawn Srv(); fwd d n }\n"
    "proc P : () |- x: (&{a: down_s s}) * 1 = send x q; close x\n"
    "proc R : () |- y: 1 = p <- spawn P(); z <- recv p; wait p; z.a; "
    "t <- release z; close y\n"
    "proc Main : (sh q: s) |- m: 1 = l <- acquire q; r <- spawn R(); "
    "BODY close m\n"
    "system { q <- spawn Srv(); main Main(q); }\n"
)
DUP_BODIES = {"wait_first": "wait r; l.a; t <- release l;",
              "wait_last": "l.a; t <- release l; wait r;"}
# the same digest as PINNED_TRACES, ended by "progress" for a halt without
# progress; computed once and never edited
DUP_TRACES = {
    ("wait_first", "fifo"): "b8708bc349cfc473",  # progress after 5
    ("wait_first", "seed3"): "b8708bc349cfc473",  # progress after 5
    ("wait_last", "fifo"): "889b5fdc545f2d95",  # progress after 9
    ("wait_last", "seed0"): "6c027d87e7fc8e67",  # progress after 9
    ("wait_last", "seed3"): "bc2f9e60bcff2256",  # progress after 9
}


def dup_user_prog(name):
    diags, prog = check_program(parse_program(
        DUP_USER.replace("BODY", DUP_BODIES[name])))
    assert diags == ["P: ⊗R: unknown payload channel q"]
    return prog


def test_duplicate_user_trace_pinned():
    from sill.runtime import ProgressError
    got = {}
    for name, label in DUP_TRACES:
        kw = {"policy": "fifo"} if label == "fifo" \
            else {"seed": int(label[4:])}
        buf = io.StringIO()
        try:
            r = run(dup_user_prog(name), max_steps=100, monitor=False,
                    trace=buf, **kw)
            end = f"{r.status.value} {r.steps}"
        except ProgressError:
            end = "progress"
        h = hashlib.sha256(buf.getvalue().encode())
        h.update(end.encode())
        got[name, label] = h.hexdigest()[:16]
    assert got == DUP_TRACES


# --------------------------------------------------------------------------- #
# The configuration's indexes against one-pass references
# --------------------------------------------------------------------------- #

def head(p):
    """The first node of p's forced term, from its template node alone: its
    free names read through p.name and its binder, if any, named
    %g{p.base}, the first fresh name in preorder. Its continuations stay
    the template's, which have the forced term's labels."""
    t, vals = p.tmpl, []
    for f, role in procast.FIELDS[type(t)]:
        v = getattr(t, f)
        if role is procast.NAME:
            v = p.name(v)
        elif role is procast.NAMES:
            v = tuple(map(p.name, v))
        elif role is procast.BINDER:
            v = f"%g{p.base}"
        vals.append(v)
    return type(t)(*vals)


def reference_steps(cfg):
    """The enabled steps by one pass over the configuration, the first
    entry in the linear part winning where two offer or use a channel,
    read off each process's head (see head)."""
    from sill.procast import Acquire, AcquireL, Accept, FwdLL, FwdLS, \
        FwdSS, Spawn
    from sill.runtime import Step, _PAIRS, _spawnable, _subject
    offered, client, acquirers = {}, {}, []
    for e in cfg.theta:
        offered.setdefault(e.chan, e)
        if isinstance(e, Proc):
            for c in e.uses:
                client.setdefault(c, e)
            if isinstance(t := head(e), (Acquire, AcquireL)):
                acquirers.append((e, t))
    steps = []
    for e in cfg.theta:
        if isinstance(e, Connect):
            continue
        a = e.chan
        c, t = _subject(e)
        if c is None:
            if isinstance(t, FwdLL):
                steps.append(Step("fwd_ll", a))
            elif isinstance(t, FwdLS):
                steps.append(Step("fwd_ls", a))
            elif isinstance(t, Spawn) and _spawnable(cfg, t):
                d = cfg.sig.lookup(t.proc)
                steps.append(Step("spawn_ls" if d.offer_shared
                                  else "spawn_ll", a))
            continue
        if c != a:
            continue
        u = client.get(a)
        uc, ut = _subject(u) if u is not None else (None, None)
        rule = _PAIRS.get((type(t), type(ut))) if uc == a else None
        if rule is None or rule == "plus" and t.label not in ut.labels() \
                or rule == "with" and ut.label not in t.labels():
            continue
        steps.append(Step(rule, a, u.chan))
    for a in sorted(cfg.lam):
        t = head(cfg.lam[a])
        if isinstance(t, FwdSS):
            steps.append(Step("fwd_ss", a))
        elif isinstance(t, Spawn) and _spawnable(cfg, t):
            steps.append(Step("spawn_ss", a))
        elif isinstance(t, Accept) and t.chan == a:
            for e, w in acquirers:
                if isinstance(w, Acquire) and w.chan == a:
                    steps.append(Step("up_sl", a, e.chan))
                elif isinstance(w, AcquireL):
                    tgt = offered.get(w.chan)
                    if isinstance(tgt, Connect) and tgt.target == a:
                        steps.append(Step("up_sl2", a, e.chan))
    return steps


def reference_relevant(e, touched):
    if isinstance(e, Connect):
        return e.chan in touched or e.target in touched
    return e.chan in touched or bool(set(e.uses) & touched)


def reference_monitor(cfg, touched):
    """The monitor that scans every entry for the touched ones: duplicate
    providers over the whole configuration, then each relevant linear
    entry in order, then each touched shared session by name."""
    from sill.runtime import _Ck
    from sill.subtype import is_subtype
    from sill.synchro import is_ssync, SsyncPreconditionError
    chans = [e.chan for e in cfg.theta] + list(cfg.lam)
    if len(chans) != len(set(chans)):
        dup = sorted({c for c in chans if chans.count(c) > 1})
        return f"well-formedness: multiple providers for {dup}"
    ck, env = _Ck(cfg.env, cfg.sig), cfg.env

    def user_of(chan):
        return next((e for e in cfg.theta
                     if isinstance(e, Proc) and chan in e.uses), None)

    for e in cfg.theta:
        if not reference_relevant(e, touched):
            continue
        if isinstance(e, Connect):
            u = user_of(e.chan)
            con = cfg.gamma.get(e.target)
            if u is not None and not (isinstance(con, SharedC) and
                                      is_subtype(env, con.ty,
                                                 u.uses[e.chan])):
                return (f"alias {e.chan} -> {e.target}: shared constraint "
                        f"does not refine the client view")
            continue
        u = user_of(e.chan)
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
        if ck.linear(cfg.gamma, e.uses, {}, e.term(), e.chan,
                     e.offer) is None:
            return f"process at {e.chan} no longer typechecks: " \
                   + "; ".join(ck.diags)
    for a in sorted(set(cfg.lam) & touched):
        p, con = cfg.lam[a], cfg.gamma.get(a)
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
        if ck.shared(cfg.gamma, {}, p.term(), a, p.offer) is None:
            return f"process at {a} no longer typechecks: " \
                   + "; ".join(ck.diags)
    return None


def reference_indexes(cfg):
    """The linear part's maps by one pass, as sets of entry ids."""
    offered, client, aliases = {}, {}, {}
    for e in cfg.theta:
        offered.setdefault(e.chan, set()).add(id(e))
        if isinstance(e, Connect):
            aliases.setdefault(e.target, set()).add(id(e))
        else:
            for c in e.uses:
                client.setdefault(c, set()).add(id(e))
    return offered, client, aliases


def audit(cfg):
    """What the runtime keeps, recomputed in one pass over theta and lam
    just after an enumeration: ranks rise along theta; where ordered is
    set, every use and every alias target is offered to the entry's right
    or outside the linear part; each live linear process's kept marker is
    its template where it waits to acquire, else its step, if any, from
    the head of its forced term and its client's (see head); stepping
    and steps hold the processes with a step and the steps, acquiring
    those waiting, in theta's order; a shared process is kept nowhere;
    the tail is the shared part's steps of the one-pass reference, and
    each direct acquire step in it is its acquirer's slot; the three
    indexes are reference_indexes; and no name a forward renamed is
    offered, used, aliased, shared or in Γ."""
    from sill.procast import Acquire, AcquireL, FwdLL, FwdLS, Spawn
    from sill.runtime import Step, _PAIRS, _spawnable, SUBJECT

    def subject(t):
        f = SUBJECT.get(type(t))
        return None if f is None else getattr(t, f)

    assert not cfg.dirty and not cfg.stale
    assert tuple({k: {id(e) for e in v} for k, v in m.items()}
                 for m in (cfg.offered, cfg.client, cfg.aliases)) \
        == reference_indexes(cfg)
    shared_uses = {c for p in cfg.lam.values() for c in p.uses}
    assert not cfg.names.keys() & (
        cfg.offered.keys() | cfg.client.keys() | cfg.aliases.keys()
        | cfg.lam.keys() | cfg.gamma.keys() | shared_uses)
    users, stepping, steps, acquiring, rank = {}, [], [], [], -1
    for e in reversed(cfg.theta):  # the first user in theta wins
        if isinstance(e, Proc):
            users.update(dict.fromkeys(e.uses, e))
    for e in cfg.theta:
        assert e.rank > rank
        rank = e.rank
        if cfg.ordered:
            for c in (e.target,) if isinstance(e, Connect) else e.uses:
                es = cfg.offered.get(c)
                assert es is None or len(es) == 1 and es[0].rank > rank
        if isinstance(e, Connect):
            continue
        a, t = e.chan, head(e)
        if isinstance(t, (Acquire, AcquireL)):
            assert e.kept is e.tmpl
            acquiring.append(e)
            continue
        step, u = None, users.get(a)
        if subject(t) is None:
            if isinstance(t, (FwdLL, FwdLS)):
                step = Step("fwd_ll" if isinstance(t, FwdLL) else "fwd_ls", a)
            elif isinstance(t, Spawn) and _spawnable(cfg, t):
                step = Step("spawn_ls" if cfg.sig.lookup(t.proc).offer_shared
                            else "spawn_ll", a)
        elif subject(t) == a and u is not None and subject(
                ut := head(u)) == a:
            rule = _PAIRS.get((type(t), type(ut)))
            if rule is not None and not (
                    rule == "plus" and t.label not in ut.labels()
                    or rule == "with" and ut.label not in t.labels()):
                step = Step(rule, a, u.chan)
        assert e.kept == step
        if step is not None:
            stepping.append(e)
            steps.append(step)
    assert [id(e) for e in cfg.stepping] == [id(e) for e in stepping]
    assert cfg.steps == steps
    assert [id(e) for e in cfg.acquiring] == [id(e) for e in acquiring]
    assert all(p.kept is None for p in cfg.lam.values())
    if cfg.tail is not None:
        assert cfg.tail == reference_steps(cfg)[len(steps):]
        for s in cfg.tail:
            if s.rule == "up_sl":
                assert cfg.provider(s.user).up is s


def differential(prog, choose, max_steps, monitor, well_typed):
    """Step prog, checking after every step that the maintained indexes,
    the enabled steps, what enumeration keeps (see audit), the entries the
    touched monitor rechecks and its verdict agree with the one-pass
    references; a monitored run ends at its first violation, and any run
    at a step that halts without progress. Returns the number of steps
    taken."""
    from sill.runtime import _check_gamma_monotone, _relevant
    cfg = initial_config(prog)
    if monitor and monitor_check(cfg, None) is not None:
        return 0
    for n in range(max_steps):
        assert tuple({k: {id(e) for e in v} for k, v in m.items()}
                     for m in (cfg.offered, cfg.client, cfg.aliases)) \
            == reference_indexes(cfg)
        steps = enumerate_steps(cfg)
        assert steps == reference_steps(cfg)
        audit(cfg)
        if not steps:
            return n
        before = dict(cfg.gamma)
        try:
            rec = apply_step(cfg, choose(steps))
        except ProgressError:
            return n
        # every entry of Γ the step changed is noted, in Γ's order; the
        # rest are the objects they were
        assert all(k in rec.gamma or cfg.gamma.get(k) is c
                   for k, c in before.items())
        assert [k for k in rec.gamma if k in before] == \
            [k for k in before if k in rec.gamma]
        gamma_fault = _check_gamma_monotone(cfg, rec)
        assert gamma_fault == reference_gamma_monotone(cfg, before, rec)
        linear, shared, dup = _relevant(cfg, rec.touched)
        assert sorted(linear) == sorted(
            id(e) for e in cfg.theta if e.chan in rec.touched
            or isinstance(e, Connect) and e.target in rec.touched)
        assert sorted(shared) == sorted(cfg.lam.keys() & rec.touched)
        chans = [e.chan for e in cfg.theta] + list(cfg.lam)
        assert sorted(dup) == sorted(
            c for c in rec.touched if chans.count(c) > 1)
        if not monitor:
            continue
        want = reference_monitor(cfg, rec.touched)
        assert monitor_check(cfg, rec.touched) == want
        if well_typed:
            assert want is None and monitor_check(cfg, None) is None
        if want is not None or gamma_fault:
            return n + 1
    return max_steps


def _choosers():
    import random
    yield "fifo", lambda steps: steps[0]
    for seed in (0, 5, 9):
        yield f"seed{seed}", random.Random(seed).choice


def test_indexes_steps_and_monitor_match_references():
    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    progs += [check_program(parse_program(src))[1]
              for src in (SPAWN_LS, CLOSE_SHARED, wide_source())]
    for prog in progs:
        for _, choose in _choosers():
            for monitor in (True, False):
                differential(prog, choose, 300, monitor, True)


def test_steps_follow_client_changes_made_by_hand():
    # each Config method that changes a channel's client marks the
    # channel's providers dirty itself, whatever calls it: at an exchange
    # step, take its client off the channel, then give the channel a new
    # client with the old one's template, and the enabled steps match the
    # one-pass reference after each change
    import random
    from sill.runtime import Step, _exchange, _HANDLERS
    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    progs.append(check_program(parse_program(wide_source()))[1])
    checked = 0
    for prog in progs:
        for seed in range(12):
            rng = random.Random(seed)
            cfg, k = initial_config(prog), rng.randrange(40)
            while steps := enumerate_steps(cfg):
                pairs = [s for s in steps if _HANDLERS[s.rule] is _exchange]
                if pairs and k <= 0:
                    break
                apply_step(cfg, rng.choice(steps))
                k -= 1
            else:
                continue
            s = rng.choice(pairs)
            u = cfg.provider(s.user)
            view = u.uses[s.provider]
            cfg.unuse(u, s.provider)
            assert s not in enumerate_steps(cfg)
            assert enumerate_steps(cfg) == reference_steps(cfg)
            twin = Proc(cfg.fresh(), u.tmpl, u.offer, {s.provider: view},
                        False, cfg.names, u.env, u.base)
            cfg.add(twin)
            assert Step(s.rule, s.provider, twin.chan) in enumerate_steps(cfg)
            assert enumerate_steps(cfg) == reference_steps(cfg)
            checked += 1
    assert checked > 50  # 59: some runs end before an exchange


# Two clients of one channel x, which only an ill-typed send makes. In
# SECOND_CLIENT, S sends x to R and then, no longer holding it, to R2,
# which ranks below R: R2 becomes x's first client, so Q, which paired
# with R's wait, pairs with nobody. In FIRST_CLIENT_LEAVES, C sends x to
# the session it holds and then to R, which ranks above it; the session
# halts the run as it detaches still holding x, and where it is dropped
# by hand R becomes x's first client
SECOND_CLIENT = (
    "type cell = !int. 1\n"
    "proc Q : () |- x: 1 = close x\n"
    "proc R : () |- r: 1 -o 1 = y <- recv r; wait y; close r\n"
    "proc R2 : () |- r2: 1 -o cell = y <- recv r2; put r2 5; wait y; "
    "close r2\n"
    "proc S : (r: 1 -o 1, r2: 1 -o cell, x: 1) |- s: 1 = send r x; "
    "send r2 x; wait r; v <- get r2; wait r2; close s\n"
    "proc M : () |- m: 1 = x <- spawn Q(); r2 <- spawn R2(); "
    "r <- spawn R(); s <- spawn S(r, r2, x); wait s; close m\n"
    "system { main M(); }\n"
)
FIRST_CLIENT_LEAVES = (
    "type srv = up_s (1 -o down_s srv)\n"
    "proc Srv : () |- s: srv = l <- accept s; y <- recv l; "
    "d <- detach l; n <- spawn Srv(); fwd d n\n"
    "proc Q : () |- x: 1 = close x\n"
    "proc R : () |- r: 1 -o 1 = y <- recv r; wait y; close r\n"
    "proc C : (sh s: srv, x: 1) |- c: (1 -o 1) -o 1 = l <- acquire s; "
    "rr <- recv c; send l x; send rr x; l2 <- release l; wait rr; close c\n"
    "proc M : (sh s: srv) |- m: 1 = x <- spawn Q(); c <- spawn C(s, x); "
    "r <- spawn R(); send c r; wait c; close m\n"
    "system { s <- spawn Srv(); main M(s); }\n"
)


def test_steps_follow_a_channels_first_client_as_a_second_comes_and_goes():
    # a provider's step reads the first of its channel's clients, so a use
    # that makes a lower-ranked client (Config.use) and a drop of the first
    # client (Config.drop) each mark the channel's providers; neither the
    # resumes nor a rename of the step marks Q here
    from sill.runtime import Step

    def sends_first(steps):
        s = next((s for s in steps if s.rule in ("up_sl", "lolli")),
                 next((s for s in steps if s.rule == "spawn_ll"), steps[0]))
        rules.append(s.rule)
        return s

    for src, diag, n, want in (
            (SECOND_CLIENT, ["S: ⊸L: unknown payload channel x"], 6,
             ["spawn_ll"] * 4 + ["lolli"] * 2),
            (FIRST_CLIENT_LEAVES,
             ["Srv: ↓SL R: unused linear channels ['y']",
              "C: ⊸L: unknown payload channel x"], 7,
             ["spawn_ll"] * 2 + ["up_sl", "spawn_ll"] + ["lolli"] * 3
             + ["down_sl"])):
        diags, prog = check_program(parse_program(src))
        assert diags == diag
        rules = []
        assert differential(prog, sends_first, 100, False, False) == n
        assert rules == want
    # the session, x's first client, is dropped by hand where it would
    # detach: R becomes the first, and Q's close pairs with R's wait
    cfg = initial_config(prog)
    for _ in range(n):
        apply_step(cfg, sends_first(enumerate_steps(cfg)))
    (x, clients), = ((c, es) for c, es in cfg.client.items() if len(es) > 1)
    session, r = sorted(clients, key=lambda e: e.rank)
    steps = enumerate_steps(cfg)
    assert Step("one", x, r.chan) not in steps
    assert "down_sl" in [s.rule for s in steps]
    cfg.drop(session)
    assert enumerate_steps(cfg) == reference_steps(cfg)
    assert Step("one", x, r.chan) in enumerate_steps(cfg)


# Fw forwards z to the shared b. Under these choosers the forward comes
# while M holds b acquired, so renaming b to z moves M's use of b and its
# entry in the client index; fifo and seeds 0, 5 and 9 never meet it
HELD_FWD = (
    "type srv = up_s down_s srv\n"
    "proc Srv : () |- s: srv = l <- accept s; s2 <- detach l; "
    "n <- spawn Srv(); fwd s2 n\n"
    "proc Fw : (sh b: srv) |- z: srv = fwd z b\n"
    "proc M : (sh b: srv, sh z: srv) |- x: 1 = l <- acquire b; "
    "b2 <- release l; close x\n"
    "system { b <- spawn Srv(); z <- spawn Fw(b); main M(b, z); }\n"
)


def test_forward_moves_the_client_of_a_held_channel():
    import random
    diags, prog = check_program(parse_program(HELD_FWD))
    assert diags == []
    for seed in (4, 6, 8, 10):
        for monitor in (True, False):
            assert differential(prog, random.Random(seed).choice, 300,
                                monitor, True) == 5
        cfg, choose, moved = initial_config(prog), \
            random.Random(seed).choice, 0
        while steps := enumerate_steps(cfg):
            held = {c: list(es) for c, es in cfg.client.items()}
            rec = apply_step(cfg, choose(steps))
            for old, new in rec.renames.items():
                for e in held.get(old, ()):
                    assert old not in e.uses and new in e.uses
                    assert old not in cfg.client and e in cfg.client[new]
                    moved += 1
        assert moved == 1 and classify(cfg) == RunStatus.ALL_POISED


# as HELD_FWD, but the session M holds spawns before it detaches: where Fw
# forwards z to b while M holds b, b's provider is at its spawn, and its
# kept step names the channel the forward renames
HELD_SPAWN = HELD_FWD.replace(
    "l <- accept s; s2", "l <- accept s; k <- spawn Unit(); wait k; s2"
) + "proc Unit : () |- u: 1 = close u\n"


def test_forward_marks_the_held_session_it_renames():
    # the forward renames the channel of a process at a spawn, whose kept
    # step names that channel: the step is recomputed, as the differential
    # checks after every step
    import random
    from sill.procast import Spawn
    diags, prog = check_program(parse_program(HELD_SPAWN))
    assert diags == []
    renamed = 0
    for seed in range(40):
        for monitor in (True, False):
            differential(prog, random.Random(seed).choice, 300, monitor, True)
        cfg, rng = initial_config(prog), random.Random(seed)
        while steps := enumerate_steps(cfg):
            step = rng.choice(steps)
            if step.rule == "fwd_ss":
                p = cfg.lam[step.provider]
                held = cfg.provider(p.name(p.tmpl.used))
                renamed += not held.shared and isinstance(held.tmpl, Spawn)
            apply_step(cfg, step)
    assert renamed > 5


# one session with clients waiting to acquire it, directly and through
# linear aliases, while it accepts, forwards itself (fwd_ss) to the
# instance it respawns (spawn_ss) and takes the next acquire. Loop at v
# waits on an alias that AsLinear makes only when it forwards (fwd_ls),
# and M spawns the session f, whose first step is a spawn of its own
BUSY_SHARED = (
    "type srv = up_s down_s srv\n"
    "type srv_ll = up_l down_l srv_ll\n"
    "proc Srv : () |- s: srv = l <- accept s; s2 <- detach l; "
    "n <- spawn Srv(); fwd s2 n\n"
    "proc Fresh : () |- s: srv = n <- spawn Srv(); fwd s n\n"
    "proc AsLinear : (sh b: srv) |- v: srv_ll = fwd v b\n"
    "proc Direct : (sh b: srv) |- x: 1 = l <- acquire b; "
    "b2 <- release l; close x\n"
    "proc Loop : (q: srv_ll) |- x: 1 = l <- acquire q; r <- release l; "
    "k <- spawn Loop(r); fwd x k\n"
    "proc M : (sh b: srv) |- x: 1 = v <- spawn AsLinear(b); "
    "a0 <- spawn Loop(v); d0 <- spawn Direct(b); d1 <- spawn Direct(b); "
    "f <- spawn Fresh(); d2 <- spawn Direct(f); a1 <- spawn Loop(b); "
    "wait d0; wait d1; wait d2; wait a1; fwd x a0\n"
    "system { b <- spawn Srv(); main M(b); }\n"
)


def test_kept_steps_match_reference_where_the_shared_part_is_busy():
    # the kept steps and the cached shared tail against the one-pass
    # reference after every step, where acquirers wait on a session that
    # forwards and respawns itself; and a list enumerate_steps returned
    # stays as it was through every later step and enumeration
    from sill.procast import Acquire, AcquireL
    progs = {name: check_program(parse_program(src))
             for name, src in (("busy", BUSY_SHARED), ("held", HELD_FWD),
                               ("spawn_ls", SPAWN_LS))}
    assert all(diags == [] for diags, _ in progs.values())
    rules, busy = set(), 0
    for _, prog in progs.values():
        for monitor in (True, False):
            for _, choose in _choosers():
                held = []

                def keep(steps, choose=choose):
                    held.append((steps, list(steps)))
                    step = choose(steps)
                    rules.add(step.rule)
                    return step

                differential(prog, keep, 300, monitor, True)
                assert all(steps == copy for steps, copy in held)
    # several acquirers wait while the session forwards or respawns
    cfg = initial_config(progs["busy"][1])
    for _ in range(300):
        steps = enumerate_steps(cfg)
        waiting = sum(isinstance(e.term(), (Acquire, AcquireL))
                      for e in cfg.theta if isinstance(e, Proc))
        busy += waiting >= 2 and any(s.rule in ("fwd_ss", "spawn_ss")
                                     for s in steps)
        apply_step(cfg, steps[0])
    assert busy > 50
    assert {"fwd_ss", "fwd_ls", "spawn_ss", "spawn_ls", "up_sl",
            "up_sl2"} <= rules


# Two waits to acquire b, then c; Loop waits on v, which AsLinear offers
# until it forwards v to b
WAITERS = BUSY_SHARED.split("proc Direct")[0] + (
    "proc Loop : (q: srv_ll) |- x: 1 = l <- acquire q; r <- release l; "
    "k <- spawn Loop(r); fwd x k\n"
    "proc Two : (sh b: srv, sh c: srv) |- x: 1 = l <- acquire b; "
    "m <- acquire c; b2 <- release l; c2 <- release m; close x\n"
    "proc M : (sh b: srv, sh c: srv) |- x: 1 = v <- spawn AsLinear(b); "
    "a <- spawn Loop(v); t <- spawn Two(b, c); wait t; wait a; close x\n"
    "system { b <- spawn Srv(); c <- spawn Srv(); main M(b, c); }\n"
)


def test_shared_steps_follow_changes_made_by_hand():
    # the shared part's steps read each acquirer's template and, for an
    # acquire through an alias, the provider of the alias channel: the
    # first entry offering it. Each change below is made by hand, without
    # a step, and the enabled steps match the one-pass reference after it
    from sill.runtime import Step, _kahn, _resume
    diags, prog = check_program(parse_program(WAITERS))
    assert diags == []
    cfg = initial_config(prog)
    for _ in range(3):  # M spawns AsLinear, Loop and Two
        apply_step(cfg, enumerate_steps(cfg)[0])
    loop, two = (cfg.provider(c) for c in cfg.theta[0].uses)
    (v,) = loop.uses
    as_linear = cfg.provider(v)

    def steps():
        got = enumerate_steps(cfg)
        assert got == reference_steps(cfg)
        return got

    assert Step("up_sl", "b", two.chan) in steps()
    # an alias of b becomes v's second provider: AsLinear still provides v
    cfg.add(Connect(v, "b"))
    assert Step("up_sl2", "b", loop.chan) not in steps()
    # AsLinear leaves: the alias provides v, so Loop can acquire b
    # through it
    cfg.drop(as_linear)
    assert Step("up_sl2", "b", loop.chan) in steps()
    # AsLinear comes back as v's second provider, kept with its step; it
    # leaves again just before a re-sort, and comes back once more
    cfg.add(as_linear)
    assert Step("fwd_ls", v) in steps()
    cfg.drop(as_linear)
    _kahn(cfg)
    assert Step("fwd_ls", v) not in steps()
    cfg.add(as_linear)
    assert Step("fwd_ls", v) in steps()
    # Two moves on to acquire c, then past its acquires
    _resume(cfg, two, cfg.fresh())
    assert Step("up_sl", "c", two.chan) in steps()
    _resume(cfg, two, cfg.fresh())
    assert not any(s.user == two.chan for s in steps())


def test_a_resort_rebuilds_the_shared_steps():
    # a re-sort places every process anew and drops the shared part's
    # steps: the last process waiting to acquire, dropped by hand just
    # before a re-sort, leaves no acquire step behind
    from sill.runtime import Step, _kahn
    diags, prog = check_program(parse_program(WAITERS))
    assert diags == []
    cfg = initial_config(prog)
    for _ in range(3):  # M spawns AsLinear, Loop and Two
        apply_step(cfg, enumerate_steps(cfg)[0])
    loop, two = (cfg.provider(c) for c in cfg.theta[0].uses)
    cfg.drop(loop)
    assert enumerate_steps(cfg) == reference_steps(cfg)
    assert cfg.acquiring == [two] and Step("up_sl", "b", two.chan) in cfg.tail
    cfg.drop(two)
    _kahn(cfg)
    assert enumerate_steps(cfg) == reference_steps(cfg)
    assert cfg.acquiring == [] and cfg.tail == []


def test_the_sink_moves_an_acquirer_and_its_alias(monkeypatch):
    # a new entry that uses the channel of a process waiting to acquire
    # through an alias: the sink moves both after it, with no full pass.
    # The acquirer leaves its place in the acquiring list for the end, so
    # the shared part's acquire steps change order and the tail is rebuilt
    from sill import runtime
    from sill.runtime import Step
    diags, prog = check_program(parse_program(WAITERS))
    assert diags == []
    cfg = initial_config(prog)
    for _ in range(3):  # M spawns AsLinear, Loop and Two
        apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    loop, two = (cfg.provider(c) for c in main.uses)
    (v,) = loop.uses
    alias = Connect(v, "b")
    cfg.add(alias)
    cfg.drop(cfg.provider(v))  # AsLinear: the alias now provides v
    runtime._retopo(cfg)
    both = [Step("up_sl2", "b", loop.chan), Step("up_sl", "b", two.chan)]
    assert enumerate_steps(cfg) == reference_steps(cfg)
    assert [s for s in cfg.tail if s in both] == both
    passes = []
    monkeypatch.setattr(runtime, "_kahn", passes.append)
    cfg.unuse(main, loop.chan)
    n = Proc("n", Close("n"), One(), {}, False)
    cfg.add(n)
    cfg.use(n, loop.chan, One())
    runtime._retopo(cfg)
    assert passes == [] and cfg.theta[-3:] == [n, loop, alias]
    assert cfg.theta == reference_order(cfg.theta)
    assert enumerate_steps(cfg) == reference_steps(cfg)
    assert [s for s in cfg.tail if s in both] == both[::-1]


def test_a_session_that_detaches_while_it_still_uses_a_channel_halts():
    # FIRST_CLIENT_LEAVES without C's second send: the session alone holds
    # x as it detaches, and dropping it would leave Q, x's provider, with
    # no client. Unmonitored, the step halts without progress before it
    # changes anything; the monitor reports the session's record first
    src = FIRST_CLIENT_LEAVES.replace("send rr x; ", "")
    diags, prog = check_program(parse_program(src))
    assert diags == ["Srv: ↓SL R: unused linear channels ['y']",
                     "C: 1L: rr is not terminated"]
    cfg = initial_config(prog)
    while not (down := [s for s in enumerate_steps(cfg)
                        if s.rule == "down_sl"]):
        apply_step(cfg, enumerate_steps(cfg)[0])
    (step,) = down
    session = cfg.provider(step.provider)
    (x,) = session.uses
    before = (list(cfg.theta), dict(cfg.lam), {c: list(es) for c, es in
                                               cfg.client.items()})
    with pytest.raises(ProgressError, match=f"^process at {step.provider} "
                       f"detaches while it still uses {x}$"):
        apply_step(cfg, step)
    assert (cfg.theta, cfg.lam, cfg.client) == before
    assert cfg.user_of(x) is session
    for seed in range(3):
        with pytest.raises(ProgressError, match="detaches while"):
            run(prog, seed=seed, monitor=False)
        r = run(prog, seed=seed)
        assert r.status == RunStatus.MONITOR_VIOLATION and r.steps == 0


def test_an_untraced_run_takes_no_snapshots(monkeypatch):
    # only a trace reads a step's consumed and produced snapshots, so a
    # run with no trace takes none, monitored or not; a traced run takes
    # them, and its bytes are pinned above
    from sill import runtime

    def refused(*args):
        raise AssertionError("snapshot taken for no trace")

    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    monkeypatch.setattr(runtime, "_record", refused)
    steps = 0
    for prog in progs:
        for seed in range(3):
            for monitor in (True, False):
                steps += run(prog, seed=seed, max_steps=300,
                             monitor=monitor).steps
    assert steps > 4000
    with pytest.raises(AssertionError, match="snapshot"):
        run(progs[0], seed=0, trace=io.StringIO())


def test_indexes_steps_and_monitor_match_references_on_mutants():
    # every ill-typed mutant of the corpus bodies, run as --no-static would
    # run it, monitored and not, for as many steps as its pinned outcome
    import random
    from test_typecheck import _mutants
    runs = 0
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if not diags or mutant.system is None:
                continue
            for monitor in (True, False):
                differential(elab, random.Random(0).choice, 60, monitor,
                             False)
                runs += 1
    assert runs > 3000


def contention_prog(k):
    """The bench's wide program with k clients of the corpus queue, each a
    Writer or a Reader, and no batches: one shared service and k processes
    waiting to acquire it."""
    import random
    import sys
    bench = str(CORPUS.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import wide_source as bench_wide_source
    diags, prog = check_program(parse_program(
        bench_wide_source(random.Random(k), 0, 0, k)))
    assert diags == []
    return prog


def test_indexes_steps_and_monitor_match_references_under_contention():
    # sixty clients wait on one queue that forwards itself to a new
    # instance once per client: fifo and at random, monitored and not
    import random
    prog = contention_prog(60)
    for choose in (lambda steps: steps[0], random.Random(3).choice):
        for monitor in (True, False):
            assert differential(prog, choose, 2000, monitor, True) < 2000


def test_enabled_calls_per_step_do_not_grow_with_waiting_clients(
        monkeypatch):
    # a forward of the queue marks dirty only the processes it concerns,
    # and a waiting acquirer's step is the shared part's: so the steps
    # recomputed per step stay flat from 50 to 400 waiting clients, where
    # revalidating every process after each forward made them grow with k
    from sill import runtime
    calls = [0]
    monkeypatch.setattr(runtime, "_enabled", lambda cfg, e, f=runtime._enabled:
                        calls.__setitem__(0, calls[0] + 1) or f(cfg, e))
    for k in (50, 400):
        calls[0] = 0
        r = run(contention_prog(k), policy="fifo", monitor=False,
                max_steps=100 * k)
        assert r.status == RunStatus.ALL_POISED
        assert calls[0] <= 1.5 * r.steps, (k, calls[0] / r.steps)


def test_full_monitor_walk_matches_reference():
    # monitor_check(cfg, None) is the touched walk with every channel
    # touched: it agrees with the reference scan of every entry at the
    # initial configuration and after the last of a few steps, on the
    # corpus, the wide program and every ill-typed corpus mutant
    import random
    from itertools import islice
    from test_typecheck import _mutants
    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    progs.append(check_program(parse_program(wide_source()))[1])
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                progs.append(elab)
    verdicts = []
    for prog in progs:
        configs = [initial_config(prog)]
        configs += list(islice(drive(prog, random.Random(0).choice), 20))[-1:]
        for cfg in configs:
            every = {e.chan for e in cfg.theta} | set(cfg.lam)
            want = reference_monitor(cfg, every)
            assert monitor_check(cfg, None) == want
            verdicts.append(want)
    flagged = [v for v in verdicts if v is not None]
    assert len(verdicts) > 2500 and len(flagged) > 1500


def test_recheck_memo_hits_within_one_run(monkeypatch):
    # from a new memo, which holds only the roots the static check seeded,
    # within one monitored run, the share of keyed rechecks the
    # signature's memo answers without checking a term: a
    # miss checks the template and records the context of its whole
    # spine, so after a well-typed step the next recheck is a lookup. A
    # recheck a stamp decides builds no key and is counted only among the
    # rechecks
    from sill import runtime
    from sill.typecheck import _Ck
    checks, hits, rechecks = [0], [], [0]
    check, recheck, passes = _Ck.check, runtime._recheck, runtime._passes

    def counted_check(self, *args):
        checks[0] += 1
        return check(self, *args)

    def counted_recheck(*args):
        rechecks[0] += 1
        return recheck(*args)

    def counted_passes(cfg, ck, p):
        before = checks[0]
        ok = passes(cfg, ck, p)
        hits.append(ok and checks[0] == before)
        return ok

    monkeypatch.setattr(_Ck, "check", counted_check)
    monkeypatch.setattr(runtime, "_recheck", counted_recheck)
    monkeypatch.setattr(runtime, "_passes", counted_passes)
    for stem in ("auction", "dd", "handoff"):
        hits.clear()
        rechecks[0] = 0
        r = run(by_stem(stem), seed=0, max_steps=300)
        assert r.status == RunStatus.MAX_STEPS and rechecks[0] > 500
        assert sum(hits) >= 0.9 * len(hits), (stem, sum(hits), len(hits))


def unkeyed_checks(monkeypatch):
    """A list that takes the template of each check made with no memo key:
    a check of a closure (see _Ck.check) with no recorder, which _passes
    makes where the free names do not stand for the channels one to one."""
    from sill.typecheck import _Ck
    seen, check = [], _Ck.check

    def noted_check(self, *args):
        if len(args) > 8 and args[8] is not None and args[7] is None:
            seen.append(args[3])
        return check(self, *args)

    monkeypatch.setattr(_Ck, "check", noted_check)
    return seen


# Programs in which free names of one template come to stand for one
# channel: a shared channel passed to two shared parameters, and two
# shared channels of which a forward renames one to the other. Either way,
# once Twice holds the session it acquired through one name, its other
# name stands for that session too, and the recheck is decided with no
# memo key.
NAMES_MEET = tuple(
    "type lock = up_s &{ping: down_s lock}\n"
    "proc Lock : () |- k: lock = l <- accept k; case l { ping => "
    "s <- detach l; n <- spawn Lock(); fwd s n }\n"
    "proc Twice : (sh a: lock, sh b: lock) |- x: 1 = l <- acquire a; "
    "l.ping; r <- release l; m <- acquire b; m.ping; t <- release m; "
    "close x\n" + rest for rest in (
        "proc M : (sh k: lock) |- x: 1 = p <- spawn Twice(k, k); "
        "wait p; close x\n"
        "system { k <- spawn Lock(); main M(k); }\n",
        "proc Relay : (sh t: lock) |- k: lock = fwd k t\n"
        "system { t <- spawn Lock(); k <- spawn Relay(t); "
        "main Twice(k, t); }\n",
    ))


def test_monitor_matches_reference_where_names_meet(monkeypatch):
    unkeyed = unkeyed_checks(monkeypatch)
    for src in NAMES_MEET:
        diags, prog = check_program(parse_program(src))
        assert diags == []
        unkeyed.clear()
        for _, choose in _choosers():
            assert differential(prog, choose, 100, True, True) > 5
        assert unkeyed, src


def test_recheck_memo_records_each_nodes_own_offer():
    # the recheck of a new Cell records its put and its close, each under
    # the offer it checks with. A Cell moved on to its close without its
    # offer or its client's view moving on matches neither record, and
    # its term, closing a channel that still sends, is flagged.
    src = ("type cell = !int. 1\n"
           "proc Cell : () |- c: cell = put c 1; close c\n"
           "proc Main : () |- x: 1 = c <- spawn Cell(); v <- get c; "
           "wait c; close x\n"
           "system { main Main(); }\n")
    diags, prog = check_program(parse_program(src))
    assert diags == []
    cfg = initial_config(prog)
    rec = apply_step(cfg, enumerate_steps(cfg)[0])
    assert monitor_check(cfg, rec.touched) is None
    cell = cfg.theta[-1]
    cell.tmpl = cell.tmpl.cont
    assert monitor_check(cfg, rec.touched).startswith(
        f"process at {cell.chan} no longer typechecks")


def test_recheck_forces_where_two_names_stand_for_one_linear_channel():
    # a forward makes two free names of Main stand for one linear channel,
    # which Main uses once: in its template's names Main would wait on two
    # channels, each once, where its term waits on one twice. So the
    # recheck builds no memo key, and its check of the closure, reading
    # both names as that one channel, flags the term.
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    for _ in range(2):
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    b0, b1 = main.uses
    assert monitor_check(cfg, rec.touched) is None
    cfg.names[b1] = b0
    cfg.unuse(main, b1)
    assert monitor_check(cfg, rec.touched).startswith(
        f"process at {main.chan} no longer typechecks")


def test_recheck_memo_sees_every_part_of_its_key(monkeypatch):
    # after Main of the wide program spawns its second Batch, the touched
    # check rechecks Main and records in the signature's memo the context
    # of every node of Main's spine; each part of what that recheck read,
    # made ill-typed in turn, must be rechecked and flagged at once,
    # although the rest of Main and the step's touched set stay the same.
    # So must a corrupted context at a node the recheck passed through
    # mid-spine, once Main has stepped there.
    from sill.types import IChoice
    from sill.typecheck import _Ck
    src = wide_source()
    prog = check_program(parse_program(src))[1]
    cfg = initial_config(prog)
    for _ in range(2):
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    b0, b1 = main.uses
    assert rec.rule == "spawn_ll" and rec.touched == {main.chan, b1}
    assert "q" in cfg.gamma and "q" not in rec.touched
    assert monitor_check(cfg, rec.touched) is None
    passed = {key[0] for key in cfg.sig.memo[id(cfg.env)][1]}
    assert id(main.tmpl) in passed and id(main.tmpl.cont) in passed
    # rebinds a type that Main's spawns of Writer(q) unfold
    zapped = parse_program(src.replace(
        "type producer = up_s &{enqueue:", "type producer = up_s &{zap:"))
    corruptions = {
        "offer": (main, "offer", IChoice((("a", One()),))),
        "uses": (main.uses, b0, Tensor(One(), One())),
        "gamma": (cfg.gamma, "q", SharedC(Ref("consumer"))),
        "env": (cfg, "env", zapped.types),
    }

    def flagged_at_once(corruptions):
        for part, (obj, key, bad) in corruptions.items():
            get, put = (dict.get, dict.__setitem__) if isinstance(obj, dict) \
                else (getattr, setattr)
            good = get(obj, key)
            put(obj, key, bad)
            assert monitor_check(cfg, rec.touched) is not None, part
            put(obj, key, good)
            assert monitor_check(cfg, rec.touched) is None, part

    flagged_at_once(corruptions)
    # Main spawns its third Batch: its next node and the new Batch's body
    # were recorded, so the recheck is a lookup that checks no term
    rec = apply_step(cfg, next(s for s in enumerate_steps(cfg)
                               if s.provider == main.chan))
    b2 = next(c for c in main.uses if c not in (b0, b1))
    checks = []
    check = _Ck.check
    monkeypatch.setattr(_Ck, "check",
                        lambda self, *a: checks.append(a) or check(self, *a))
    assert monitor_check(cfg, rec.touched) is None and checks == []
    flagged_at_once({
        "recorded uses": (main.uses, b2, Tensor(One(), One())),
        "tmpl": (main, "tmpl", main.tmpl.cont),  # skips spawning k0
    })


def test_renaming_keeps_only_the_templates_free_names():
    # a step keeps only its continuation's free names in a process's
    # renaming, so Main of a long straight line holds its offer and the
    # cell it is on, not a name for every cell it is done with
    from test_cli import _straight_line
    diags, prog = check_program(parse_program(_straight_line(10_000)))
    assert diags == []
    r = run(prog, max_steps=3000, monitor=False)
    main = r.config.provider("%g0")
    assert r.status == RunStatus.MAX_STEPS and main.tmpl is not None
    assert set(main.env) == set(prog.procs.free[id(main.tmpl)])
    assert len(main.env) <= 2


# --------------------------------------------------------------------------- #
# Closures against eager substitution
# --------------------------------------------------------------------------- #

def eager_resume(t, msg):
    """The continuation of a concrete term once its action takes msg, as
    the runtime computed it by substitution: a case takes the branch of
    label msg, an action with a binder binds it to msg."""
    from sill.procast import CaseRecv, Wait, SendChan, SendChanS, \
        SendLabel, SendVal
    if isinstance(t, CaseRecv):
        return t.branch(msg)
    if isinstance(t, (Wait, SendChan, SendChanS, SendLabel, SendVal)):
        return t.cont
    return reference_substitute(t.cont, {t.binder: msg})


@settings(max_examples=300, deadline=None)
@given(TERMS, st.dictionaries(NAMES, st.sampled_from("abxyqr"), max_size=4),
       st.integers(0, 40), st.data())
def test_forcing_matches_eager_substitution(body, actuals, base, data):
    # a process instantiated from a random body with random actuals, moved
    # on by random resumes and renamed by random forwards, forces to the
    # term that freshening at instantiation and substituting at every step
    # and forward gives, and so do the trace snapshots taken on the way,
    # each formatted before the next forward, as a run formats a snapshot
    # in the step that took it
    from itertools import count
    from sill.procast import (
        CaseRecv, Wait, SendChan, SendChanS, SendLabel, SendVal,
        FIELDS, BINDER, ProcDef, ProcSignature, freshen, scope,
    )
    from sill.runtime import Config, _instance, _record, _resume, \
        _trace_pred
    from sill.types import TypeDefEnv

    d = ProcDef("P", "o", One(), False, (), body)
    cfg = Config(TypeDefEnv(), ProcSignature((d,)), [], {}, {})
    cfg.counter = base
    p = _instance(cfg, d, "r", dict(actuals), {}, False)
    assert cfg.counter == base + scope(body)[0]
    eager = freshen(body, map("%g{}".format, count(base)).__next__,
                    {**actuals, "o": "r"})
    snaps = []

    def formatted():
        for r, want in snaps:
            assert _trace_pred(r)["term"] == want
        snaps.clear()

    for _ in range(data.draw(st.integers(0, 8))):
        assert p.term() == eager
        snaps.append((_record(p), " ".join(format_proc(eager).split())))
        # channels a forward or a message brings in: never a binder of
        # TERMS, which no runtime channel is either
        dead = set(cfg.names)
        live = [x for x in "qrstuvw" if x not in dead]
        free = sorted(x for x in scope(eager)[1] if x not in dead)
        choice = data.draw(st.sampled_from(("resume", "forward")))
        if choice == "forward" and free:
            b = data.draw(st.sampled_from(free))
            a = data.draw(st.sampled_from([x for x in live if x != b]
                                          or [None]))
            if a is None:
                continue
            formatted()
            cfg.names[b] = a
            eager = reference_substitute(eager, {b: a})
        elif isinstance(eager, CaseRecv):
            msg = data.draw(st.sampled_from(eager.labels()))
            _resume(cfg, p, msg)
            eager = eager_resume(eager, msg)
        elif isinstance(eager, (Wait, SendChan, SendChanS, SendLabel,
                                SendVal)):
            _resume(cfg, p, None)
            eager = eager_resume(eager, None)
        elif any(r is BINDER for _, r in FIELDS[type(eager)]) and live:
            msg = data.draw(st.sampled_from(live))
            _resume(cfg, p, msg)
            eager = eager_resume(eager, msg)
        else:
            break  # a close, a forward, or no channel left to bind
    assert p.term() == eager
    formatted()


def test_forward_keeps_other_templates_and_kept_steps(monkeypatch):
    # a forward renames one channel through the name-resolution map, so an
    # entry that mentions it nowhere, and whose client does not either,
    # keeps its template object and what it is kept with, and its step is
    # not recomputed: the forward marks dirty only the entries it concerns
    import random
    from sill import runtime
    from sill.procast import scope
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    choose = random.Random(0).choice
    forwards = kept = 0
    seen = set()
    monkeypatch.setattr(runtime, "_enabled", lambda cfg, e, f=runtime._enabled:
                        seen.add(id(e)) or f(cfg, e))

    def mentions(e, b):
        return e is not None and (e.chan == b or b in e.uses
                                  or b in scope(e.term())[1])

    for _ in range(1000):
        steps = enumerate_steps(cfg)
        if not steps:
            break
        step = choose(steps)
        if not step.rule.startswith("fwd_"):
            apply_step(cfg, step)
            continue
        p = cfg.provider(step.provider)
        b = p.name(p.tmpl.used)
        before = [(e, e.tmpl, e.kept) for e in cfg.theta
                  if isinstance(e, Proc) and e is not p
                  and not mentions(e, b)
                  and not mentions(cfg.user_of(e.chan), b)]
        rec = apply_step(cfg, step)
        assert b in rec.renames
        seen.clear()
        enumerate_steps(cfg)
        for e, tmpl, k in before:
            assert e.tmpl is tmpl and e.kept is k and id(e) not in seen
        forwards += 1
        kept += len(before)
    assert forwards > 0 and kept > 10 * forwards


def test_recheck_memo_sees_forwards():
    # Main of the wide program holds the shared queue q in its renaming
    # only: no use and no index entry names it. A forward of q that Γ does
    # not follow must still reach Main's memoized recheck.
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    for _ in range(2):
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    assert "q" in main.env.values() and "q" not in main.uses
    assert monitor_check(cfg, rec.touched) is None
    cfg.names["q"] = "elsewhere"
    assert "elsewhere" in format_proc(main.term())
    assert monitor_check(cfg, rec.touched) is not None


def test_a_forwards_consumed_records_read_as_before_it_renames():
    # a run formats a snapshot in the step that took it, but a forward
    # takes its consumed records (the forwarder and, for fwd_ll, the
    # provider of the channel it renames) before it renames: formatted
    # after the step, each must read as its process's term just before it
    import random
    from sill.runtime import _trace_pred
    prog = check_program(parse_program(wide_source()))[1]
    runs = [(prog, lambda steps: steps[0])]
    for stem in sorted(EXPECTED_STATUS):
        for seed in range(4):
            rng = random.Random(seed)
            runs.append((by_stem(stem),
                         lambda steps, r=rng: steps[r.randrange(len(steps))]))
    seen = dict.fromkeys(("fwd_ll", "fwd_ss", "fwd_ls"), 0)
    for prog, choose in runs:
        cfg = initial_config(prog)
        for _ in range(300):
            steps = enumerate_steps(cfg)
            if not steps:
                break
            step = choose(steps)
            want = None
            if step.rule in seen:
                p = cfg.provider(step.provider)
                procs = [p]
                if step.rule == "fwd_ll":
                    b = cfg.provider(p.name(p.tmpl.used))
                    procs += [b] if isinstance(b, Proc) else []
                want = [" ".join(format_proc(e.term()).split()) for e in procs]
            rec = apply_step(cfg, step)
            if want is not None:
                assert [_trace_pred(r)["term"] for r in rec.consumed] == want
                seen[step.rule] += 1
    # 417 fwd_ll, 434 fwd_ss and 4 fwd_ls steps
    assert seen["fwd_ll"] > 300 and seen["fwd_ss"] > 300 and seen["fwd_ls"]


def test_forwards_of_a_long_run_go_into_one_map_in_place():
    # a client that acquires the corpus queue over and over: each round
    # forwards twice (the queue to its next instance, the client to its
    # next round). The forwards extend one map in place, so a forward
    # costs the same at the end of a long run as at its start.
    import gc
    from time import process_time
    src = (CORPUS / "queue.sill").read_text().split("proc Main")[0] + """
proc Loop : (sh w: producer) |- x: 1 =
    l <- acquire w;
    l.enqueue;
    put l 7;
    s <- release l;
    y <- spawn Loop(s);
    fwd x y

system {
    q <- spawn QueueProv();
    main Loop(q);
}
"""
    diags, prog = check_program(parse_program(src))
    assert diags == []
    cfg = initial_config(prog)
    m, forwards, chunks = cfg.names, 0, []
    gc.collect()
    for _ in range(8):
        t = process_time()
        for _ in range(4000):
            step = enumerate_steps(cfg)[0]
            forwards += step.rule.startswith("fwd_")
            apply_step(cfg, step)
        chunks.append(process_time() - t)
    assert forwards == 8000
    assert cfg.names is m and len(m) == forwards
    assert len(cfg.theta) + len(cfg.lam) <= 4
    # 3x leaves a margin for a busy host; a map copied at each forward
    # would grow the last chunks' time with the 7000 entries before them
    assert max(chunks[-2:]) < 3 * min(chunks[:2])


# --------------------------------------------------------------------------- #
# Monitored steps that cost what they change
# --------------------------------------------------------------------------- #

def test_monitored_wide_steps_cost_what_they_change(monkeypatch):
    # a step of a Batch leaves Main's record as it was, so Main, a client
    # of the Batch, is not rechecked; and a resume marks dirty only the
    # providers at the resumed process's subject before and after it, not
    # those of every channel it uses. Under fifo the monitored wide program
    # makes 211 calls to _enabled in 126 steps (535 when a resume marked
    # every use) and 215 rechecks (317 when the clients of every touched
    # channel were rechecked too), of which the 77 that no stamp decides
    # call _passes and resolve a template's free names.
    from sill import runtime
    calls = dict.fromkeys(("_enabled", "rechecks", "walks", "names"), 0)
    enabled, recheck = runtime._enabled, runtime._recheck
    passes = runtime._passes
    inside = []

    def counted_enabled(*args):
        calls["_enabled"] += 1
        return enabled(*args)

    def counted_recheck(*args):
        calls["rechecks"] += 1
        return recheck(*args)

    class CountedFree(dict):
        # a recheck reads a template's free names from this table
        def __getitem__(self, node):
            calls["names"] += bool(inside)
            return dict.__getitem__(self, node)

    def counted_passes(cfg, ck, p):
        before = calls["names"]
        inside.append(p)
        ok = passes(cfg, ck, p)
        inside.pop()
        calls["walks"] += calls["names"] > before
        return ok

    monkeypatch.setattr(runtime, "_enabled", counted_enabled)
    monkeypatch.setattr(runtime, "_recheck", counted_recheck)
    monkeypatch.setattr(runtime, "_passes", counted_passes)
    prog = check_program(parse_program(wide_source()))[1]
    prog.procs.__dict__["free"] = CountedFree(prog.procs.free)
    r = run(prog, policy="fifo", max_steps=1000)
    assert r.status == RunStatus.ALL_POISED and r.steps == 126
    assert calls["_enabled"] < 2.5 * r.steps
    assert calls["rechecks"] < 2 * r.steps
    assert calls["walks"] < 2 * r.steps


def records(cfg):
    """Per linear entry and per shared session, by id: the entry and what
    its monitor check reads besides the Γ entries of its template's other
    free names: its channel, its template, offer and uses or its alias
    target, its client's view of its channel, and Γ at its channel or, for
    an alias, at its target."""
    out = {}
    for e in cfg.theta:
        u = cfg.user_of(e.chan)
        own = (e.target,) if isinstance(e, Connect) \
            else (e.tmpl, e.offer, dict(e.uses))
        out[id(e)] = (e, e.chan, own, None if u is None else u.uses[e.chan],
                      cfg.gamma.get(own[0] if len(own) == 1 else e.chan))
    for a, p in cfg.lam.items():
        out[id(p)] = (p, a, (p.tmpl, p.offer, {}), None, cfg.gamma.get(a))
    return out


def same_record(old, new, renames):
    """Whether the record new is old with its channels renamed: names
    compared by value, templates and types by identity."""
    def rn(c):
        return renames.get(c, c)
    (_, chan, own, view, con), (_, chan2, own2, view2, con2) = old, new
    if rn(chan) != chan2 or view is not view2 or con is not con2 or \
            len(own) != len(own2):
        return False
    if len(own) == 1:
        return rn(own[0]) == own2[0]
    uses = {rn(c): t for c, t in own[2].items()}
    return own[0] is own2[0] and own[1] is own2[1] and \
        uses.keys() == own2[2].keys() and \
        all(uses[c] is own2[2][c] for c in uses)


def test_each_step_touches_every_record_it_changes():
    # the monitor rechecks only the entries offering a touched channel and
    # the aliases of one, and the shared sessions at a touched channel.
    # That is exact where every entry or session a step makes, or whose
    # record, client's view or Γ entry (at an alias, its target's) it
    # changes, is among them, a forward's renaming aside: after every step
    # of monitored runs of the corpus, the wide program, the contention
    # shape, the held forwards and every ill-typed mutant, up to the first
    # violation, it is, and every Γ entry the step wrote is at a touched
    # channel. (Past a violation it need not be: a process that closes its
    # channel while it still holds another drops the only client of that
    # one.) Along the way, the check of Γ at the entries the step wrote
    # agrees with the walk of the whole of Γ.
    import random
    from sill.runtime import _check_gamma_monotone, _relevant
    from test_typecheck import _mutants
    progs = [(by_stem(stem), 300) for stem in sorted(EXPECTED_STATUS)]
    progs += [(check_program(parse_program(src))[1], 300) for src in (
        wide_source(), HELD_FWD, HELD_SPAWN, SPAWN_LS, CLOSE_SHARED)]
    progs.append((contention_prog(40), 400))
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                progs.append((elab, 60))
    changed = 0
    for prog, max_steps in progs:
        for seed in range(2):
            cfg, rng = initial_config(prog), random.Random(seed)
            if monitor_check(cfg, None) is not None:
                continue
            for _ in range(max_steps):
                steps = enumerate_steps(cfg)
                if not steps:
                    break
                before, gamma = records(cfg), dict(cfg.gamma)
                rec = apply_step(cfg, rng.choice(steps))
                linear, shared, _ = _relevant(cfg, rec.touched)
                for k, r in records(cfg).items():
                    if k not in before or not same_record(before[k], r,
                                                          rec.renames):
                        e = r[0]
                        if isinstance(e, Proc) and e.shared:
                            assert e.chan in shared, (rec.rule, r)
                        else:
                            assert k in linear, (rec.rule, r)
                        changed += 1
                assert all(rec.renames.get(c, c) in rec.touched
                           for c in rec.gamma), rec.rule
                fault = _check_gamma_monotone(cfg, rec)
                assert fault == reference_gamma_monotone(cfg, gamma, rec)
                if fault is not None or \
                        monitor_check(cfg, rec.touched) is not None:
                    break
    assert changed > 10000


# Main is the client of both cells and acts on c0 alone before c1
TWO_CELLS = (
    "type cell = !int. 1\n"
    "proc Cell : () |- c: cell = put c 1; close c\n"
    "proc Main : () |- x: 1 = c0 <- spawn Cell(); c1 <- spawn Cell(); "
    "v0 <- get c0; wait c0; v1 <- get c1; wait c1; close x\n"
    "system { main Main(); }\n"
)


def test_provider_keeps_its_step_while_its_client_acts_elsewhere(
        monkeypatch):
    # c1's step reads Main only where Main acts on c1: while Main gets from
    # and waits on c0, c1 is not marked dirty, its step is not recomputed
    # and it stays kept with none; once Main's next action names c1, c1's
    # step is recomputed and kept
    from sill import runtime
    from sill.runtime import Step
    diags, prog = check_program(parse_program(TWO_CELLS))
    assert diags == []
    cfg = initial_config(prog)
    for _ in range(2):
        apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    c0, c1 = main.uses
    cell = cfg.provider(c1)
    assert enumerate_steps(cfg) == reference_steps(cfg)
    assert cell.kept is None
    seen = []
    monkeypatch.setattr(runtime, "_enabled", lambda cfg, e, f=runtime._enabled:
                        seen.append(e) or f(cfg, e))
    for rule in ("val_out", "one"):
        steps = enumerate_steps(cfg)
        assert [(s.rule, s.provider) for s in steps] == [(rule, c0)]
        apply_step(cfg, steps[0])
        assert (cell not in cfg.dirty) == (rule == "val_out")
        seen.clear()
        assert enumerate_steps(cfg) == reference_steps(cfg)
        assert (cell in seen) == (rule == "one")
        assert cell.kept == (None if rule == "val_out"
                             else Step("val_out", c1, main.chan))
    assert [(s.rule, s.provider) for s in enumerate_steps(cfg)] == [
        ("val_out", c1)]


def test_steps_follow_a_resume_made_by_hand():
    # _resume marks dirty the providers at the process's subject before
    # its move and after it, whatever calls it: at an exchange step, move
    # its client alone on by hand, and the enabled steps match the
    # one-pass reference
    import random
    from sill.runtime import _exchange, _HANDLERS, _resume
    progs = [by_stem(stem) for stem in sorted(EXPECTED_STATUS)]
    progs.append(check_program(parse_program(wide_source()))[1])
    checked = 0
    for prog in progs:
        for seed in range(12):
            rng = random.Random(seed)
            cfg, k = initial_config(prog), rng.randrange(40)
            while steps := enumerate_steps(cfg):
                pairs = [s for s in steps if _HANDLERS[s.rule] is _exchange]
                if pairs and k <= 0:
                    break
                apply_step(cfg, rng.choice(steps))
                k -= 1
            else:
                continue
            u = cfg.provider(rng.choice(pairs).user)
            move = cfg.sig.steps[id(u.tmpl)]
            _resume(cfg, u, rng.choice(sorted(move)) if type(move) is dict
                    else cfg.fresh())
            assert enumerate_steps(cfg) == reference_steps(cfg)
            checked += 1
    assert checked > 50


def test_recheck_stamp_sees_the_channel():
    # besides what the signature's memo keys on, a recheck reads the
    # process's channel: Main's recheck passes, and Main moved to another
    # channel is rechecked and flagged at once
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    for _ in range(2):
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    assert monitor_check(cfg, rec.touched) is None
    chan = main.chan
    main.chan = "elsewhere"
    assert monitor_check(cfg, rec.touched) is not None
    main.chan = chan
    assert monitor_check(cfg, rec.touched) is None


# --------------------------------------------------------------------------- #
# The monitor decides on graph ids
# --------------------------------------------------------------------------- #

def reference_passes(cfg, ck, p, memo):
    """_passes with types in its memo keys and no stamp: each key is
    (node, shared, offer type, the class of each free name: its
    constraint, or (whether it is the offer, its view, its constraint)),
    kept in the set memo, one per type env, and the template checked in
    its own names. A context that does not translate one to one (two
    free names for one linear channel, none for the offer, or a use no
    free name stands for) is decided by checking the forced term."""
    t, chan, gamma, free = p.tmpl, p.chan, cfg.gamma, cfg.sig.free
    uses = {} if p.shared else p.uses
    x, delta, gam, cls, lin = None, {}, {}, [], set()
    for y in free[id(t)]:
        r = p.name(y)
        d, g = uses.get(r), gamma.get(r)
        if g is not None:
            gam[y] = g
        if r == chan or d is not None:
            if r in lin:
                x = None
                break
            lin.add(r)
            x = y if r == chan else x
            if d is not None:
                delta[y] = d
            g = (r == chan, d, g)
        cls.append(g)
    if x is None or not lin.issuperset(uses):
        return (ck.shared(gamma, {}, p.term(), chan, p.offer) if p.shared
                else ck.linear(gamma, uses, {}, p.term(), chan, p.offer)) \
            is not None
    if (id(t), p.shared, p.offer, tuple(cls)) not in memo:
        out = []

        def record(node, gamma, delta, x, a, shared, names):
            out.append((id(node), shared, a, tuple(
                (y == x, delta.get(y), gamma.get(y)) if y == x or y in delta
                else gamma.get(y) for y in free[id(node)])))

        if (ck.shared(gam, {}, t, x, p.offer, record) if p.shared else
                ck.linear(gam, delta, {}, t, x, p.offer, record)) is None:
            return False
        memo.update(out)
    return True


def ids_differential(prog, choose, max_steps):
    """A monitored run of prog that checks, at the initial configuration
    and after every step, that _passes (graph ids) and
    reference_passes (types) agree on every linear and shared process.
    Ends at the first violation, as a monitored run does. Returns the
    verdicts of _passes."""
    from sill.runtime import _checker, _passes
    cfg, memos, verdicts = initial_config(prog), {}, []
    v = monitor_check(cfg, None)
    for n in range(max_steps + 1):
        ck = _checker(cfg)
        memo = memos.setdefault(id(cfg.env), (cfg.env, set()))[1]
        for p in [*(e for e in cfg.theta if isinstance(e, Proc)),
                  *cfg.lam.values()]:
            want = reference_passes(cfg, ck, p, memo)
            assert _passes(cfg, ck, p) == want
            verdicts.append(want)
        if v is not None or n == max_steps:
            break
        steps = enumerate_steps(cfg)
        if not steps:
            break
        v = monitor_check(cfg, apply_step(cfg, choose(steps)).touched)
    return verdicts


def test_id_keyed_recheck_matches_the_type_keyed_reference():
    # the 7 corpus programs at 4 seeds, the bench's wide program under
    # fifo, and every ill-typed corpus mutant for as many steps as its
    # pinned outcome
    import random
    import sys
    from test_typecheck import _mutants
    sys.path.insert(0, str(CORPUS.parent / "bench"))
    from workloads import wide_source as bench_wide_source
    verdicts = []
    for stem in sorted(EXPECTED_STATUS):
        for seed in range(4):
            verdicts += ids_differential(by_stem(stem),
                                         random.Random(seed).choice, 300)
    wide = check_program(parse_program(
        bench_wide_source(random.Random("wide:0"), 16, 10, 32)))[1]
    verdicts += ids_differential(wide, lambda steps: steps[0], 1000)
    assert verdicts.count(True) > 10000
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                verdicts += ids_differential(elab, random.Random(0).choice,
                                             60)
    assert verdicts.count(False) > 700


def reference_record(g, free, out):
    """_recorder building each node's key anew: every free name's class is
    worked out at every node of the spine, each name y read as names[y]."""
    from sill.runtime import _cid, _tid

    def record(node, gamma, delta, x, a, shared, names):
        out.append((id(node), shared, _tid(g, a), tuple(
            (y == x, _tid(g, delta[y]) if y in delta else None,
             _cid(g, gamma[y]) if y in gamma else None)
            if y == x or y in delta else
            _cid(g, gamma[y]) if y in gamma else None
            for y in map(names.__getitem__, free[id(node)]))))

    return record


def test_recheck_misses_record_the_per_node_keys(monkeypatch):
    # a recheck miss builds each free name's class once and reuses it along
    # the spine: every monitored run of the corpus, the bench's wide
    # program, the contention shape and every ill-typed corpus mutant, each
    # on an unseeded signature, leaves the signature's memo holding exactly
    # the keys of the same run with each class built at every node
    import random
    import sys
    from sill import runtime
    from sill.runtime import ProgressError
    from test_typecheck import _mutants
    sys.path.insert(0, str(CORPUS.parent / "bench"))
    from workloads import wide_source as bench_wide_source
    wide = check_program(parse_program(
        bench_wide_source(random.Random("wide:0"), 16, 10, 32)))[1]
    runs = [(by_stem(stem), "random", seed, 300)
            for stem in sorted(EXPECTED_STATUS) for seed in range(2)]
    runs += [(wide, "fifo", 0, 1000), (contention_prog(40), "fifo", 0, 1000)]
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                runs.append((elab, "random", 0, 60))
    # unseeded, so that the misses at the definitions' roots are made too
    runs = [(unseeded(prog), *rest) for prog, *rest in runs]
    keys = 0
    for prog, policy, seed, max_steps in runs:
        memos = []
        for recorder in (runtime._recorder, reference_record):
            monkeypatch.setattr(runtime, "_recorder", recorder)
            prog.procs.memo.clear()
            try:
                run(prog, seed=seed, policy=policy, max_steps=max_steps)
            except ProgressError:  # an ill-typed mutant may halt so
                pass
            memos.append([m[1] for m in prog.procs.memo.values()])
        monkeypatch.undo()
        assert memos[0] == memos[1]
        keys += sum(map(len, memos[0]))
    assert len(runs) > 1500 and keys > 25000  # 1 567 runs, 27 693 keys


def test_a_recheck_miss_builds_no_term(monkeypatch):
    # a recheck checks the closure's template as it stands: a miss that
    # passes builds no term node, neither a renamed node per spine node nor
    # the elaborated term. Monitored runs of the corpus at seeds 0-2 and of
    # the wide program under fifo, each from a cold, unseeded memo
    from sill import runtime
    from sill.typecheck import _Ck
    counts = {"built": 0, "checks": 0}
    inside = False
    for cls in procast.FIELDS:
        def counted(self, *a, _init=cls.__init__, **kw):
            counts["built"] += inside
            _init(self, *a, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    passes, check = runtime._passes, _Ck.check

    def noted_passes(cfg, ck, p):
        nonlocal inside
        inside = True
        try:
            return passes(cfg, ck, p)
        finally:
            inside = False

    def noted_check(self, *a):
        counts["checks"] += inside
        return check(self, *a)

    monkeypatch.setattr(runtime, "_passes", noted_passes)
    monkeypatch.setattr(_Ck, "check", noted_check)
    runs = [(by_stem(stem), {"seed": seed, "max_steps": 300})
            for stem in sorted(EXPECTED_STATUS) for seed in range(3)]
    runs.append((check_program(parse_program(wide_source()))[1],
                 {"policy": "fifo"}))
    for prog, kw in runs:
        assert run(unseeded(prog), monitor=True, **kw).violation is None
    # 316 checks, case arms counted
    assert counts["built"] == 0 and counts["checks"] > 300


# --------------------------------------------------------------------------- #
# The static check seeds the recheck memo
# --------------------------------------------------------------------------- #

def unseeded(prog):
    """prog under a copy of its signature that lists no definition as
    checked, so that its monitor's recheck memo starts empty."""
    return dataclasses.replace(
        prog, procs=procast.ProcSignature(prog.procs.defs))


def reference_seeds(cfg):
    """The keys the monitor's memo must start with, worked out from the
    signature alone: for each definition whose body check_procdef passes,
    the key of its root, each free name read in the context the static
    check gives it (with the offer's own Γ entry where it is shared)."""
    from sill.runtime import _cid, _tid
    from sill.typecheck import check_procdef
    g, sig, keys = cfg.env.graph, cfg.sig, set()
    for d in sig.defs:
        if check_procdef(cfg.env, sig, d)[1] is None:
            continue
        gamma = {prm.chan: SharedC(prm.ty) for prm in d.params if prm.shared}
        delta = {prm.chan: prm.ty for prm in d.params if not prm.shared}
        if d.offer_shared:
            gamma[d.offer] = SharedC(d.offer_ty)
        keys.add((id(d.body), d.offer_shared, _tid(g, d.offer_ty), tuple(
            (y == d.offer, _tid(g, delta[y]) if y in delta else None,
             _cid(g, gamma[y]) if y in gamma else None)
            if y == d.offer or y in delta else
            _cid(g, gamma[y]) if y in gamma else None
            for y in sig.free[id(d.body)])))
    return keys


def seeded_run(prog, counts, **kw):
    """run(prog, **kw), monitored and traced, on prog as checked and on
    its unseeded copy: both must end alike, with the same trace bytes (a
    run that halts without progress, with the same message). On prog, each
    memo must start with reference_seeds' keys, and each recheck that a
    seeded key decides, where no miss of the run has recorded that key, is
    decided again in full with no key: on the closure and on the forced
    term, each must pass with no diagnostic. On the copy, each memo must
    start empty. counts takes the rechecks so decided ("seeded")."""
    from itertools import count
    from sill import runtime
    from sill.typecheck import _Ck
    checker, passes = runtime._checker, runtime._passes
    state = {"seeded": False, "seeds": True}

    class Noted(set):
        # one memo: notes whether a lookup is answered by a seed alone
        def __contains__(self, k):
            hit = set.__contains__(self, k)
            state["seeded"] = hit and k in self.seeds \
                and k not in self.recorded
            return hit

        def update(self, keys):
            keys = list(keys)
            self.recorded.update(keys)
            set.update(self, keys)

    def noted_checker(cfg):
        m = cfg.sig.memo.get(id(cfg.env))
        ck = checker(cfg)
        env, keys, g = cfg.sig.memo[id(cfg.env)]
        if m is None or m[2] is not g:
            assert keys == (reference_seeds(cfg) if state["seeds"] else set())
            keys = Noted(keys)
            keys.seeds, keys.recorded = set(keys), set()
            cfg.sig.memo[id(cfg.env)] = (env, keys, g)
        return ck

    def noted_passes(cfg, ck, p):
        state["seeded"] = False
        ok = passes(cfg, ck, p)
        if state["seeded"]:
            names = {y: p.name(y) for y in cfg.sig.free[id(p.tmpl)]}
            clo = names, map("%g{}".format, count(p.base)).__next__
            for t, c in ((p.tmpl, clo), (p.term(), None)):
                ref = _Ck(cfg.env, cfg.sig)
                full = ref.shared(cfg.gamma, {}, t, p.chan, p.offer, None, c) \
                    if p.shared else ref.linear(cfg.gamma, p.uses, {}, t,
                                                p.chan, p.offer, None, c)
                assert (ok, full is not None, ref.diags) == (True, True, [])
            counts["seeded"] += 1
        return ok

    ends = []
    for state["seeds"], q in ((True, prog), (False, unseeded(prog))):
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runtime, "_checker", noted_checker)
            mp.setattr(runtime, "_passes", noted_passes)
            try:
                r = run(q, monitor=True, trace=out, **kw)
                ends.append((r.status, r.steps, r.violation, out.getvalue()))
            except ProgressError as e:
                ends.append((str(e), out.getvalue()))
    assert ends[0] == ends[1]


def test_a_seeded_recheck_decides_as_in_full():
    # the corpus at 6 seeds, the test's wide program under fifo, sixty
    # clients of one queue, names that meet, a value spelt like a channel,
    # and every ill-typed corpus mutant at seed 0 for as many steps as its
    # pinned outcome: runs as checked and unseeded end alike, and every
    # recheck a seed alone decides passes in full. A mutant's failed
    # definition is not seeded (reference_seeds)
    from test_typecheck import _mutants
    counts = {"seeded": 0}
    for stem in sorted(EXPECTED_STATUS):
        for seed in range(6):
            seeded_run(by_stem(stem), counts, seed=seed, max_steps=300)
    for prog in (check_program(parse_program(wide_source()))[1],
                 contention_prog(60)):
        seeded_run(prog, counts, policy="fifo", max_steps=2000)
    for src in (*NAMES_MEET, VALUE_SPELT_AS_A_CHANNEL):
        diags, prog = check_program(parse_program(src))
        assert diags == []
        seeded_run(prog, counts, policy="fifo")
        seeded_run(prog, counts, seed=0)
    before, mutants = counts["seeded"], 0
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                seeded_run(elab, counts, seed=0, max_steps=60)
                mutants += 1
    assert mutants > 1500
    assert counts["seeded"] - before > 3000 and before > 2000, counts


def test_a_checked_definition_is_not_walked_again_at_its_root(monkeypatch):
    # each definition the static check passed starts the memo at its root,
    # so a cold-memo monitored run misses only below a root: after an
    # acquire, a release or a forward, or at the root of a definition
    # whose parameters are views of a session (queue's Writer and Reader).
    # Nodes walked by misses over the corpus at seeds 0-3, each run on a
    # freshly checked program, and over the bench's wide program under
    # fifo; before the seeds they were 400, 140, 276, 220, 84, 208 and 64,
    # and 177
    import random
    import sys
    from sill import runtime
    sys.path.insert(0, str(CORPUS.parent / "bench"))
    from workloads import wide_source as bench_wide_source
    recorder, made, walked = runtime._recorder, [0], [0]

    def counted(g, free, out):
        made[0] += 1
        record = recorder(g, free, out)

        def counted_record(*a):
            walked[0] += 1
            return record(*a)
        return counted_record

    monkeypatch.setattr(runtime, "_recorder", counted)
    got = {}
    for stem in sorted(EXPECTED_STATUS):
        made[0] = walked[0] = 0
        for seed in range(4):
            run(by_stem(stem), seed=seed, max_steps=300)
        got[stem] = walked[0]
        assert stem != "basics" or made[0] == 0
    walked[0] = 0
    wide = bench_wide_source(random.Random("wide:0"), 16, 10, 32)
    run(check_program(parse_program(wide))[1], policy="fifo", max_steps=2000)
    got["wide"] = walked[0]
    assert got == {"auction": 204, "basics": 0, "dd": 144, "handoff": 87,
                   "ignore": 40, "queue": 156, "stuck": 16, "wide": 69}


def test_a_name_and_its_body_are_one_memo_key(monkeypatch):
    # a context that holds Ref(n) and one that holds n's body are one
    # graph node: after a process passes with a view or an offer that is a
    # name, the same process with that name's body in its place passes by
    # the memo's lookup, where the type-keyed reference checks it again
    # and gives the same verdict
    from itertools import islice
    from sill.runtime import _checker, _passes
    from sill.typecheck import _Ck
    from sill.types import unfold
    checks = []
    check = _Ck.check
    monkeypatch.setattr(_Ck, "check",
                        lambda self, *a: checks.append(a) or check(self, *a))
    swapped = 0
    for stem in ("auction", "dd", "handoff", "queue"):
        prog = by_stem(stem)
        for cfg in islice(drive(prog, lambda steps: steps[0]), 100):
            ck = _checker(cfg)
            for p in [e for e in cfg.theta if isinstance(e, Proc)]:
                places = [(p.uses, c) for c, ty in p.uses.items()
                          if isinstance(ty, Ref)]
                if isinstance(p.offer, Ref):
                    places.append((p, "offer"))
                for obj, key in places:
                    get, put = (dict.get, dict.__setitem__) \
                        if isinstance(obj, dict) else (getattr, setattr)
                    name, memo = get(obj, key), set()
                    assert _passes(cfg, ck, p)
                    assert reference_passes(cfg, ck, p, memo)
                    put(obj, key, unfold(cfg.env, name))
                    del checks[:]
                    assert _passes(cfg, ck, p) and checks == []
                    assert reference_passes(cfg, ck, p, memo) and checks
                    put(obj, key, name)
                    swapped += 1
    assert swapped > 40


def test_monitor_interns_only_types_the_run_built(monkeypatch):
    # on monitored corpus runs, monitor_check walks no type node by node
    # (no types._intern call) on a step other than down_sl2 (the client's
    # linear view of the session it released, pinned once per body) or a
    # meet that mints, which starts a new graph: every other type it
    # judges is a pinned signature type or a body's subterm, found by
    # identity
    from sill import runtime, types
    walk, check, apply = types._intern, runtime.monitor_check, \
        runtime.apply_step
    state = {"rule": None, "in": False, "calls": 0}
    hit = []

    def counted_walk(g, t, body, at=-1):
        state["calls"] += state["in"]
        return walk(g, t, body, at)

    def noted_apply(cfg, step):
        env = cfg.env
        rec = apply(cfg, step)
        state["rule"] = step.rule if cfg.env is env else "mint"
        return rec

    def counted_check(cfg, touched=None, rule=None):
        state["in"], state["calls"] = True, 0
        try:
            return check(cfg, touched, rule)
        finally:
            state["in"] = False
            if touched is not None and state["calls"]:
                hit.append(state["rule"])

    monkeypatch.setattr(types, "_intern", counted_walk)
    monkeypatch.setattr(runtime, "apply_step", noted_apply)
    monkeypatch.setattr(runtime, "monitor_check", counted_check)
    steps = 0
    for stem in sorted(EXPECTED_STATUS):
        prog = by_stem(stem)
        for seed in range(4):
            r = run(prog, seed=seed, max_steps=300)
            assert r.violation is None
            steps += r.steps
    assert steps > 3000 and set(hit) <= {"down_sl2", "mint"}
    assert len(hit) <= 7  # once per view's body


def test_monitor_judgments_read_the_graph_memo(monkeypatch):
    # each corpus program run monitored twice on one Program: the second
    # run poses the judgments the first decided, on the same graph ids, so
    # the monitor judges every record through ssync_ids as often as in the
    # first run, never through a judgment on types, and walks no pair
    from sill import runtime, subtype, synchro
    hooks = ((runtime, "is_ssync"), (runtime, "is_subtype"),
             (runtime, "ssync_ids"), (synchro, "_ssync"), (subtype, "_sub"))
    calls = {name: 0 for _, name in hooks}

    def count(mod, name):
        f = getattr(mod, name, None)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(mod, name, counted, raising=False)

    for mod, name in hooks:
        count(mod, name)
    for stem in sorted(EXPECTED_STATUS):
        prog, judged = by_stem(stem), []
        for _ in range(2):
            calls.update(dict.fromkeys(calls, 0))
            r = run(prog, seed=3, max_steps=300)
            assert r.status == EXPECTED_STATUS[stem], r.violation
            judged.append(calls["ssync_ids"])
        assert calls == {"is_ssync": 0, "is_subtype": 0, "_ssync": 0,
                         "_sub": 0, "ssync_ids": judged[0]}, stem
        assert judged[0] > 0


def test_an_unmonitored_run_builds_no_type_graph():
    # the signature's types are pinned the first time the monitor judges
    # under an env: a run with the monitor off leaves the env without a
    # graph, and a monitored one pins every offer and parameter type
    from sill.types import unfold
    for stem in sorted(EXPECTED_STATUS):
        prog = by_stem(stem)
        prog.types.__dict__.pop("graph")  # built by the static check
        run(prog, monitor=False, max_steps=300)
        assert "graph" not in prog.types.__dict__
        run(prog, max_steps=300)
        g = prog.types.graph
        for d in prog.procs.defs:
            for t in (d.offer_ty, *(prm.ty for prm in d.params)):
                assert id(t) in g.ident and any(x is t for x in g.pinned)
                if isinstance(t, Ref):
                    assert g.ident[id(t)] == g.intern(unfold(prog.types, t))


def test_a_view_swapped_by_hand_fails_the_entrys_judgment():
    # between two steps, replace the view a client holds of a linear
    # entry, or of an alias, by a type that fails its judgment: the
    # entry's own check fails, though the graph's verdict memo holds the
    # entry's passed judgment, and the touched check reports what the
    # reference monitor does
    import random
    from itertools import islice
    from sill.runtime import _checker, _linear_fault
    from sill.types import unfold
    swapped = {Proc: 0, Connect: 0}
    for stem in sorted(EXPECTED_STATUS):
        for seed in range(2):
            prog = by_stem(stem)
            for cfg in islice(drive(prog, random.Random(seed).choice), 100):
                assert monitor_check(cfg, None) is None
                for e in list(cfg.theta):
                    u = cfg.user_of(e.chan)
                    if u is None:
                        continue
                    view = u.uses[e.chan]
                    bad = One() if isinstance(e, Connect) or not isinstance(
                        unfold(cfg.env, e.offer), One) else Tensor(One(), One())
                    u.uses[e.chan] = bad
                    assert _linear_fault(cfg, _checker(cfg), e).startswith(
                        "alias" if isinstance(e, Connect) else "linear")
                    # what a real step that changes u's view touches
                    touched = {e.chan, u.chan}
                    got = monitor_check(cfg, touched)
                    assert got is not None
                    assert got == reference_monitor(cfg, touched)
                    u.uses[e.chan] = view
                    assert monitor_check(cfg, touched) is None
                    swapped[type(e)] += 1
    assert swapped[Proc] > 200 and swapped[Connect] > 20


# --------------------------------------------------------------------------- #
# A predicted step needs no recheck
# --------------------------------------------------------------------------- #

# the exchange and spawn rules: each moves the processes it moves as the
# checker moves their contexts, and changes no other process's context
PREDICTED = {"one", "tensor", "tensor_s", "lolli", "lolli_s", "plus", "with",
             "val_out", "val_in", "up_ll", "down_ll",
             "spawn_ll", "spawn_ls", "spawn_ss"}
# the rules that overwrite an entry of Γ (a release) or forward a channel
# by renaming it
REWRITES = {"down_sl", "down_sl2", "fwd_ll", "fwd_ss"}


def _next_nodes(t):
    """The nodes one step of a process at the template node t can reach."""
    if isinstance(t, CaseRecv):
        return [b for _, b in t.branches]
    return [getattr(t, "cont", None)]


def stamped_run(prog, **kw):
    """run(prog, **kw), monitored, checking at every recheck that it reads
    a template's free names exactly where the reference below says it
    must: unless the step was an exchange or a spawn and the process's
    recheck last passed at its node, or at the node before it, with no
    release or forward since. Returns the run's result, its number of
    rechecks and the number that read free names."""
    from sill import runtime
    recheck, passes, apply = runtime._recheck, runtime._passes, \
        runtime.apply_step
    state = {"rule": None, "rewrites": 0, "passed": None}
    calls = dict.fromkeys(("rechecks", "names", "reads"), 0)
    last, inside = {}, []  # per process: (node, rewrites)

    class CountedFree(dict):
        # a recheck reads a template's free names from this table
        def __getitem__(self, node):
            calls["names"] += bool(inside)
            return dict.__getitem__(self, node)

    def noted_apply(cfg, step):
        state["rule"] = step.rule
        state["rewrites"] += step.rule in REWRITES
        return apply(cfg, step)

    def noted_passes(cfg, ck, p):
        state["passed"] = ok = passes(cfg, ck, p)
        return ok

    def checked_recheck(cfg, ck, p, *predicted):
        had = last.get(p)
        skip = state["rule"] in PREDICTED and had is not None \
            and had[1] == state["rewrites"] \
            and (p.tmpl is had[0] or any(
                p.tmpl is n for n in _next_nodes(had[0])))
        before, state["passed"] = calls["names"], None
        inside.append(p)
        v = recheck(cfg, ck, p, *predicted)
        inside.pop()
        read = calls["names"] > before
        assert read != skip, (state["rule"], p.chan)
        if skip or state["passed"]:
            last[p] = (p.tmpl, state["rewrites"])
        else:
            last.pop(p, None)
        calls["rechecks"] += 1
        calls["reads"] += read
        return v

    prog.procs.__dict__["free"] = CountedFree(prog.procs.free)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "apply_step", noted_apply)
        mp.setattr(runtime, "_passes", noted_passes)
        mp.setattr(runtime, "_recheck", checked_recheck)
        r = run(prog, **kw)
    return r, calls["rechecks"], calls["reads"]


# Relay forwards e to c while Main, the client of e, waits at its get:
# Main's next recheck, after the put, reads its free names again
RELAYED = (
    "type t = !int. 1\n"
    "proc Cell : () |- c: t = put c 1; close c\n"
    "proc Relay : (d: t) |- e: t = fwd e d\n"
    "proc Main : () |- x: 1 = c <- spawn Cell(); e <- spawn Relay(c); "
    "v <- get e; wait e; close x\n"
    "system { main Main(); }\n")


def test_a_predicted_step_is_not_rechecked():
    # after an exchange or a spawn, a process whose recheck last passed at
    # its node or at the node before it, with no release or forward since,
    # is not rechecked: its recheck reads no free names. Every other
    # recheck reads them, as every recheck did before stamps. Under fifo
    # the monitored wide program makes 215 rechecks in 126 steps, and 77
    # of them read free names; sixty clients of a queue that forwards
    # itself once per client make 842 in 480 steps, and 482 read them
    prog = check_program(parse_program(wide_source()))[1]
    r, rechecks, reads = stamped_run(prog, policy="fifo")
    assert r.status == RunStatus.ALL_POISED and r.steps == 126
    assert (rechecks, reads) == (215, 77)
    r, rechecks, reads = stamped_run(contention_prog(60),
                                     policy="fifo", max_steps=2000)
    assert r.status == RunStatus.ALL_POISED and r.steps == 480
    assert (rechecks, reads) == (842, 482)
    diags, prog = check_program(parse_program(RELAYED))
    assert diags == []
    r, rechecks, reads = stamped_run(prog, policy="fifo")
    assert r.status == RunStatus.ALL_POISED and r.steps == 5
    assert (rechecks, reads) == (10, 5)


def recheck_both_ways(prog, counts, **kw):
    """run(prog, **kw), monitored, with every recheck after a predicted
    step decided both ways: as the monitor decides it, where p's stamp may
    decide, and in full, with the stamp set aside; the two verdicts must
    be equal. A run that halts without progress ends there. counts takes
    the rechecks decided both ways ("both") and those of them a stamp
    decided ("stamped")."""
    from sill import runtime
    recheck, passes = runtime._recheck, runtime._passes
    full = []

    def noted_passes(cfg, ck, p):
        full.append(passes(cfg, ck, p))
        return full[-1]

    def both(cfg, ck, p, predicted=False):
        if not predicted:
            return recheck(cfg, ck, p)
        stamp = p.stamp
        full.clear()
        want = recheck(cfg, ck, p)
        p.stamp = stamp
        full.clear()
        got = recheck(cfg, ck, p, True)
        assert got == want, (p.chan, got, want)
        counts["both"] += 1
        counts["stamped"] += not full
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "_passes", noted_passes)
        mp.setattr(runtime, "_recheck", both)
        try:
            return run(prog, monitor=True, **kw)
        except ProgressError:
            return None


# A value spelt like a channel: P sends its own channel's name as an int,
# which Main then holds in v as a name for that channel. Decided in full,
# Main's recheck at its put has two names, v and a, for one linear
# channel, so it builds no memo key, and it passes; the stamp Main took at
# its get passes it at once.
VALUE_SPELT_AS_A_CHANNEL = (
    "type t = !int. ?int. 1\n"
    "proc P : () |- a: t = put a a; w <- get a; close a\n"
    "proc Main : () |- x: 1 = a <- spawn P(); v <- get a; put a v; "
    "wait a; close x\n"
    "system { main Main(); }\n")


def test_every_predicted_recheck_decides_as_in_full(monkeypatch):
    # the corpus at 6 seeds, the wide program under fifo and at random,
    # sixty clients of one queue, a value spelt like a channel, and every
    # ill-typed corpus mutant for as many steps as its pinned outcome. The
    # value spelt like a channel, and stuck's second acquire through a
    # name that its first binder's channel also stands for, reach rechecks
    # decided with no memo key
    from test_typecheck import _mutants
    counts = dict.fromkeys(("both", "stamped"), 0)
    unkeyed = unkeyed_checks(monkeypatch)
    diags, prog = check_program(parse_program(VALUE_SPELT_AS_A_CHANNEL))
    assert diags == []
    recheck_both_ways(prog, counts, policy="fifo")
    assert unkeyed
    for stem in sorted(EXPECTED_STATUS):
        for seed in range(6):
            unkeyed.clear()
            recheck_both_ways(by_stem(stem), counts, seed=seed,
                              max_steps=300)
            assert stem != "stuck" or unkeyed, seed
    for prog in (check_program(parse_program(wide_source()))[1],
                 contention_prog(60)):
        recheck_both_ways(prog, counts, policy="fifo", max_steps=2000)
        recheck_both_ways(prog, counts, seed=1, max_steps=2000)
    mutants = 0
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                recheck_both_ways(elab, counts, seed=0, max_steps=60)
                mutants += 1
    assert mutants > 1500
    assert counts["stamped"] > 0.5 * counts["both"] > 5000


def test_mutation_audit_finds_each_kind_of_bookkeeping():
    # tests/mutate.py's finder: every kind of statement it mutates is found
    # in runtime.py, each at the line and column that hold it; a mutant of
    # one is that file with the statement alone replaced by pass. The
    # killing runs take minutes and are left to CI
    import mutate
    source = (CORPUS.parent / mutate.RUNTIME).read_text()
    lines = source.splitlines()
    sites = mutate.find(source)
    marks = {"mark_providers": ".mark_providers(", "dirty": ".dirty.",
             "tail": ".tail = None", "touched": "rec.touched",
             "gamma": "rec.gamma", "epoch": ".epoch += 1",
             "stamp": ".stamp = ", "seed": "seeds.update("}
    assert {s.kind for s in sites} == set(mutate.KINDS) == set(marks)
    for s in sites:
        assert marks[s.kind] in s.text
        assert lines[s.line - 1][s.col:].startswith(s.text.splitlines()[0])
        cut = mutate.mutant(source, s).splitlines()
        assert cut[s.line - 1] == lines[s.line - 1][:s.col] + "pass" \
            + lines[s.end_line - 1][s.end_col:]
        assert cut[:s.line - 1] == lines[:s.line - 1]
        assert cut[s.line:] == lines[s.end_line:]
    # a tail drop is found only as its own statement
    with pytest.raises(ValueError, match="own statement"):
        mutate.find("def f(cfg):\n    cfg.stale, cfg.tail = False, None\n")
    # and so is a stamp write
    for chained in ("p.up = p.stamp = None", "p.up, p.stamp = None, None"):
        with pytest.raises(ValueError, match="own statement"):
            mutate.find(f"def f(p):\n    {chained}\n")


# --------------------------------------------------------------------------- #
# The monitor words a violation as the forced term's check does
# --------------------------------------------------------------------------- #

def forced_wording_run(prog, **kw):
    """run(prog, **kw), monitored, with every violation a recheck reports
    checked against the forced term: checking p.term() with ck.linear or
    ck.shared must fail, worded exactly so. A run that halts without
    progress ends there. Returns the violations so checked."""
    from sill import runtime
    from sill.typecheck import _Ck
    recheck, seen = runtime._recheck, []

    def checked(cfg, ck, p, *predicted):
        v = recheck(cfg, ck, p, *predicted)
        if v is not None:
            ref = _Ck(cfg.env, cfg.sig)
            assert (ref.shared(cfg.gamma, {}, p.term(), p.chan, p.offer)
                    if p.shared else ref.linear(
                        cfg.gamma, p.uses, {}, p.term(), p.chan, p.offer)) \
                is None
            assert v == f"process at {p.chan} no longer typechecks: " \
                + "; ".join(ref.diags)
            seen.append(v)
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "_recheck", checked)
        try:
            run(prog, **kw)
        except ProgressError:
            pass
    return seen


# Ill-typed programs whose failing action names a binder of its closure,
# where the check must number it in preorder as freshen does: in a case
# arm after arms that bind names, after a dead arm that binds one, in the
# losing arm of a repeated label, after accept or detach names the offer
# afresh, and in a spawn's arguments after a binder. Each fails at its
# initial recheck with the message given.
_SRC = ("type t = +{a: !int. 1, b: !int. 1}\n"
        "proc Src : () |- c: t = c.b; put c 1; close c\n")
_LOCK = ("type lock = up_s &{ping: down_s lock}\n"
         "proc Main : (sh k: lock) |- x: 1 = a <- acquire k; a.ping; "
         "s <- release a; close x\n")
MISNAMED = {
    _SRC + "proc Main : () |- x: 1 = c <- spawn Src(); case c { "
    "a => v <- get c; wait c; close x | b => w <- get c; wait w; close x }\n"
    "system { main Main(); }\n":
    "process at %g0 no longer typechecks: "
    "1L: wait needs a used linear channel, got %g3",
    "type t = +{b: !int. 1}\n"
    "proc Src : () |- c: t = c.b; put c 1; close c\n"
    "proc Main : () |- x: 1 = c <- spawn Src(); case c { "
    "a => v <- get c; wait c; close x | b => w <- get c; wait w; close x }\n"
    "system { main Main(); }\n":
    "process at %g0 no longer typechecks: "
    "1L: wait needs a used linear channel, got %g3",
    _SRC + "proc Main : () |- x: 1 = c <- spawn Src(); case c { "
    "a => v <- get c; wait c; close x | b => u <- get c; wait c; close x "
    "| b => w <- get c; wait w; close x }\n"
    "system { main Main(); }\n":
    "process at %g0 no longer typechecks: "
    "1L: wait needs a used linear channel, got %g4",
    _LOCK + "proc Lock : () |- k: lock = l <- accept k; "
    "case l { ping => close k }\n"
    "system { k <- spawn Lock(); main Main(k); }\n":
    "process at k no longer typechecks: "
    "1R: close must act on the offer %g0",
    _LOCK + "proc Lock : () |- k: lock = l <- accept k; "
    "case l { ping => s <- detach l; close s }\n"
    "system { k <- spawn Lock(); main Main(k); }\n":
    "process at k no longer typechecks: "
    "shared: action not available in a shared judgment: close %g1",
    "type t = !int. 1\n"
    "proc Src : () |- c: t = put c 1; close c\n"
    "proc Sink : (d: t) |- e: 1 = v <- get d; wait d; close e\n"
    "proc Main : () |- x: 1 = c <- spawn Src(); v <- get c; "
    "e <- spawn Sink(v); wait c; wait e; close x\n"
    "system { main Main(); }\n":
    "process at %g0 no longer typechecks: "
    "SP: unknown argument channel %g2",
}


def test_monitor_words_violations_as_the_forced_term():
    # every violation a recheck reports, on every ill-typed corpus mutant
    # at seeds 0-2 and on the programs above, is the forced term's failure
    # word for word
    from test_typecheck import _mutants
    for src, want in MISNAMED.items():
        diags, prog = check_program(parse_program(src))
        assert diags and forced_wording_run(prog, seed=0) == [want]
    flagged = 0
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                for seed in range(3):
                    flagged += len(forced_wording_run(elab, seed=seed,
                                                      max_steps=60))
    assert flagged > 4000  # 1 551 mutants, 4 623 violations

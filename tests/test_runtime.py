import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from sill.parser import parse_program
from sill.typecheck import check_program
from sill.runtime import (
    RunStatus, run, initial_config, enumerate_steps, apply_step,
    monitor_check, classify, Connect, Proc,
)
from sill.types import SharedC, BOT, TOP, Ref, One, Tensor
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
    """Step a configuration to quiescence, choose(steps) picking each step;
    yields the configuration after every step."""
    cfg = initial_config(prog)
    while steps := enumerate_steps(cfg):
        apply_step(cfg, choose(steps))
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
    sizes = []

    def checked_retopo(cfg):
        want = reference_order(cfg.theta)
        fast(cfg)
        assert [id(e) for e in cfg.theta] == [id(e) for e in want]
        sizes.append(len(want))

    monkeypatch.setattr(runtime, "_retopo", checked_retopo)
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
    assert max(sizes) > 25
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
        fast(cfg)
        want = reference_order(theta)
        assert [id(e) for e in cfg.theta] == [id(e) for e in want]


def test_order_and_steps_are_kept_by_deltas(monkeypatch):
    # a step whose new uses all point right leaves the order as it is, and
    # only the processes a step marked dirty recompute their step. The
    # wide program under fifo never re-sorts after its initial
    # configuration, and makes 211 calls to _enabled in 126 steps, where
    # recomputing every process at every step made 1840. On the corpus
    # the order does move, so the full pass still runs where it must.
    from sill import runtime
    calls = dict.fromkeys(("_kahn", "_enabled"), 0)
    for name in calls:
        def counted(*args, fn=getattr(runtime, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(runtime, name, counted)
    prog = check_program(parse_program(wide_source()))[1]
    steps = sum(1 for _ in drive(prog, lambda steps: steps[0]))
    assert steps == 126 and calls["_kahn"] == 1
    assert calls["_enabled"] < 5 * steps
    calls["_kahn"] = runs = 0
    for stem in sorted(EXPECTED_STATUS):
        for seed in (1, 2, 3):
            run(by_stem(stem), seed=seed, max_steps=300, monitor=False)
            runs += 1
    assert calls["_kahn"] > 2 * runs


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
        view, n = shared_view(cfg), cfg.names.n
        apply_step(cfg, steps[0])
        before = rebuilds[0]
        enumerate_steps(cfg)
        after = shared_view(cfg)
        if n == cfg.names.n and len(view) == len(after) and all(
                x is y for x, y in zip(view, after)):
            assert rebuilds[0] == before
            quiet += 1
    enumerations += 1
    assert enumerations == 127 and rebuilds[0] < 40 and quiet > 80


def test_retopo_matches_reference_order_where_ill_formed(monkeypatch):
    # the check of the uses made since a re-sort defers to the full pass
    # where it cannot decide: at two providers of one channel, a self-use,
    # a cycle and a self-use taken away. Checked after every step of each
    # ill-typed corpus mutant, run as --no-static would run it, and after
    # random changes made through Config's own methods, which reach those
    # shapes where the mutants do not
    import random
    from sill import runtime
    from sill.procast import ProcSignature
    from sill.types import TypeDefEnv
    from test_typecheck import _mutants
    fast = runtime._retopo
    seen = []

    def checked_retopo(cfg):
        want = reference_order(cfg.theta)
        fast(cfg)
        assert [id(e) for e in cfg.theta] == [id(e) for e in want]
        seen.append(cfg.ordered)

    monkeypatch.setattr(runtime, "_retopo", checked_retopo)
    passes = []
    monkeypatch.setattr(runtime, "_kahn", lambda cfg, kahn=runtime._kahn:
                        passes.append(kahn(cfg)))
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
    assert runs > 1500
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
                    chans.append(f"c{len(cfg.names.map) + 10}")
            was, n = cfg.ordered, len(passes)
            runtime._retopo(cfg)
            skipped += len(passes) == n
            recovered += cfg.ordered and not was
    # of 9000 re-sorts, 5331 leave an ill-formed order, 2729 skip the
    # full pass and 787 find the list well formed again
    assert seen.count(False) > 2000 and skipped > 1000 and recovered > 300


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


def test_gamma_check_reports_lost_and_raised_entries():
    from sill.runtime import _check_gamma_monotone
    cfg = initial_config(by_stem("auction"))
    for _ in range(150):
        before = dict(cfg.gamma)
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
        if set(rec.renames) & set(before):
            break
    # a shared forward: the forwarder's entry moves onto the surviving name
    assert rec.rule == "fwd_ss"
    assert _check_gamma_monotone(cfg, before, rec) is None
    # an entry that rises is reported
    old = next(iter(rec.renames))
    v = _check_gamma_monotone(cfg, {**before, old: BOT}, rec)
    assert v is not None and "evolved upward" in v
    # a shared channel losing its constraint is reported
    del cfg.gamma[rec.renames[old]]
    v = _check_gamma_monotone(cfg, before, rec)
    assert v is not None and "disappeared" in v


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

def reference_steps(cfg):
    """The enabled steps by one pass over the configuration, the first
    entry in the linear part winning where two offer or use a channel."""
    from sill.procast import Acquire, AcquireL, Accept, FwdLL, FwdLS, \
        FwdSS, Spawn
    from sill.runtime import Step, _PAIRS, _spawnable, _subject
    offered, client, acquirers = {}, {}, []
    for e in cfg.theta:
        offered.setdefault(e.chan, e)
        if isinstance(e, Proc):
            for c in e.uses:
                client.setdefault(c, e)
            if isinstance(e.term, (Acquire, AcquireL)):
                acquirers.append(e)
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
        t = cfg.lam[a].term
        if isinstance(t, FwdSS):
            steps.append(Step("fwd_ss", a))
        elif isinstance(t, Spawn) and _spawnable(cfg, t):
            steps.append(Step("spawn_ss", a))
        elif isinstance(t, Accept) and t.chan == a:
            for e in acquirers:
                if isinstance(e.term, Acquire) and e.term.chan == a:
                    steps.append(Step("up_sl", a, e.chan))
                elif isinstance(e.term, AcquireL):
                    tgt = offered.get(e.term.chan)
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
    from sill.runtime import _Ck, is_subtype, is_ssync, \
        SsyncPreconditionError
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
        if ck.linear(cfg.gamma, e.uses, {}, e.term, e.chan, e.offer) is None:
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
        if ck.shared(cfg.gamma, {}, p.term, a, p.offer) is None:
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


def audit(cfg, fresh):
    """What the runtime keeps, recomputed in one pass over theta and lam
    just after an enumeration: ranks rise along theta; where ordered is
    set, every use and every alias target is offered to the entry's right
    or outside the linear part; each live linear process's kept marker is
    its template where it waits to acquire, else its step, if any, from
    its forced term and its client's; stepping and steps hold the
    processes with a step and the steps, acquiring those waiting, in
    theta's order; a shared process is kept nowhere; the tail is the
    shared part's steps of the one-pass reference, and each direct
    acquire step in it is its acquirer's slot; and every judgment stamp
    holds (see audit_judgment_stamps, which keeps its fresh envs in
    fresh)."""
    from sill.procast import Acquire, AcquireL, FwdLL, FwdLS, Spawn
    from sill.runtime import Step, _PAIRS, _spawnable, SUBJECT

    def subject(t):
        f = SUBJECT.get(type(t))
        return None if f is None else getattr(t, f)

    assert not cfg.dirty and not cfg.stale
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
        a, t = e.chan, e.term
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
        elif subject(t) == a and u is not None and subject(u.term) == a:
            rule = _PAIRS.get((type(t), type(u.term)))
            if rule is not None and not (
                    rule == "plus" and t.label not in u.term.labels()
                    or rule == "with" and u.term.label not in t.labels()):
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
    audit_judgment_stamps(cfg, fresh)


def differential(prog, choose, max_steps, monitor, well_typed):
    """Step prog, checking after every step that the maintained indexes,
    the enabled steps, what enumeration keeps (see audit), the entries the
    touched monitor rechecks and its verdict agree with the one-pass
    references; a monitored run ends at its first violation. Returns the
    number of steps taken."""
    from sill.runtime import _check_gamma_monotone, _relevant
    cfg, fresh = initial_config(prog), {}
    if monitor and monitor_check(cfg, None) is not None:
        return 0
    for n in range(max_steps):
        assert tuple({k: {id(e) for e in v} for k, v in m.items()}
                     for m in (cfg.offered, cfg.client, cfg.aliases)) \
            == reference_indexes(cfg)
        steps = enumerate_steps(cfg)
        assert steps == reference_steps(cfg)
        audit(cfg, fresh)
        if not steps:
            return n
        before = dict(cfg.gamma)
        rec = apply_step(cfg, choose(steps))
        assert sorted(_relevant(cfg, rec.touched)) == sorted(
            id(e) for e in cfg.theta if e.chan in rec.touched
            or isinstance(e, Connect) and e.target in rec.touched)
        if not monitor:
            continue
        want = reference_monitor(cfg, rec.touched)
        assert monitor_check(cfg, rec.touched) == want
        if well_typed:
            assert want is None and monitor_check(cfg, None) is None
        if want is not None or _check_gamma_monotone(cfg, before, rec):
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
        waiting = sum(isinstance(e.term, (Acquire, AcquireL))
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
    # from a cold memo, within one monitored run, the share of rechecks
    # the signature's memo answers without checking a term: a miss checks
    # the template and records the context of its whole spine, so after a
    # well-typed step the next recheck is a lookup
    from sill import runtime
    from sill.typecheck import _Ck
    checks, hits = [0], []
    check, passes = _Ck.check, runtime._passes

    def counted_check(self, *args):
        checks[0] += 1
        return check(self, *args)

    def counted_passes(cfg, ck, p):
        before = checks[0]
        ok = passes(cfg, ck, p)
        hits.append(ok and checks[0] == before)
        return ok

    monkeypatch.setattr(_Ck, "check", counted_check)
    monkeypatch.setattr(runtime, "_passes", counted_passes)
    for stem in ("auction", "dd", "handoff"):
        hits.clear()
        r = run(by_stem(stem), seed=0, max_steps=300)
        assert r.status == RunStatus.MAX_STEPS and len(hits) > 500
        assert sum(hits) >= 0.9 * len(hits), (stem, sum(hits), len(hits))


# Programs in which free names of one template come to stand for one
# channel: a shared channel passed to two shared parameters, and two
# shared channels of which a forward renames one to the other. Either way,
# once Twice holds the session it acquired through one name, its other
# name stands for that session too, and the forced check decides.
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
    from sill import runtime
    forced = []
    passes = runtime._passes

    def counted_passes(cfg, ck, p):
        ok = passes(cfg, ck, p)
        forced.append(not ok)
        return ok

    monkeypatch.setattr(runtime, "_passes", counted_passes)
    for src in NAMES_MEET:
        diags, prog = check_program(parse_program(src))
        assert diags == []
        forced.clear()
        for _, choose in _choosers():
            assert differential(prog, choose, 100, True, True) > 5
        assert any(forced), src


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
    # context does not translate, and the forced check flags the term.
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    for _ in range(2):
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    b0, b1 = main.uses
    assert monitor_check(cfg, rec.touched) is None
    cfg.names.union(b1, b0)
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
    # each of its own time
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
    for _ in range(data.draw(st.integers(0, 8))):
        assert p.term == eager
        snaps.append((_record(p), " ".join(format_proc(eager).split())))
        # channels a forward or a message brings in: never a binder of
        # TERMS, which no runtime channel is either
        dead = set(cfg.names.map)
        live = [x for x in "qrstuvw" if x not in dead]
        free = sorted(x for x in scope(eager)[1] if x not in dead)
        choice = data.draw(st.sampled_from(("resume", "forward")))
        if choice == "forward" and free:
            b = data.draw(st.sampled_from(free))
            a = data.draw(st.sampled_from([x for x in live if x != b]
                                          or [None]))
            if a is None:
                continue
            cfg.names.union(b, a)
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
    assert p.term == eager
    for r, want in snaps:
        assert _trace_pred(r)["term"] == want


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
                                  or b in scope(e.term)[1])

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
    cfg.names.union("q", "elsewhere")
    assert "elsewhere" in format_proc(main.term)
    assert monitor_check(cfg, rec.touched) is not None


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
    m, forwards, chunks = cfg.names.map, 0, []
    gc.collect()
    for _ in range(8):
        t = process_time()
        for _ in range(4000):
            step = enumerate_steps(cfg)[0]
            forwards += step.rule.startswith("fwd_")
            apply_step(cfg, step)
        chunks.append(process_time() - t)
    assert forwards == 8000
    assert cfg.names.map is m and len(m) == cfg.names.n == forwards
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
    # every use) and 221 rechecks, each resolving a template's free names
    # (317 when the clients of every touched channel were rechecked too).
    from sill import runtime
    calls = dict.fromkeys(("_enabled", "rechecks", "walks", "names"), 0)
    enabled, passes = runtime._enabled, runtime._passes
    inside = []

    def counted_enabled(*args):
        calls["_enabled"] += 1
        return enabled(*args)

    class CountedFree(dict):
        # a recheck reads a template's free names from this table
        def __getitem__(self, node):
            calls["names"] += bool(inside)
            return dict.__getitem__(self, node)

    def counted_passes(cfg, ck, p):
        calls["rechecks"] += 1
        before = calls["names"]
        inside.append(p)
        ok = passes(cfg, ck, p)
        inside.pop()
        calls["walks"] += calls["names"] > before
        return ok

    monkeypatch.setattr(runtime, "_enabled", counted_enabled)
    monkeypatch.setattr(runtime, "_passes", counted_passes)
    prog = check_program(parse_program(wide_source()))[1]
    prog.procs.__dict__["free"] = CountedFree(prog.procs.free)
    r = run(prog, policy="fifo", max_steps=1000)
    assert r.status == RunStatus.ALL_POISED and r.steps == 126
    assert calls["_enabled"] < 2.5 * r.steps
    assert calls["rechecks"] < 2 * r.steps
    assert calls["walks"] < 2 * r.steps


def records(cfg):
    """Per linear entry, by id: the entry and what its monitor check reads
    besides Γ: its channel, its template, offer and uses or its alias
    target, and its client's view of its channel."""
    out = {}
    for e in cfg.theta:
        u = cfg.user_of(e.chan)
        own = (e.target,) if isinstance(e, Connect) \
            else (e.tmpl, e.offer, dict(e.uses))
        out[id(e)] = (e, e.chan, own, None if u is None else u.uses[e.chan])
    return out


def same_record(old, new, renames):
    """Whether the record new is old with its channels renamed: names
    compared by value, templates and types by identity."""
    def rn(c):
        return renames.get(c, c)
    (_, chan, own, view), (_, chan2, own2, view2) = old, new
    if rn(chan) != chan2 or view is not view2 or len(own) != len(own2):
        return False
    if len(own) == 1:
        return rn(own[0]) == own2[0]
    uses = {rn(c): t for c, t in own[2].items()}
    return own[0] is own2[0] and own[1] is own2[1] and \
        uses.keys() == own2[2].keys() and \
        all(uses[c] is own2[2][c] for c in uses)


def test_each_step_touches_every_record_it_changes():
    # the monitor rechecks only the entries offering a touched channel and
    # the aliases of one. That is exact where every entry a step makes, or
    # whose record or client's view it changes, is among them, a forward's
    # renaming aside: after every step of monitored runs of the corpus, the
    # wide program, the contention shape, the held forwards and every
    # ill-typed mutant, up to the first violation, it is. (Past one it
    # need not be: a process that closes its channel while it still holds
    # another drops the only client of that one.)
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
                relevant = _relevant(cfg, rec.touched)
                for k, r in records(cfg).items():
                    if k not in before or not same_record(before[k], r,
                                                          rec.renames):
                        assert k in relevant, (rec.rule, r)
                        changed += 1
                if _check_gamma_monotone(cfg, gamma, rec) is not None or \
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
    kept in the set memo, one per type env."""
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
                return False
            lin.add(r)
            x = y if r == chan else x
            if d is not None:
                delta[y] = d
            g = (r == chan, d, g)
        cls.append(g)
    if x is None or not lin.issuperset(uses):
        return False
    if (id(t), p.shared, p.offer, tuple(cls)) not in memo:
        out = []

        def record(node, gamma, delta, x, a, shared):
            out.append((id(node), shared, a, tuple(
                (y == x, delta.get(y), gamma.get(y)) if y == x or y in delta
                else gamma.get(y) for y in free[id(node)])))

        if (ck.shared(gam, {}, t, x, p.offer, record) if p.shared else
                ck.linear(gam, delta, {}, t, x, p.offer, record)) is None:
            return False
        memo.update(out)
    return True


def audit_judgment_stamps(cfg, fresh):
    """Every judgment stamp a live entry holds records a judgment that
    holds, decided again on a fresh graph of the stamp's env (fresh
    keeps one per env)."""
    from sill.subtype import is_subtype
    from sill.synchro import is_ssync
    from sill.types import TypeDefEnv
    for e in [*cfg.theta, *cfg.lam.values()]:
        s = e.judged
        if s is None:
            continue
        env = fresh.setdefault(id(s[-1]), (s[-1], TypeDefEnv(s[-1].defs)))[1]
        if isinstance(e, Connect):
            con, view, _ = s
            assert is_subtype(env, con.ty, view)
        else:
            a, b, d, _ = s
            assert is_subtype(env, a, b) and is_ssync(env, a, b, d)


def ids_differential(prog, choose, max_steps):
    """A monitored run of prog that checks, at the initial configuration
    and after every step, that _passes (graph ids) and
    reference_passes (types) agree on every linear and shared process,
    and that every judgment stamp holds. Ends at the first violation, as
    a monitored run does. Returns the verdicts of _passes."""
    from sill.runtime import _checker, _passes
    cfg, memos, fresh, verdicts = initial_config(prog), {}, {}, []
    v = monitor_check(cfg, None)
    for n in range(max_steps + 1):
        ck = _checker(cfg)
        memo = memos.setdefault(id(cfg.env), (cfg.env, set()))[1]
        for p in [*(e for e in cfg.theta if isinstance(e, Proc)),
                  *cfg.lam.values()]:
            want = reference_passes(cfg, ck, p, memo)
            assert _passes(cfg, ck, p) == want
            verdicts.append(want)
        audit_judgment_stamps(cfg, fresh)
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
    # on monitored corpus runs, monitor_check makes no TypeGraph._node
    # call on a step other than down_sl2 (the client's linear view of the
    # session it released, pinned once per body) or a meet that mints,
    # which starts a new graph: every other type it judges is a pinned
    # signature type or a body's subterm, found by identity
    from sill import runtime
    from sill.types import TypeGraph
    node, check, apply = TypeGraph._node, runtime.monitor_check, \
        runtime.apply_step
    state = {"rule": None, "in": False, "calls": 0}
    hit = []

    def counted_node(self, t, body):
        state["calls"] += state["in"]
        return node(self, t, body)

    def noted_apply(cfg, step):
        env = cfg.env
        rec = apply(cfg, step)
        state["rule"] = step.rule if cfg.env is env else "mint"
        return rec

    def counted_check(cfg, touched=None):
        state["in"], state["calls"] = True, 0
        try:
            return check(cfg, touched)
        finally:
            state["in"] = False
            if touched is not None and state["calls"]:
                hit.append(state["rule"])

    monkeypatch.setattr(TypeGraph, "_node", counted_node)
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


def test_judgment_stamps_see_a_view_swapped_by_hand():
    # between two steps, replace the view a client holds of a linear
    # entry, or of an alias, by a type that fails its judgment: the
    # entry's judgment stamp no longer matches, so the entry's own check
    # fails, and the touched check reports what the reference monitor does
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
                    if u is None or e.judged is None:
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

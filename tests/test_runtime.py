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
from test_procast import TERMS, NAMES


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
    # configuration, and makes 535 calls to _enabled in 126 steps, where
    # revalidating every process at every step made 1840. On the corpus
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


def differential(prog, choose, max_steps, monitor, well_typed):
    """Step prog, checking after every step that the maintained indexes,
    the enabled steps, the entries the touched monitor rechecks and its
    verdict agree with the one-pass references; a monitored run ends at
    its first violation. Returns the number of steps taken."""
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
        if not steps:
            return n
        before = dict(cfg.gamma)
        rec = apply_step(cfg, choose(steps))
        assert sorted(_relevant(cfg, rec.touched)) == sorted(
            id(e) for e in cfg.theta if reference_relevant(e, rec.touched))
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
        SendLabel, SendVal, substitute
    if isinstance(t, CaseRecv):
        return t.branch(msg)
    if isinstance(t, (Wait, SendChan, SendChanS, SendLabel, SendVal)):
        return t.cont
    return substitute(t.cont, {t.binder: msg})


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
        FIELDS, BINDER, ProcDef, ProcSignature, freshen, substitute, scope,
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
            eager = substitute(eager, {b: a})
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


def test_forward_keeps_other_templates_and_step_memos():
    # a forward renames one channel through the name-resolution map, so an
    # entry that mentions it nowhere, and whose client does not either,
    # keeps its template object and its step memo, unrecomputed
    import random
    from sill.procast import scope
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    choose = random.Random(0).choice
    forwards = kept = 0

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
        before = [(e, e.tmpl, e.step_memo) for e in cfg.theta
                  if isinstance(e, Proc) and e is not p
                  and e.step_memo is not None and not mentions(e, b)
                  and not mentions(cfg.user_of(e.chan), b)]
        rec = apply_step(cfg, step)
        assert b in rec.renames
        enumerate_steps(cfg)
        for e, tmpl, memo in before:
            assert e.tmpl is tmpl and e.step_memo is memo
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
    # a step of a Batch leaves Main's context as it was, so Main's recheck
    # is a stamp hit that resolves none of its free names; and a resume
    # marks dirty only the providers at the resumed process's subject
    # before and after it, not those of every channel it uses. Under fifo
    # the monitored wide program makes 244 calls to _enabled in 126 steps
    # (535 when a resume marked every use), and 220 of its 317 rechecks
    # resolve a template's free names (all 317 without the stamp).
    from sill import runtime
    calls = dict.fromkeys(("_enabled", "rechecks", "walks", "names"), 0)
    enabled, passes, name = runtime._enabled, runtime._passes, Proc.name
    inside = []

    def counted_enabled(*args):
        calls["_enabled"] += 1
        return enabled(*args)

    def counted_name(self, x):
        calls["names"] += bool(inside)
        return name(self, x)

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
    monkeypatch.setattr(Proc, "name", counted_name)
    prog = check_program(parse_program(wide_source()))[1]
    r = run(prog, policy="fifo", max_steps=1000)
    assert r.status == RunStatus.ALL_POISED and r.steps == 126
    assert calls["_enabled"] < 2.5 * r.steps
    assert calls["rechecks"] > 2 * r.steps
    assert calls["walks"] < 2 * r.steps


def stamp_differential(prog, choose, max_steps):
    """Step prog under the monitor, checking after every step that the
    touched check gives the same verdict and message with every process's
    recheck stamp kept as with every one cleared; the stamps are then put
    back, so they age as in a run. Ends at the first violation. Returns the
    verdicts."""
    cfg = initial_config(prog)
    if monitor_check(cfg, None) is not None:
        return []
    verdicts = []
    for _ in range(max_steps):
        steps = enumerate_steps(cfg)
        if not steps:
            break
        rec = apply_step(cfg, choose(steps))
        procs = [e for e in cfg.theta if isinstance(e, Proc)]
        procs += cfg.lam.values()
        kept = monitor_check(cfg, rec.touched)
        stamps = [p.stamp for p in procs]
        for p in procs:
            p.stamp = None
        assert monitor_check(cfg, rec.touched) == kept
        for p, s in zip(procs, stamps):
            p.stamp = s
        verdicts.append(kept)
        if kept is not None:
            break
    return verdicts


def test_recheck_stamps_keep_every_verdict(monkeypatch):
    # the corpus at five seeds, the wide program under fifo and at random,
    # and every ill-typed corpus mutant for as many steps as its pinned
    # outcome: a recheck stamp decides only what the key path would
    import random
    from sill import runtime
    from test_typecheck import _mutants
    hits = [0]
    passes = runtime._passes

    def counted_passes(cfg, ck, p):
        s = p.stamp
        ok = passes(cfg, ck, p)
        hits[0] += ok and s is not None and p.stamp is s
        return ok

    monkeypatch.setattr(runtime, "_passes", counted_passes)
    verdicts = []
    for stem in sorted(EXPECTED_STATUS):
        for seed in range(5):
            verdicts += stamp_differential(
                by_stem(stem), random.Random(seed).choice, 300)
    wide = check_program(parse_program(wide_source()))[1]
    for choose in (lambda steps: steps[0], random.Random(0).choice):
        verdicts += stamp_differential(wide, choose, 300)
    assert verdicts and not any(verdicts) and hits[0] > 1000
    for path in CORPUS_FILES:
        for mutant in _mutants(parse_program(path.read_text())):
            diags, elab = check_program(mutant)
            if diags and mutant.system is not None:
                verdicts += stamp_differential(
                    elab, random.Random(0).choice, 60)
    assert sum(v is not None for v in verdicts) > 700


# Main is the client of both cells and acts on c0 alone before c1
TWO_CELLS = (
    "type cell = !int. 1\n"
    "proc Cell : () |- c: cell = put c 1; close c\n"
    "proc Main : () |- x: 1 = c0 <- spawn Cell(); c1 <- spawn Cell(); "
    "v0 <- get c0; wait c0; v1 <- get c1; wait c1; close x\n"
    "system { main Main(); }\n"
)


def test_provider_keeps_its_step_memo_while_its_client_acts_elsewhere():
    # c1's step reads Main only where Main acts on c1: while Main gets from
    # and waits on c0, c1 is not marked dirty and keeps its memo object;
    # once Main's next action names c1, c1's step is recomputed
    diags, prog = check_program(parse_program(TWO_CELLS))
    assert diags == []
    cfg = initial_config(prog)
    for _ in range(2):
        apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    c0, c1 = main.uses
    cell = cfg.provider(c1)
    assert enumerate_steps(cfg) == reference_steps(cfg)
    memo = cell.step_memo
    assert memo[8] is None
    for rule in ("val_out", "one"):
        steps = enumerate_steps(cfg)
        assert [(s.rule, s.provider) for s in steps] == [(rule, c0)]
        apply_step(cfg, steps[0])
        assert (cell not in cfg.dirty) == (rule == "val_out")
        assert enumerate_steps(cfg) == reference_steps(cfg)
        assert (cell.step_memo is memo) == (rule == "val_out")
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
    # besides what the signature's memo keys on, the stamp holds the
    # process's channel: Main's recheck passes and stamps it, and Main
    # moved to another channel is rechecked and flagged at once
    prog = check_program(parse_program(wide_source()))[1]
    cfg = initial_config(prog)
    for _ in range(2):
        rec = apply_step(cfg, enumerate_steps(cfg)[0])
    main = cfg.theta[0]
    assert monitor_check(cfg, rec.touched) is None
    assert main.stamp is not None
    chan = main.chan
    main.chan = "elsewhere"
    assert monitor_check(cfg, rec.touched) is not None
    main.chan = chan
    assert monitor_check(cfg, rec.touched) is None

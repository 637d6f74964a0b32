"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line (run with -s or -v to see them).

The stated lemma that shrinking the obligation preserves synchronization
(dsync_smaller_hat) is false for this system: an acquire point demands an
unconstrained channel, and a release point cannot discharge a strictly
smaller obligation. Criterion 5b checks that refutation exactly: the
smallest counterexample fails, and on every sampled shrink the judgment
holds precisely when no acquire or release point depends on the
obligation.
"""

import io
import random
import time

import pytest

from sill.parser import parse_program
from sill.printer import format_program
from sill.typecheck import check_program
from sill.subtype import is_subtype, bounded_oracle, exact_bound
from sill.synchro import is_ssync, is_esync, cleq, meet
from sill.runtime import RunStatus, run, initial_config, enumerate_steps, \
    apply_step, monitor_check, Proc
from sill.types import (
    Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL, ValIn,
    ValOut, Ref, SharedC, BOT, TOP, unfold,
)

from conftest import CORPUS_FILES
from gen import gen_env, gen_linear_type, gen_constraint, widen


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def checked(stem: str):
    path = next(p for p in CORPUS_FILES if p.stem == stem)
    diags, prog = check_program(parse_program(path.read_text()))
    assert diags == [], diags
    return prog


def all_checked():
    return {p.stem: checked(p.stem) for p in CORPUS_FILES}


def test_criterion_1_subtyping_verdicts(corpus):
    qenv = corpus["queue"].types
    aenv = corpus["auction"].types
    denv = corpus["dd"].types
    cases = [
        (qenv, "shared_queue", "producer", True),
        (qenv, "shared_queue", "consumer", True),
        (qenv, "producer", "shared_queue", False),
        (qenv, "consumer", "shared_queue", False),
        (aenv, "auction", "bidding_ll", True),
        (aenv, "auction", "collecting_ll", True),
        (aenv, "bidding_ll", "auction", False),
        (aenv, "collecting_ll", "auction", False),
        (denv, "dd", "dd_start", True),
        (denv, "dd_start", "dd", False),
    ]
    ok = True
    for env, a, b, want in cases:
        ra, rb = Ref(a), Ref(b)
        got = is_subtype(env, ra, rb)
        cross = bounded_oracle(env, ra, rb, exact_bound(env, ra, rb))
        if got != want or cross != want:
            ok = False
    report("criterion 1: reference subtyping verdicts", ok)


def test_criterion_2_synchronization_verdicts(corpus):
    aenv = corpus["auction"].types
    ienv = corpus["ignore"].types
    ok = (
        is_esync(aenv, Ref("auction"))
        and not is_esync(aenv, Ref("bidding_shared"))
        and not is_esync(aenv, Ref("collecting_shared"))
        and is_ssync(ienv, Ref("ignore_provider"), Ref("ignore_client"))
        and not is_esync(ienv, Ref("ignore_provider"))
    )
    report("criterion 2: reference synchronization verdicts", ok)


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260824)
    envs = 0
    pairs = 0
    ok = True
    while envs < 500:
        env = gen_env(rng)
        envs += 1
        lnames = [d.name for d in env.defs if d.modality == "linear"]
        cand = [Ref(n) for n in lnames]
        cand.append(gen_linear_type(rng, env))
        for _ in range(8):
            a, b = rng.choice(cand), rng.choice(cand)
            pairs += 1
            d = exact_bound(env, a, b)
            if is_subtype(env, a, b) != bounded_oracle(env, a, b, d):
                ok = False
    report("criterion 3: oracle agreement at the exact bound", ok,
           f"{envs} environments, {pairs} pairs")


def test_criterion_4_meet_is_glb():
    rng = random.Random(4)
    checked_pairs = 0
    bad = 0
    while checked_pairs < 200:
        env = gen_env(rng)
        for _ in range(4):
            c, d = gen_constraint(rng, env), gen_constraint(rng, env)
            m, env2 = meet(env, c, d)
            checked_pairs += 1
            if not (cleq(env2, m, c) and cleq(env2, m, d)):
                bad += 1
                continue
            snames = [x.name for x in env.defs if x.modality == "shared"]
            lowers = [BOT, c, d] + [SharedC(Ref(n)) for n in snames]
            for e in lowers:
                if cleq(env2, e, c) and cleq(env2, e, d) \
                        and not cleq(env2, e, m):
                    bad += 1
                    break
    report("criterion 4: meet is a greatest lower bound", bad == 0,
           f"{checked_pairs} pairs, {bad} counterexamples")


def _sampled_premises(rng, want: int, needs_two_constraints: bool):
    """Yield (env, a, b, constraints...) with a <= b and the first
    synchronization premise true, until `want` instances are produced."""
    made = 0
    while made < want:
        env = gen_env(rng)
        a = gen_linear_type(rng, env)
        b = widen(rng, env, a)
        if not is_subtype(env, a, b):
            continue
        c = gen_constraint(rng, env)
        if not is_ssync(env, a, b, c):
            continue
        if needs_two_constraints:
            d = gen_constraint(rng, env)
            if not is_ssync(env, a, b, d):
                continue
            yield env, a, b, c, d
        else:
            yield env, a, b, c
        made += 1


def test_criterion_5_dsync_bigger():
    rng = random.Random(51)
    n = 0
    bad = 0
    for env, a, b, d in _sampled_premises(rng, 100, False):
        c = widen(rng, env, b)
        if not is_subtype(env, b, c):
            continue
        n += 1
        # widening the client view preserves synchronization
        if not is_ssync(env, a, c, d):
            bad += 1
    report("criterion 5a: obligation survives a bigger client view",
           bad == 0, f"{n} instances, {bad} counterexamples")


def _shrink_blockers(env, a, b, c, d):
    """Shift points that make (a, b) synchronize under c but not under d.

    Walks a and b in lockstep along the branches both sides can take, up
    to the first acquire or release on each path: past that point the
    obligation is replaced, so c and d lead to the same judgment there.
    The purely linear shifts pass the obligation through. An acquire
    blocks when c is unconstrained and d is not; a release at S blocks
    when hat(S) <= c but not hat(S) <= d.
    """
    blockers = []
    assumed = set()
    todo = [(a, b)]
    while todo:
        pair = todo.pop()
        if pair in assumed:
            continue
        assumed.add(pair)
        ua, ub = unfold(env, pair[0]), unfold(env, pair[1])
        match (ua, ub):
            case (UpSL(), UpSL() | UpLL()):
                if c == TOP and d != TOP:
                    blockers.append(("acquire", pair[0]))
            case (DownSL(s), DownSL() | DownLL()):
                if cleq(env, SharedC(s), c) and not cleq(env, SharedC(s), d):
                    blockers.append(("release", s))
            case (IChoice(), IChoice()) | (EChoice(), EChoice()):
                for l in set(ua.labels()) & set(ub.labels()):
                    todo.append((ua.branch(l), ub.branch(l)))
            case ((Tensor(_, x), Tensor(_, y)) | (Lolli(_, x), Lolli(_, y))
                  | (UpLL(x), UpLL(y)) | (DownLL(x), DownLL(y))
                  | (ValIn(_, x), ValIn(_, y)) | (ValOut(_, x), ValOut(_, y))):
                todo.append((x, y))
    return blockers


def test_criterion_5_dsync_smaller_hat(corpus):
    # the lemma as stated: if (A, B, c) ssync and d <= c then (A, B, d)
    # ssync. It is false; this pins the refutation. Smallest one: A = B =
    # the shared queue type, c = no-obligation, d = never-available.
    qenv = corpus["queue"].types
    sq = Ref("shared_queue")
    smallest = (is_ssync(qenv, sq, sq, TOP)
                and not is_ssync(qenv, sq, sq, BOT)
                and _shrink_blockers(qenv, sq, sq, TOP, BOT)
                == [("acquire", sq)])
    # the restricted lemma: every sampled shrink keeps the judgment
    # exactly when no shift point blocks it
    rng = random.Random(52)
    n = 0
    bad = 0
    disagree = 0
    for env, a, b, c in _sampled_premises(rng, 150, False):
        d = gen_constraint(rng, env)
        if not cleq(env, d, c):
            continue
        n += 1
        blocked = bool(_shrink_blockers(env, a, b, c, d))
        bad += blocked
        if is_ssync(env, a, b, d) == blocked:
            disagree += 1
    report("criterion 5b: obligation shrinks exactly where no acquire or "
           "release depends on it", smallest and disagree == 0,
           f"{n} instances, {bad} counterexamples, "
           f"{disagree} verdicts against the witness")


def test_criterion_5_dsync_meet():
    rng = random.Random(53)
    n = 0
    bad = 0
    for env, a, b, c, d in _sampled_premises(rng, 100, True):
        m, env2 = meet(env, c, d)
        n += 1
        if not is_ssync(env2, a, b, m):
            bad += 1
    report("criterion 5c: obligations compose by meet",
           bad == 0, f"{n} instances, {bad} counterexamples")


def test_criterion_6_preservation_100_seeds():
    progs = all_checked()
    t0 = time.monotonic()
    violations = []
    for stem, prog in sorted(progs.items()):
        for seed in range(100):
            r = run(prog, seed=seed, max_steps=300, monitor=True)
            if r.status == RunStatus.MONITOR_VIOLATION:
                violations.append((stem, seed, r.violation))
    elapsed = time.monotonic() - t0
    report("criterion 6: monitored preservation across the corpus",
           not violations and elapsed < 60.0,
           f"{len(progs) * 100} runs, {len(violations)} violations, "
           f"{elapsed:.1f}s")


def test_criterion_7_progress_trichotomy():
    progs = all_checked()
    halted_ok = True
    for stem, prog in sorted(progs.items()):
        for seed in range(25):
            r = run(prog, seed=seed, max_steps=300)
            if r.status != RunStatus.MAX_STEPS and r.status not in (
                    RunStatus.ALL_POISED, RunStatus.STUCK_ACQUIRE):
                halted_ok = False
    stuck_ok = all(
        run(progs["stuck"], seed=s).status == RunStatus.STUCK_ACQUIRE
        for s in range(100))
    queue_ok = all(
        run(progs["queue"], seed=s).status == RunStatus.ALL_POISED
        for s in range(100))
    report("criterion 7: progress trichotomy",
           halted_ok and stuck_ok and queue_ok)


def test_criterion_8_determinism_and_round_trip():
    progs = all_checked()
    deterministic = True
    for stem, prog in sorted(progs.items()):
        for seed in (0, 13):
            traces = []
            for _ in range(2):
                buf = io.StringIO()
                run(prog, seed=seed, max_steps=150, trace=buf)
                traces.append(buf.getvalue().encode())
            if traces[0] != traces[1]:
                deterministic = False
    fixed_point = True
    for path in CORPUS_FILES:
        once = format_program(parse_program(path.read_text()))
        if format_program(parse_program(once)) != once:
            fixed_point = False
    report("criterion 8: trace determinism and formatter fixed point",
           deterministic and fixed_point)


def test_criterion_9_negative_injection():
    # drive a run to the point where an acquired session sits in the
    # linear part with its Γ entry, then rewrite its release obligation to
    # an unrelated shared type: the provider is now bound to release at
    # the wrong type and the monitor must say so, checking what the step
    # touched
    prog = checked("ignore")
    cfg = initial_config(prog)
    flagged = False
    for _ in range(50):
        steps = enumerate_steps(cfg)
        if not steps:
            break
        rec = apply_step(cfg, steps[0])
        acquired = [e.chan for e in cfg.theta
                    if isinstance(e, Proc) and e.chan in cfg.gamma]
        if acquired:
            cfg.gamma[acquired[0]] = SharedC(Ref("other"))
            v = monitor_check(cfg, rec.touched)
            flagged = v is not None and \
                v.endswith("under its release obligation")
            break
    # a still-available shared session's constraint is checked as well
    cfg = initial_config(prog)
    shared = next(iter(cfg.lam))
    cfg.gamma[shared] = SharedC(Ref("other"))
    flagged_shared = monitor_check(cfg, {shared}) is not None
    report("criterion 9: wrong-type release triggers a violation",
           flagged and flagged_shared)

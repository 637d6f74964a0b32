import random

import pytest
from hypothesis import given, settings, strategies as st

from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, TypeDef, TypeDefEnv, SHARED, LINEAR,
    BOT, TOP, SharedC, TypeError_, Top, Bot, unfold, type_names,
    validate_env,
)
from sill.parser import parse_program
from sill.subtype import is_subtype
from sill.synchro import (
    SsyncPreconditionError, cleq, cleq_type, is_ssync, is_esync,
    meet, meet_types,
)

from gen import gen_env, gen_constraint
from test_subtype import reference_sub, with_aliases, related_pairs, \
    copy_type


SQ = TypeDefEnv((
    TypeDef("queue", LINEAR, EChoice((
        ("enqueue", ValIn("int", DownSL(Ref("shared_queue")))),
    ))),
    TypeDef("shared_queue", SHARED, UpSL(Ref("queue"))),
))


def test_cleq_type():
    assert cleq_type(SQ, BOT, One())
    assert not cleq_type(SQ, TOP, One())
    assert cleq_type(SQ, SharedC(Ref("shared_queue")), Ref("shared_queue"))


def test_precondition_requires_subtype():
    with pytest.raises(SsyncPreconditionError):
        is_ssync(TypeDefEnv(), One(), Tensor(One(), One()))


def test_unit_ssync():
    assert is_ssync(TypeDefEnv(), One(), One(), TOP)
    # no release point is ever reached, so any obligation is fine
    assert is_ssync(TypeDefEnv(), One(), One(), BOT)


def test_acquire_needs_unconstrained_channel():
    sq = Ref("shared_queue")
    assert is_ssync(SQ, sq, sq, TOP)
    assert not is_ssync(SQ, sq, sq, BOT)
    assert not is_ssync(SQ, sq, sq, SharedC(sq))


def test_release_checks_obligation_then_resets():
    # release at shared_queue satisfies the obligation recorded at acquire
    assert is_esync(SQ, Ref("shared_queue"))
    # an obligation at an unrelated type refutes the release point
    env = SQ.extend(TypeDef("other", SHARED, UpSL(One())))
    a = DownSL(Ref("shared_queue"))
    assert not is_ssync(env, a, a, SharedC(Ref("other")))
    # a dead obligation can never be discharged at a release point
    assert not is_ssync(env, a, a, BOT)


def test_ignored_branch(corpus):
    env = corpus["ignore"].types
    assert is_ssync(env, Ref("ignore_provider"), Ref("ignore_client"))
    assert not is_esync(env, Ref("ignore_provider"))
    assert is_esync(env, Ref("ignore_client"))


def test_auction_esync(corpus):
    env = corpus["auction"].types
    assert is_esync(env, Ref("auction"))
    assert not is_esync(env, Ref("bidding_shared"))
    assert not is_esync(env, Ref("collecting_shared"))


def test_phased_views_ssync(corpus):
    env = corpus["auction"].types
    assert is_ssync(env, Ref("auction"), Ref("bidding_ll"))
    assert is_ssync(env, Ref("auction"), Ref("collecting_ll"))


def test_linear_shifts_pass_obligation_through():
    # the purely linear shifts neither check nor reset the obligation
    b = UpLL(DownLL(One()))
    assert is_ssync(SQ, b, b, BOT)
    assert is_ssync(SQ, b, b, TOP)
    assert is_ssync(SQ, b, b, SharedC(Ref("shared_queue")))


# --------------------------------------------------------------------------- #
# Meet
# --------------------------------------------------------------------------- #

def test_meet_lattice_units():
    sq = SharedC(Ref("shared_queue"))
    assert meet(SQ, TOP, sq)[0] == sq
    assert meet(SQ, sq, TOP)[0] == sq
    assert meet(SQ, BOT, sq)[0] == BOT
    assert meet(SQ, TOP, TOP)[0] == TOP


def test_meet_equal_shared():
    sq = SharedC(Ref("shared_queue"))
    m, env = meet(SQ, sq, sq)
    assert m == sq and env == SQ
    # nothing minted: the caller's env, and with it its memo, comes back
    assert meet(SQ, sq, sq)[1] is SQ


def test_meet_echoice_union():
    a = EChoice((("a", One()),))
    b = EChoice((("b", One()),))
    m, _ = meet_types(TypeDefEnv(), a, b)
    assert isinstance(m, EChoice)
    assert set(m.labels()) == {"a", "b"}


def test_meet_ichoice_intersection():
    a = IChoice((("a", One()), ("b", One())))
    b = IChoice((("b", One()), ("c", One())))
    m, _ = meet_types(TypeDefEnv(), a, b)
    assert isinstance(m, IChoice)
    assert set(m.labels()) == {"b"}


def test_meet_ichoice_empty_is_bottom():
    a = IChoice((("a", One()),))
    b = IChoice((("b", One()),))
    m, _ = meet_types(TypeDefEnv(), a, b)
    assert m is None
    assert meet(TypeDefEnv(), SharedC(UpSL(a)), SharedC(UpSL(b)))[0] == BOT


def test_meet_lolli_payload_joins():
    small = IChoice((("a", One()),))
    big = IChoice((("a", One()), ("b", One())))
    m, env = meet_types(TypeDefEnv(), Lolli(small, One()), Lolli(big, One()))
    # the meet must be below both, so its payload is the join (the wider
    # internal choice here)
    assert is_subtype(env, m, Lolli(small, One()))
    assert is_subtype(env, m, Lolli(big, One()))


def test_meet_shift_dominance():
    m, _ = meet_types(TypeDefEnv(), UpSL(One()), UpLL(One()))
    assert m == UpSL(One())
    m, _ = meet_types(TypeDefEnv(), DownLL(UpSL(One())), DownSL(UpSL(One())))
    assert m == DownSL(UpSL(One()))


def test_meet_recursive_mints_definitions():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, IChoice((("x", Ref("a")), ("y", One())))),
        TypeDef("b", LINEAR, IChoice((("x", Ref("b")), ("z", One())))),
    ))
    m, env2 = meet_types(env, Ref("a"), Ref("b"))
    assert m is not None
    assert is_subtype(env2, m, Ref("a"))
    assert is_subtype(env2, m, Ref("b"))


def test_meet_failure_rolls_back_minted_definitions():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, Tensor(Ref("a"), One())),
        TypeDef("b", LINEAR, Tensor(Ref("b"), EChoice((("x", One()),)))),
    ))
    m, env2 = meet_types(env, Ref("a"), Ref("b"))
    assert m is None
    # nothing minted during the failed derivation leaks out
    assert env2 == env


def test_meet_rolls_back_a_nested_mint_of_a_dropped_branch():
    # branch a meets p with q, minting the meet of p2 and q2 inside it
    # before p3 and q3 fail: the branch is dropped, and the nested name
    # rolled back with it, so branch b mints the meet of p2 and q2 again
    # and every name in the result is defined in the returned env
    from test_cli import MEET_DROPS
    env = parse_program(MEET_DROPS).types
    m, env2 = meet_types(env, Ref("pp"), Ref("qq"))
    new = env2.defs[len(env.defs):]
    assert m == Ref("Meet0") and [d.name for d in new] == ["Meet0", "Meet4"]
    assert all(n in env2 for d in new for n in type_names(d.body))
    assert validate_env(env2) == []
    assert is_subtype(env2, m, Ref("pp")) and is_subtype(env2, m, Ref("qq"))


def test_meet_rejects_a_cycle_of_names():
    # a = b, b = a has no structure to meet; unfolding must not loop
    env = TypeDefEnv((TypeDef("a", LINEAR, Ref("b")),
                      TypeDef("b", LINEAR, Ref("a"))))
    with pytest.raises(TypeError_, match="non-contractive cycle"):
        meet_types(env, Ref("a"), Ref("b"))


def test_meet_is_glb_on_corpus_views(corpus):
    env = corpus["auction"].types
    c = SharedC(Ref("auction"))
    for other_name in ("auction", "bidding_shared"):
        d = SharedC(Ref(other_name))
        m, env2 = meet(env, c, d)
        assert cleq(env2, m, c) and cleq(env2, m, d)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_meet_lower_bound_property(seed):
    rng = random.Random(seed)
    env = gen_env(rng)
    c, d = gen_constraint(rng, env), gen_constraint(rng, env)
    m, env2 = meet(env, c, d)
    assert cleq(env2, m, c)
    assert cleq(env2, m, d)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_meet_greatest_property(seed):
    rng = random.Random(seed)
    env = gen_env(rng)
    c, d = gen_constraint(rng, env), gen_constraint(rng, env)
    m, env2 = meet(env, c, d)
    e = gen_constraint(rng, env)
    if cleq(env2, e, c) and cleq(env2, e, d):
        assert cleq(env2, e, m)


# --------------------------------------------------------------------------- #
# Differential: the decision on types, as it was before the type graph
# --------------------------------------------------------------------------- #

def reference_cleq(env, c, d, memo):
    match (c, d):
        case (Bot(), _) | (_, Top()):
            return True
        case (SharedC(a), SharedC(b)):
            return reference_sub(env, a, b, memo)
    return False


def reference_ssync(env, a, b, d, memo, assumed=None):
    """Subsynchronization on SessionTypes, unfolding names per goal, with
    its verdict memo passed in (shared with reference_sub's, as the keys
    differ in length)."""
    if assumed is None:
        if not reference_sub(env, a, b, memo):
            raise SsyncPreconditionError
        if (a, b, d) not in memo:
            memo[a, b, d] = reference_ssync(env, a, b, d, memo, set())
        return memo[a, b, d]
    key = (a, b, d)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if key in assumed:
        return True
    assumed.add(key)
    ua, ub = unfold(env, a), unfold(env, b)

    def ssync(x, y, e):
        return reference_ssync(env, x, y, e, memo, assumed)

    match (ua, ub):
        case (One(), One()):
            ok = True
        case ((Tensor(_, c1), Tensor(_, c2)) | (Lolli(_, c1), Lolli(_, c2))
              | (UpLL(c1), UpLL(c2)) | (DownLL(c1), DownLL(c2))):
            ok = ssync(c1, c2, d)
        case (IChoice(_), IChoice(_)) | (EChoice(_), EChoice(_)):
            common = sorted(set(ua.labels()) & set(ub.labels()))
            ok = all(ssync(ua.branch(l), ub.branch(l), d) for l in common)
        case (UpSL(c1), (UpSL(c2) | UpLL(c2))):
            ok = d == TOP and ssync(c1, c2, SharedC(a))
        case (DownSL(c1), (DownSL(c2) | DownLL(c2))):
            ok = (reference_cleq(env, SharedC(c1), d, memo)
                  and ssync(c1, c2, TOP))
        case ((ValIn(t1, c1), ValIn(t2, c2))
              | (ValOut(t1, c1), ValOut(t2, c2))) if t1 == t2:
            ok = ssync(c1, c2, d)
        case _:
            ok = False
    if not ok:
        memo[key] = False
    return ok


def constraints(rng, env):
    """gen_constraint's draw, and each shared name as a constraint both as
    a name and as its body (one node of the type graph), both as drawn
    and as a copy."""
    out = [gen_constraint(rng, env), TOP, BOT]
    for d in env.defs:
        if d.modality == SHARED:
            out += [SharedC(Ref(d.name)), SharedC(unfold(env, Ref(d.name))),
                    SharedC(copy_type(d.body))]
    return out


def outcome(judge, *args):
    try:
        return judge(*args)
    except SsyncPreconditionError:
        return "precondition"


def test_graph_ssync_matches_reference():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        env = with_aliases(rng, gen_env(rng))
        memo = {}
        for a, b in related_pairs(rng, env, 6):
            for d in constraints(rng, env):
                want = outcome(reference_ssync, env, a, b, d, memo)
                got = outcome(is_ssync, env, a, b, d)
                assert got == want, (env, a, b, d)
                seen.add(want)
            for t in (a, b):
                want = outcome(reference_ssync, env, t, t, TOP, memo)
                assert outcome(is_esync, env, t) == want, (env, t)
    assert seen == {True, False, "precondition"}

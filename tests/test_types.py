import random

import pytest
from hypothesis import given, settings, strategies as st

from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, TypeDef, TypeDefEnv, SHARED, LINEAR,
    BOT, TOP, SharedC, TypeError_,
    unfold, modality, reachable, validate_env, children,
)
from sill.synchro import cleq

from gen import gen_env


QUEUE = TypeDefEnv((
    TypeDef("queue", LINEAR, EChoice((
        ("enqueue", ValIn("int", DownSL(Ref("shared_queue")))),
        ("dequeue", IChoice((
            ("none", DownSL(Ref("shared_queue"))),
            ("some", ValOut("int", DownSL(Ref("shared_queue")))),
        ))),
    ))),
    TypeDef("shared_queue", SHARED, UpSL(Ref("queue"))),
))


def test_unfold_resolves_chains():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, Ref("b")),
        TypeDef("b", LINEAR, One()),
    ))
    assert unfold(env, Ref("a")) == One()
    assert unfold(env, One()) == One()


def test_unfold_detects_ref_cycle():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, Ref("b")),
        TypeDef("b", LINEAR, Ref("a")),
    ))
    with pytest.raises(TypeError_):
        unfold(env, Ref("a"))


def test_modality():
    assert modality(QUEUE, Ref("shared_queue")) == SHARED
    assert modality(QUEUE, Ref("queue")) == LINEAR
    assert modality(QUEUE, One()) == LINEAR


def test_reachable_is_finite_and_contains_self():
    r = reachable(QUEUE, Ref("shared_queue"))
    assert Ref("shared_queue") in r
    assert Ref("queue") in r
    # regular tree: finitely many distinct subterms despite recursion
    assert len(r) < 20


def test_children():
    t = Tensor(One(), Lolli(One(), One()))
    assert children(t) == (One(), Lolli(One(), One()))
    assert children(One()) == ()


def test_validate_env_accepts_queue():
    assert validate_env(QUEUE) == []


def test_validate_env_duplicate():
    env = TypeDefEnv((TypeDef("a", LINEAR, One()),
                      TypeDef("a", LINEAR, One())))
    assert any("duplicate" in d for d in validate_env(env))


def test_validate_env_undefined_ref():
    env = TypeDefEnv((TypeDef("a", LINEAR, Ref("ghost")),))
    assert any("undefined" in d for d in validate_env(env))


def test_validate_env_non_contractive():
    env = TypeDefEnv((TypeDef("a", LINEAR, Ref("a")),))
    assert any("non-contractive" in d for d in validate_env(env))


def test_validate_env_shared_must_be_upshift():
    env = TypeDefEnv((TypeDef("s", SHARED, One()),))
    assert any("up-shift" in d for d in validate_env(env))


def test_validate_env_downshift_must_reach_shared():
    env = TypeDefEnv((TypeDef("a", LINEAR, DownSL(One())),))
    assert any("down-shift" in d for d in validate_env(env))


def test_validate_env_nested_upshift_rejected():
    # an acquire point buried under a linear shift is a stratification error
    env = TypeDefEnv((TypeDef("a", LINEAR, UpLL(UpSL(One()))),))
    assert any("up-shift" in d for d in validate_env(env))


def test_validate_env_duplicate_labels():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, IChoice((("x", One()), ("x", One())))),))
    assert any("duplicate label" in d for d in validate_env(env))


def test_validate_env_empty_choice():
    env = TypeDefEnv((TypeDef("a", LINEAR, EChoice(())),))
    assert any("empty choice" in d for d in validate_env(env))


def test_validate_env_modality_mismatch():
    env = TypeDefEnv((TypeDef("a", SHARED, Ref("b")),
                      TypeDef("b", LINEAR, One())))
    assert any("up-shift" in d or "modality" in d for d in validate_env(env))


def test_constraint_lattice_order():
    sq = SharedC(Ref("shared_queue"))
    leq = lambda c, d: cleq(QUEUE, c, d)
    assert leq(BOT, BOT) and leq(BOT, sq) and leq(BOT, TOP)
    assert leq(sq, sq) and leq(sq, TOP)
    assert leq(TOP, TOP)
    assert not leq(TOP, sq) and not leq(TOP, BOT) and not leq(sq, BOT)


def test_env_lookup_and_extend():
    assert QUEUE.lookup("queue").modality == LINEAR
    with pytest.raises(KeyError):
        QUEUE.lookup("nope")
    ext = QUEUE.extend(TypeDef("x", LINEAR, One()))
    assert "x" in ext and "x" not in QUEUE


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_envs_validate(seed):
    env = gen_env(random.Random(seed))
    assert validate_env(env) == []
    for d in env.defs:
        assert modality(env, Ref(d.name)) == d.modality
        # reachability stays finite on every definition
        assert len(reachable(env, Ref(d.name))) < 500

import gc
import random
import weakref

from hypothesis import given, settings, strategies as st

from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, TypeDef, TypeDefEnv, LINEAR,
)
from sill.subtype import (
    is_subtype, bounded_oracle, exact_bound,
)
from sill.synchro import is_ssync

from gen import gen_env, gen_linear_type, widen, narrow

E = TypeDefEnv()


def sub(a, b, env=E):
    return is_subtype(env, a, b)


def test_unit_reflexive():
    assert sub(One(), One())


def test_tensor_covariant_both_positions():
    narrow_t = Tensor(IChoice((("a", One()),)), One())
    wide_t = Tensor(IChoice((("a", One()), ("b", One()))), One())
    assert sub(narrow_t, wide_t)
    assert not sub(wide_t, narrow_t)


def test_lolli_payload_contravariant():
    small = IChoice((("a", One()),))
    big = IChoice((("a", One()), ("b", One())))
    assert sub(Lolli(big, One()), Lolli(small, One()))
    assert not sub(Lolli(small, One()), Lolli(big, One()))


def test_ichoice_width():
    assert sub(IChoice((("a", One()),)),
               IChoice((("a", One()), ("b", One()))))
    assert not sub(IChoice((("a", One()), ("b", One()))),
                   IChoice((("a", One()),)))


def test_echoice_width():
    assert sub(EChoice((("a", One()), ("b", One()))),
               EChoice((("a", One()),)))
    assert not sub(EChoice((("a", One()),)),
                   EChoice((("a", One()), ("b", One()))))


def test_shift_cross_modality():
    # a shared acquire point may be used where a linear one is expected
    assert sub(UpSL(One()), UpLL(One()))
    assert not sub(UpLL(One()), UpSL(One()))
    assert sub(DownSL(UpSL(One())), DownLL(UpSL(One())))
    assert not sub(DownLL(One()), DownSL(One()))


def test_value_atoms_invariant():
    assert sub(ValIn("int", One()), ValIn("int", One()))
    assert not sub(ValIn("int", One()), ValIn("id", One()))
    assert not sub(ValOut("int", One()), ValIn("int", One()))


def test_constructor_clash():
    assert not sub(One(), Tensor(One(), One()))
    assert not sub(IChoice((("a", One()),)), EChoice((("a", One()),)))


def test_recursive_equal_unfoldings():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, ValOut("int", Ref("a"))),
        TypeDef("b", LINEAR, ValOut("int", ValOut("int", Ref("b")))),
    ))
    # same infinite tree, different finite presentations
    assert sub(Ref("a"), Ref("b"), env)
    assert sub(Ref("b"), Ref("a"), env)


def test_recursive_strict():
    env = TypeDefEnv((
        TypeDef("a", LINEAR, IChoice((("x", Ref("a")),))),
        TypeDef("b", LINEAR, IChoice((("x", Ref("b")), ("y", One())))),
    ))
    assert sub(Ref("a"), Ref("b"), env)
    assert not sub(Ref("b"), Ref("a"), env)


def test_corpus_queue_views(queue_env):
    sq, prod, cons = Ref("shared_queue"), Ref("producer"), Ref("consumer")
    assert is_subtype(queue_env, sq, prod)
    assert is_subtype(queue_env, sq, cons)
    assert not is_subtype(queue_env, prod, sq)
    assert not is_subtype(queue_env, cons, sq)
    assert not is_subtype(queue_env, prod, cons)


def test_memo_belongs_to_env():
    # two envs bind the same names to different bodies, so a verdict
    # memoized under one must never answer the same query under the other
    a, b = Ref("a"), Ref("b")
    small = IChoice((("l", One()),))
    big = IChoice((("l", One()), ("r", One())))

    def envs():
        yes = TypeDefEnv((TypeDef("a", LINEAR, small),
                          TypeDef("b", LINEAR, big)))
        no = TypeDefEnv((TypeDef("a", LINEAR, big),
                         TypeDef("b", LINEAR, small)))
        return yes, no

    yes, no = envs()
    assert sub(a, b, yes) and is_ssync(yes, a, b)
    assert not sub(a, b, no)
    queried = weakref.ref(yes)
    yes, no = envs()
    assert not sub(a, b, no)
    assert sub(a, b, yes) and is_ssync(yes, a, b)
    # no module-level structure keeps a queried env alive
    del yes, no
    gc.collect()
    assert queried() is None


def test_bounded_oracle_degenerate_depth():
    # depth 0 always succeeds by truncation
    assert bounded_oracle(E, One(), Tensor(One(), One()), 0)
    assert not bounded_oracle(E, One(), Tensor(One(), One()), 1)


def test_exact_bound_value():
    t = Tensor(One(), One())
    # reachable(t) = {t, One}; bound = 2*2 + 1
    assert exact_bound(E, t, t) == 5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_reflexivity(seed):
    rng = random.Random(seed)
    env = gen_env(rng)
    for d in env.defs:
        assert is_subtype(env, Ref(d.name), Ref(d.name))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_widen_narrow_sound(seed):
    rng = random.Random(seed)
    env = gen_env(rng)
    t = gen_linear_type(rng, env)
    assert is_subtype(env, t, widen(rng, env, t))
    assert is_subtype(env, narrow(rng, env, t), t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_transitivity_on_widen_chain(seed):
    rng = random.Random(seed)
    env = gen_env(rng)
    a = gen_linear_type(rng, env)
    b = widen(rng, env, a)
    c = widen(rng, env, b)
    assert is_subtype(env, a, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_agreement(seed):
    rng = random.Random(seed)
    env = gen_env(rng)
    a = gen_linear_type(rng, env)
    b = gen_linear_type(rng, env)
    depth = exact_bound(env, a, b)
    assert is_subtype(env, a, b) == bounded_oracle(env, a, b, depth)

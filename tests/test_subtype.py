import copy
import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, TypeDef, TypeDefEnv, SHARED, LINEAR, TypeError_,
    children, unfold,
)
from sill.subtype import (
    is_subtype, bounded_oracle, exact_bound, sub_ids,
)
from sill.synchro import is_ssync, is_esync

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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_a_pair_of_one_id_holds_without_a_walk(seed):
    # a type and a copy that shares no object with it mostly intern to one
    # id; such a pair holds at once, as the oracle agrees, and no pair of
    # one id is stored, walked or not
    rng = random.Random(seed)
    env = gen_env(rng)
    for _ in range(4):
        t = gen_linear_type(rng, env)
        u = copy.deepcopy(t)
        assert is_subtype(env, t, u)
        assert is_subtype(env, t, u) == bounded_oracle(
            env, t, u, exact_bound(env, t, u))
    assert [k for k in env.graph.memo if len(k) == 2 and k[0] == k[1]] == []


# --------------------------------------------------------------------------- #
# Interning
# --------------------------------------------------------------------------- #

def subterms(t):
    """t and every subterm of it, payloads included, without unfolding."""
    out = [t]
    for c in children(t):
        out += subterms(c)
    return out


def test_an_outside_type_reads_identity_only_at_its_root():
    env = TypeDefEnv((
        TypeDef("s", SHARED, UpSL(EChoice((
            ("put", ValIn("int", DownSL(Ref("s")))),
            ("get", ValOut("int", DownSL(Ref("s")))))))),
        TypeDef("l", LINEAR, Tensor(Ref("s"), Lolli(One(), IChoice((
            ("a", UpLL(Ref("l"))), ("b", DownLL(One()))))))),
    ))
    g = env.graph
    g.intern(Ref("l"))
    ident = dict(g.ident)
    # fresh objects: found by key, node by node, and none recorded
    t = Tensor(ValOut("int", Ref("l")), EChoice((
        ("x", DownLL(One())), ("y", UpLL(Ref("l"))))))
    i = g.intern(t)
    assert g.ident == ident
    n = len(g.nodes)
    assert g.intern(t) == g.intern(copy_type(t)) == i and len(g.nodes) == n
    # a body's subterm, passed by identity, is its recorded id
    for u in subterms(env.lookup("l").body) + subterms(env.lookup("s").body):
        assert g.intern(u) == ident[id(u)]
    assert len(g.nodes) == n and g.ident == ident
    # a copy of a body is its name's node
    assert g.intern(copy_type(env.lookup("l").body)) == g.names["l"]
    assert len(g.nodes) == n
    # a pinned type records every subterm, and keeps it alive
    p = Lolli(copy_type(t), IChoice((("a", Ref("l")),)))
    j = g.pin(p)
    assert all(id(u) in g.ident for u in subterms(p))
    assert g.ident[id(p)] == j and g.pinned[-1] is p
    assert g.ident[id(p.payload)] == i


def test_a_recorded_subterm_is_not_walked_again(monkeypatch):
    # in a pinned type, a subterm already recorded, a body's or one
    # pinned before, is read by identity: one call, and none below it
    import sill.types
    env = TypeDefEnv((TypeDef("l", LINEAR, Tensor(Ref("l"), ValIn(
        "int", IChoice((("a", One()), ("b", Ref("l"))))))),))
    g = env.graph
    g.intern(Ref("l"))
    p = Lolli(env.lookup("l").body.cont, One())
    walk, calls = sill.types._intern, []

    def counted(g, t, body, at=-1):
        calls.append(t)
        return walk(g, t, body, at)

    monkeypatch.setattr(sill.types, "_intern", counted)
    i = g.pin(p)
    assert calls == [p, p.payload, p.cont]
    del calls[:]
    assert g.pin(p) == i and calls == [p]


def test_a_body_too_deep_to_intern_leaves_no_graph_behind():
    # a resolution cut short by the recursion limit drops the graph, so
    # no later judgment reads the half-numbered body
    deep = One()
    for _ in range(5000):
        deep = ValOut("int", deep)
    env = TypeDefEnv((TypeDef("d", LINEAR, deep),))
    for _ in range(2):
        with pytest.raises(RecursionError):
            is_subtype(env, Ref("d"), One())
        assert "graph" not in env.__dict__


def test_a_name_takes_the_id_of_an_equal_node_interned_before_it():
    # b's body names a, but not b: interned after an equal type, each
    # name takes that type's id, so the type, a copy of b's body and b
    # are one node
    env = TypeDefEnv((TypeDef("a", LINEAR, ValOut("int", One())),
                      TypeDef("b", LINEAR, UpLL(Ref("a")))))
    g = env.graph
    t = UpLL(ValOut("int", One()))
    i = g.intern(t)
    assert g.intern(Ref("b")) == i
    assert g.intern(copy_type(env.lookup("b").body)) == i
    assert g.intern(Ref("a")) == g.nodes[i][1][0]
    assert g.intern(env.lookup("a").body) == g.nodes[i][1][0]


def test_a_choice_interns_the_first_branch_of_each_label_in_order():
    # a choice with its labels out of order and one label twice takes the
    # id of its sorted, first-wins form, by identity or by key, and the
    # losing branch, a type interned nowhere else, adds no node
    first, lose = ValOut("int", One()), ValOut("string", One())
    for ctor in (IChoice, EChoice):
        for pin in (False, True):
            g = TypeDefEnv().graph
            t = ctor((("c", One()), ("b", first), ("a", One()),
                      ("b", lose)))
            i = g.pin(t) if pin else g.intern(t)
            assert len(g.nodes) == 3  # One, first and the choice
            assert g.nodes[i] == (ctor, (0, 1, 0), {"a": 0, "b": 1, "c": 0})
            assert g.intern(ctor((("a", One()), ("b", first),
                                  ("c", One())))) == i
            assert len(g.nodes) == 3


def reference_intern(g, names, ident, t, body=False):
    """t's id in g.nodes and g.index by the interning the one walk
    replaced: identity read at every node of every type, with a second
    call to build each node's key, and a name's body numbered before its
    children, an equal node interned earlier keeping its own id. names and
    ident are the reference's own, so no id comes from the walk's."""
    i = ident.get(id(t))
    if i is not None:
        return i
    cls = t.__class__
    if cls is One:
        i = 0
    elif cls is Ref:
        i = names.get(t.name)
        if i is None:
            u = unfold(g.env(), t)
            i = ident.get(id(u))
            if i is None:
                i = ident[id(u)] = len(g.nodes)
                g.nodes.append(None)
                g.nodes[i], key = reference_node(g, names, ident, u, True)
                g.index.setdefault(key, i)
            names[t.name] = i
    else:
        node, key = reference_node(g, names, ident, t, body)
        i = g.index.get(key)
        if i is None:
            i = g.index[key] = len(g.nodes)
            g.nodes.append(node)
    if body:
        ident[id(t)] = i
    return i


def reference_node(g, names, ident, t, body):
    cls = t.__class__

    def intern(c):
        return reference_intern(g, names, ident, c, body)

    if cls is IChoice or cls is EChoice:
        arms = {l: intern(c)
                for l, c in sorted(dict(reversed(t.branches)).items())}
        kids = tuple(arms.values())
        return (cls, kids, arms), (cls, kids, tuple(arms))
    if cls is Tensor or cls is Lolli:
        kids = intern(t.payload), intern(t.cont)
    else:
        kids = () if cls is One else (intern(t.cont),)
    node = cls, kids, t.base if cls is ValIn or cls is ValOut else None
    return node, node


def test_interning_matches_the_per_node_identity_reference():
    # criterion 3's environments: each name, drawn type, copy and pinned
    # type gets an id that is the same tree as the reference's, the two
    # taking turns to resolve the names first
    rng = random.Random(20260824)
    for k in range(300):
        env = gen_env(rng)
        g = env.graph
        names, ident = {}, {}
        types = [Ref(d.name) for d in env.defs]
        types += [gen_linear_type(rng, env) for _ in range(4)]
        types += [copy_type(t) for t in types] + [d.body for d in env.defs]
        if k % 2:
            types.reverse()
        for n, t in enumerate(types):
            if k % 2:
                j = reference_intern(g, names, ident, t)
            i = g.pin(t) if n % 5 == 4 else g.intern(t)
            if not k % 2:
                j = reference_intern(g, names, ident, t)
            assert sub_ids(g, i, j) and sub_ids(g, j, i), (env, t)
        assert None not in [g.nodes[i] for i in g.names.values()]


# --------------------------------------------------------------------------- #
# Malformed environments
# --------------------------------------------------------------------------- #

def test_judgments_reject_a_cycle_of_names():
    # a = b, b = a has no structure to compare; resolving it must not loop
    env = TypeDefEnv((TypeDef("a", LINEAR, Ref("b")),
                      TypeDef("b", LINEAR, Ref("a"))))
    for judge in (lambda: is_subtype(env, Ref("a"), Ref("b")),
                  lambda: is_ssync(env, Ref("a"), Ref("b")),
                  lambda: is_esync(env, Ref("a"))):
        with pytest.raises(TypeError_, match="non-contractive cycle"):
            judge()


def test_judgments_name_an_undefined_type():
    env = TypeDefEnv((TypeDef("a", LINEAR, One()),
                      TypeDef("b", LINEAR, ValOut("int", Ref("nope")))))
    for judge in (lambda: is_subtype(env, Ref("a"), Ref("gone")),
                  lambda: is_subtype(env, Ref("gone"), One()),
                  lambda: is_ssync(env, Ref("a"), Ref("gone")),
                  lambda: is_esync(env, Ref("gone"))):
        with pytest.raises(KeyError, match="undefined type name: gone"):
            judge()
    with pytest.raises(KeyError, match="undefined type name: nope"):
        is_subtype(env, Ref("b"), Ref("b"))


def test_a_malformed_env_raises_at_every_query():
    # a failed resolution leaves no part of the graph behind for the next
    # query to trust
    env = TypeDefEnv((TypeDef("b", LINEAR, Tensor(Ref("b"), Ref("nope"))),))
    for _ in range(2):
        with pytest.raises(KeyError, match="undefined type name: nope"):
            is_subtype(env, Ref("b"), Ref("b"))


# --------------------------------------------------------------------------- #
# Differential: the decision on types, as it was before the type graph
# --------------------------------------------------------------------------- #

def reference_sub(env, a, b, memo, assumed=None):
    """Coinductive subtyping on SessionTypes, unfolding names per goal,
    with its verdict memo passed in: a goal revisited while in progress
    holds, a refuted one is false for good."""
    if assumed is None:
        if (a, b) not in memo:
            memo[a, b] = reference_sub(env, a, b, memo, set())
        return memo[a, b]
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if key in assumed:
        return True
    assumed.add(key)
    ua, ub = unfold(env, a), unfold(env, b)

    def sub(x, y):
        return reference_sub(env, x, y, memo, assumed)

    match (ua, ub):
        case (One(), One()):
            ok = True
        case (Tensor(p1, c1), Tensor(p2, c2)):
            ok = sub(p1, p2) and sub(c1, c2)
        case (Lolli(p1, c1), Lolli(p2, c2)):
            ok = sub(p2, p1) and sub(c1, c2)
        case (IChoice(_), IChoice(_)):
            la, lb = set(ua.labels()), set(ub.labels())
            ok = la <= lb and all(
                sub(ua.branch(l), ub.branch(l)) for l in sorted(la))
        case (EChoice(_), EChoice(_)):
            la, lb = set(ua.labels()), set(ub.labels())
            ok = lb <= la and all(
                sub(ua.branch(l), ub.branch(l)) for l in sorted(lb))
        case ((UpSL(c1), (UpSL(c2) | UpLL(c2)))
              | (DownSL(c1), (DownSL(c2) | DownLL(c2)))
              | (UpLL(c1), UpLL(c2)) | (DownLL(c1), DownLL(c2))):
            ok = sub(c1, c2)
        case ((ValIn(t1, c1), ValIn(t2, c2))
              | (ValOut(t1, c1), ValOut(t2, c2))):
            ok = t1 == t2 and sub(c1, c2)
        case _:
            ok = False
    if not ok:
        memo[key] = False
    return ok


def copy_type(t):
    """An equal type with no object in common with t."""
    if isinstance(t, tuple):
        return tuple(copy_type(x) for x in t)
    if dataclasses.is_dataclass(t):
        return type(t)(*(copy_type(getattr(t, f.name))
                         for f in dataclasses.fields(t)))
    return t


def with_aliases(rng, env):
    """env with a few alias definitions (type A0 = L1, type A1 = A0, ...),
    each of the modality of the name it ends on."""
    defs = list(env.defs)
    for i in range(rng.randint(1, 3)):
        target = rng.choice(defs)
        defs.append(TypeDef(f"A{i}", target.modality, Ref(target.name)))
    return TypeDefEnv(tuple(defs))


def related_pairs(rng, env, n):
    """n pairs over env: widenings and narrowings of a type in both
    orders, plain names and aliases, unrelated types, and copies that
    share no object with the environment's bodies."""
    names = [Ref(d.name) for d in env.defs]
    for _ in range(n):
        a = rng.choice([gen_linear_type(rng, env), rng.choice(names)])
        b = rng.choice([widen(rng, env, a), narrow(rng, env, a),
                        gen_linear_type(rng, env), rng.choice(names)])
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.25:
            a = copy_type(a)
        yield a, b


def test_graph_subtyping_matches_reference():
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(300):
        env = with_aliases(rng, gen_env(rng))
        memo = {}
        for a, b in related_pairs(rng, env, 12):
            want = reference_sub(env, a, b, memo)
            assert is_subtype(env, a, b) == want, (env, a, b)
            verdicts.add(want)
    assert verdicts == {True, False}

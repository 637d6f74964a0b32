import random

import pytest
from hypothesis import given, settings, strategies as st

from sill.types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, Ref, TypeDef, TypeDefEnv, SHARED, LINEAR,
    BOT, TOP, SharedC, TypeError_,
    unfold, modality, reachable, validate_env, children, type_names,
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


# --------------------------------------------------------------------------- #
# validate_env against the two-walk reference
# --------------------------------------------------------------------------- #

def reference_children(t):
    match t:
        case Tensor(p, c) | Lolli(p, c):
            return (p, c)
        case IChoice(bs) | EChoice(bs):
            return tuple(ty for _, ty in bs)
        case UpSL(c) | DownSL(c) | UpLL(c) | DownLL(c) | ValIn(_, c) | ValOut(_, c):
            return (c,)
        case _:
            return ()


def reference_type_names(t):
    names, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Ref):
            names.append(t.name)
        todo.extend(reference_children(t))
    return names


def reference_validate_env(env):
    """validate_env as two walks of every body: the names for closure, then
    stratification and labels, asking modality() at each shift."""
    diags = []
    names = set()
    for d in env.defs:
        if d.name in names:
            diags.append(f"duplicate definition: {d.name}")
        names.add(d.name)

    for d in env.defs:
        for n in sorted(set(reference_type_names(d.body)) - names):
            diags.append(f"undefined reference: {n} in {d.name}")
    if diags:
        return diags

    chain = {d.name: d.body.name for d in env.defs if isinstance(d.body, Ref)}
    for start in chain:
        slow = start
        path = []
        while slow in chain:
            if slow in path:
                diags.append(f"non-contractive: {' -> '.join(path + [slow])}")
                break
            path.append(slow)
            slow = chain[slow]

    def walk(t, defname, where, top_shared):
        match t:
            case UpSL(c):
                if not top_shared:
                    diags.append(
                        f"stratification: up-shift not at the top of a shared "
                        f"definition ({defname}, {where})")
                walk(c, defname, where + "/up_s", False)
            case DownSL(c):
                try:
                    if modality(env, c) != SHARED:
                        diags.append(
                            f"stratification: down-shift to a non-shared type "
                            f"({defname}, {where})")
                except (KeyError, TypeError_):
                    pass
                walk(c, defname, where + "/down_s", True)
            case IChoice(bs) | EChoice(bs):
                seen_labels = set()
                for l, ty in bs:
                    if l in seen_labels:
                        diags.append(f"duplicate label {l} ({defname}, {where})")
                    seen_labels.add(l)
                    walk(ty, defname, f"{where}/{l}", False)
                if not bs:
                    diags.append(f"empty choice ({defname}, {where})")
            case Tensor(p, c) | Lolli(p, c):
                walk(p, defname, where + "/payload", True)
                walk(c, defname, where + "/cont", False)
            case UpLL(c) | DownLL(c) | ValIn(_, c) | ValOut(_, c):
                try:
                    if modality(env, c) != LINEAR:
                        diags.append(
                            f"stratification: linear constructor with shared "
                            f"continuation ({defname}, {where})")
                except (KeyError, TypeError_):
                    pass
                walk(c, defname, where + "/cont", False)
            case _:
                pass

    for d in env.defs:
        if d.modality == SHARED:
            if not isinstance(d.body, UpSL):
                if isinstance(d.body, Ref):
                    try:
                        if modality(env, d.body) != SHARED:
                            diags.append(
                                f"stratification: shared definition {d.name} "
                                f"does not unfold to an up-shift")
                    except (KeyError, TypeError_):
                        pass
                else:
                    diags.append(
                        f"stratification: shared definition {d.name} must be "
                        f"an up-shift")
            if isinstance(d.body, UpSL):
                walk(d.body.cont, d.name, "body", False)
        else:
            walk(d.body, d.name, "body", False)

    for d in env.defs:
        try:
            if modality(env, Ref(d.name)) != d.modality:
                diags.append(
                    f"modality mismatch: {d.name} declared {d.modality}")
        except (KeyError, TypeError_):
            pass
    return diags


def _size(t):
    return 1 + sum(_size(c) for c in reference_children(t))


def _replace(t, k, f):
    """t with its k-th node in preorder replaced by f(node)."""
    if k == 0:
        return f(t)
    k -= 1
    match t:
        case Tensor(p, c) | Lolli(p, c):
            n = _size(p)
            if k < n:
                return type(t)(_replace(p, k, f), c)
            return type(t)(p, _replace(c, k - n, f))
        case IChoice(bs) | EChoice(bs):
            out = []
            for l, ty in bs:
                n = _size(ty)
                if 0 <= k < n:
                    ty = _replace(ty, k, f)
                k -= n
                out.append((l, ty))
            return type(t)(tuple(out))
        case ValIn(b, c) | ValOut(b, c):
            return type(t)(b, _replace(c, k, f))
        case _:
            return type(t)(_replace(t.cont, k, f))


def _dup_label(rng, t):
    if isinstance(t, (IChoice, EChoice)) and t.branches:
        bs = list(t.branches)
        i = rng.randrange(len(bs))
        if len(bs) > 1 and rng.random() < 0.5:
            # rename a label to another's
            j = rng.choice([j for j in range(len(bs)) if j != i])
            bs[j] = (bs[i][0], bs[j][1])
        else:
            bs.insert(rng.randrange(len(bs) + 1), bs[i])
        return type(t)(tuple(bs))
    return IChoice((("a", t), ("a", One())))


def _mutate_env(rng, env):
    """env with one to three mutations: an undefined name, a repeated label,
    a misplaced up- or down-shift, a flipped declared modality, a cycle of
    names, a duplicate definition, an empty choice or a shared continuation
    under a linear constructor."""
    defs = list(env.defs)
    shared = [d.name for d in defs if d.modality == SHARED] or ["S9"]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(defs))
        d = defs[i]
        kind = rng.choice(MUTATIONS)
        if kind == "flip":
            defs[i] = TypeDef(d.name, LINEAR if d.modality == SHARED
                              else SHARED, d.body)
        elif kind == "cycle":
            j = rng.randrange(len(defs))
            defs[i] = TypeDef(d.name, d.modality, Ref(defs[j].name))
            if j != i and rng.random() < 0.7:
                defs[j] = TypeDef(defs[j].name, defs[j].modality, Ref(d.name))
        elif kind == "dup_def":
            body = d.body if rng.random() < 0.5 else One()
            defs.insert(rng.randrange(len(defs) + 1),
                        TypeDef(d.name, d.modality, body))
        else:
            f = {
                "undefined": lambda t: Ref(rng.choice(("Ghost", "L9"))),
                "dup_label": lambda t: _dup_label(rng, t),
                "up_shift": lambda t: UpSL(t),
                "down_shift": lambda t: DownSL(
                    t if rng.random() < 0.5 else Ref(rng.choice(shared))),
                "empty": lambda t: rng.choice((IChoice, EChoice))(()),
                "shared_cont": lambda t: rng.choice((
                    lambda c: ValIn("int", c), lambda c: UpLL(c),
                    lambda c: DownLL(c)))(
                    UpSL(t) if rng.random() < 0.5
                    else Ref(rng.choice(shared))),
            }[kind]
            k = rng.randrange(_size(d.body))
            defs[i] = TypeDef(d.name, d.modality, _replace(d.body, k, f))
    return TypeDefEnv(tuple(defs))


MUTATIONS = ("undefined", "dup_label", "up_shift", "down_shift", "flip",
             "cycle", "dup_def", "empty", "shared_cont")


def test_validate_env_matches_reference():
    # the one-walk validate_env gives the reference's diagnostics, text and
    # order, on generated environments and on mutants of each; type_names
    # and children agree with their match-based forms on every node
    rng = random.Random(4021)
    flagged, kinds = 0, set()
    for i in range(2000):
        env = gen_env(random.Random(i), max_defs=rng.randint(1, 8))
        assert validate_env(env) == reference_validate_env(env) == []
        for _ in range(3):
            mutant = _mutate_env(rng, env)
            want = reference_validate_env(mutant)
            assert validate_env(mutant) == want, mutant
            flagged += bool(want)
            kinds.update(m.split(":")[0].split(" (")[0] for m in want)
            for d in mutant.defs:
                assert type_names(d.body) == reference_type_names(d.body)
                todo = [d.body]
                while todo:
                    t = todo.pop()
                    assert children(t) == reference_children(t)
                    todo.extend(reference_children(t))
    assert flagged > 4000
    # every kind of diagnostic came up
    assert kinds >= {"duplicate definition", "undefined reference",
                     "non-contractive", "stratification", "empty choice",
                     "modality mismatch"}
    assert any(k.startswith("duplicate label") for k in kinds)

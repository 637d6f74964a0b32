"""Coinductive subtyping for regular session types, across both layers.

``is_subtype`` decides membership in the greatest fixed point of the
subtyping rules by goal memoization: a goal that is revisited while still
in progress is assumed to hold (the coinductive hypothesis). Because every
premise is conjunctive, no backtracking is needed and the assumption is
never retracted. It decides on the environment's type graph, so a goal is
a pair of integer ids and no name is unfolded per goal.

A pair of one id holds without a walk, and is neither walked nor stored.
One id is one node of the graph and so one regular tree: a name has its
body's id, and every other node is hash-consed by its constructor, its
children's ids and its labels or base type. The identity relation is a
simulation under every rule below (equal label sets, a contravariant
payload paired with itself, equal value bases), so each such pair lies in
the greatest fixed point; and no refutation rests on a reflexive goal, so
no other verdict moves.

``bounded_oracle`` is an independent cross-check: plain rule application
with unfolding cut off at a given depth, truncation counting as success.
At depth ``exact_bound`` the two procedures agree exactly, because a
minimal refutation never revisits a pair of types.
"""

from __future__ import annotations

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, SessionType, TypeDefEnv, TypeGraph, unfold, reachable,
)

# distinct constructors subtyping relates: a shared shift is below a linear one
_CROSS = {(UpSL, UpLL), (DownSL, DownLL)}


def _sub(g: TypeGraph, a: int, b: int, assumed: set[tuple]) -> bool:
    if a == b:
        return True
    key = (a, b)
    hit = g.memo.get(key)
    if hit is not None:
        return hit
    if key in assumed:
        return True
    assumed.add(key)
    ta, ka, xa = g.nodes[a]
    tb, kb, xb = g.nodes[b]
    if ta is not tb and (ta, tb) not in _CROSS:
        ok = False
    elif ta is IChoice:
        ok = xa.keys() <= xb.keys() and all(
            _sub(g, xa[l], xb[l], assumed) for l in xa)
    elif ta is EChoice:
        ok = xb.keys() <= xa.keys() and all(
            _sub(g, xa[l], xb[l], assumed) for l in xb)
    elif ta is Lolli:  # payload contravariant
        ok = _sub(g, kb[0], ka[0], assumed) and _sub(g, ka[1], kb[1], assumed)
    else:
        # covariant in every child; value types also match their base type
        ok = xa == xb and all(
            _sub(g, x, y, assumed) for x, y in zip(ka, kb))
    if not ok:
        # a refuted goal is definitively false regardless of assumptions
        g.memo[key] = False
    return ok


def sub_ids(g: TypeGraph, a: int, b: int) -> bool:
    """Subtyping between two ids of g. A pair of one id holds at once and
    is not stored: one id is one regular tree, and the identity relation
    is a simulation under every rule of ``_sub``."""
    if a == b:
        return True
    key = (a, b)
    hit = g.memo.get(key)
    if hit is None:
        hit = g.memo[key] = _sub(g, a, b, set())
    return hit


def is_subtype(env: TypeDefEnv, a: SessionType, b: SessionType) -> bool:
    """Whether a <= b in env, decided on env's type graph. Interning a
    type raises KeyError at an undefined name and TypeError_ at a cycle of
    names, so a malformed environment is refused even for a pair a, a."""
    g = env.graph
    return sub_ids(g, g.intern(a), g.intern(b))


# --------------------------------------------------------------------------- #
# Bounded oracle
# --------------------------------------------------------------------------- #

def exact_bound(env: TypeDefEnv, a: SessionType, b: SessionType) -> int:
    """Depth past which truncation can no longer mask a refutation."""
    return len(reachable(env, a)) * len(reachable(env, b)) + 1


def _refutation_depth(env: TypeDefEnv, a: SessionType, b: SessionType) -> float:
    """Length of the shortest refutation of a <= b (inf if none exists).

    A goal is refuted at depth 1 by a constructor or label clash, and at
    depth d+1 if one of its premises is refuted at depth d; the minimal
    refutation never repeats a goal, so a shortest-path search over the
    finite goal graph computes exactly what naive depth-bounded rule
    application would report.
    """
    import heapq

    dist: dict[tuple, float] = {}
    start = (a, b)

    def premises(goal):
        ua, ub = unfold(env, goal[0]), unfold(env, goal[1])
        match (ua, ub):
            case (One(), One()):
                return []
            case (Tensor(p1, c1), Tensor(p2, c2)):
                return [(p1, p2), (c1, c2)]
            case (Lolli(p1, c1), Lolli(p2, c2)):
                return [(p2, p1), (c1, c2)]
            case (IChoice(_), IChoice(_)):
                la, lb = set(ua.labels()), set(ub.labels())
                if not la <= lb:
                    return None
                return [(ua.branch(l), ub.branch(l)) for l in sorted(la)]
            case (EChoice(_), EChoice(_)):
                la, lb = set(ua.labels()), set(ub.labels())
                if not lb <= la:
                    return None
                return [(ua.branch(l), ub.branch(l)) for l in sorted(lb)]
            case (UpSL(c1), (UpSL(c2) | UpLL(c2))):
                return [(c1, c2)]
            case (DownSL(c1), (DownSL(c2) | DownLL(c2))):
                return [(c1, c2)]
            case (UpLL(c1), UpLL(c2)):
                return [(c1, c2)]
            case (DownLL(c1), DownLL(c2)):
                return [(c1, c2)]
            case (ValIn(t1, c1), ValIn(t2, c2)):
                return [(c1, c2)] if t1 == t2 else None
            case (ValOut(t1, c1), ValOut(t2, c2)):
                return [(c1, c2)] if t1 == t2 else None
            case _:
                return None

    # build the reachable goal graph once, then run Dijkstra backwards from
    # the clashes (all edge weights are 1)
    goals: set[tuple] = set()
    stack = [start]
    prem: dict[tuple, list] = {}
    users: dict[tuple, list] = {}
    while stack:
        g = stack.pop()
        if g in goals:
            continue
        goals.add(g)
        ps = premises(g)
        prem[g] = ps
        if ps:
            for p in ps:
                users.setdefault(p, []).append(g)
                if p not in goals:
                    stack.append(p)

    heap = []
    for g, ps in prem.items():
        if ps is None:
            dist[g] = 1.0
            heapq.heappush(heap, (1.0, id(g), g))
    while heap:
        d, _, g = heapq.heappop(heap)
        if d > dist.get(g, float("inf")):
            continue
        for u in users.get(g, []):
            nd = d + 1.0
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, id(u), u))
    return dist.get(start, float("inf"))


def bounded_oracle(env: TypeDefEnv, a: SessionType, b: SessionType,
                   depth: int) -> bool:
    """Naive subtyping truncated at ``depth`` rule applications; running
    out of depth counts as success."""
    if depth <= 0:
        return True
    return depth < _refutation_depth(env, a, b)

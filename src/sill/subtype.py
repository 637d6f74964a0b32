"""Coinductive subtyping for regular session types, across both layers.

``is_subtype`` decides membership in the greatest fixed point of the
subtyping rules by goal memoization: a goal that is revisited while still
in progress is assumed to hold (the coinductive hypothesis). Because every
premise is conjunctive, no backtracking is needed and the assumption is
never retracted.

``bounded_oracle`` is an independent cross-check: plain rule application
with unfolding cut off at a given depth, truncation counting as success.
At depth ``exact_bound`` the two procedures agree exactly, because a
minimal refutation never revisits a pair of types.
"""

from __future__ import annotations

from .types import (
    One, Tensor, Lolli, IChoice, EChoice, UpSL, DownSL, UpLL, DownLL,
    ValIn, ValOut, SessionType, TypeDefEnv, unfold, reachable,
)

def _sub(env: TypeDefEnv, a: SessionType, b: SessionType,
         assumed: set[tuple]) -> bool:
    key = (a, b)
    hit = env.memo.get(key)
    if hit is not None:
        return hit
    if key in assumed:
        return True
    assumed.add(key)
    ua, ub = unfold(env, a), unfold(env, b)
    match (ua, ub):
        case (One(), One()):
            ok = True
        case (Tensor(p1, c1), Tensor(p2, c2)):
            ok = _sub(env, p1, p2, assumed) and _sub(env, c1, c2, assumed)
        case (Lolli(p1, c1), Lolli(p2, c2)):
            # payload contravariant
            ok = _sub(env, p2, p1, assumed) and _sub(env, c1, c2, assumed)
        case (IChoice(_), IChoice(_)):
            la, lb = set(ua.labels()), set(ub.labels())
            ok = la <= lb and all(
                _sub(env, ua.branch(l), ub.branch(l), assumed) for l in sorted(la))
        case (EChoice(_), EChoice(_)):
            la, lb = set(ua.labels()), set(ub.labels())
            ok = lb <= la and all(
                _sub(env, ua.branch(l), ub.branch(l), assumed) for l in sorted(lb))
        case (UpSL(c1), (UpSL(c2) | UpLL(c2))):
            ok = _sub(env, c1, c2, assumed)
        case (DownSL(c1), (DownSL(c2) | DownLL(c2))):
            ok = _sub(env, c1, c2, assumed)
        case (UpLL(c1), UpLL(c2)):
            ok = _sub(env, c1, c2, assumed)
        case (DownLL(c1), DownLL(c2)):
            ok = _sub(env, c1, c2, assumed)
        case (ValIn(t1, c1), ValIn(t2, c2)):
            ok = t1 == t2 and _sub(env, c1, c2, assumed)
        case (ValOut(t1, c1), ValOut(t2, c2)):
            ok = t1 == t2 and _sub(env, c1, c2, assumed)
        case _:
            ok = False
    if not ok:
        # a refuted goal is definitively false regardless of assumptions
        env.memo[key] = False
    return ok


def is_subtype(env: TypeDefEnv, a: SessionType, b: SessionType) -> bool:
    key = (a, b)
    hit = env.memo.get(key)
    if hit is not None:
        return hit
    ok = _sub(env, a, b, set())
    env.memo[key] = ok
    return ok


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

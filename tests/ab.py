"""A/B of the benchmark between a parent commit and this checkout.

    python tests/ab.py [--parent REF] [--workload W ...] [--pairs N]
                       [--seconds S] [--seed K]

Checks REF (default HEAD) out with ``git worktree add --detach`` into a
temporary directory, then runs ``python3 bench/run.py --workload W
--seconds S --seed k`` in the parent's tree and in this checkout's, in
pairs, the parent first in odd pairs and second in even ones; pair i runs
seed K + i - 1 on both sides. The worktree is removed afterwards.

For each workload and end-to-end metric it prints the parent's median and
quartiles, the change's median, the change in per cent and the pairs the
change won (ties count for neither side), which side is better read from
BENCHMARK.json. Exits 1 if any run is not ``correct`` or failed an
operation, else 0. The file is not named test_*.py, so pytest does not
collect it; tests/test_ab.py tests summarize.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]],
              better: dict[str, str]) -> list[tuple]:
    """One row per metric of the paired runs parent[i], change[i] (each a
    map from metric to value): (metric, parent median, parent first
    quartile, parent third quartile, change median, change in per cent of
    the parent's median, pairs the change won, pairs). A pair is won where
    the change's value is better by better[metric] ("higher" or "lower");
    a metric with no direction wins no pair."""
    rows = []
    for m in sorted(set().union(*parent, *change)):
        pairs = [(p[m], c[m]) for p, c in zip(parent, change)
                 if m in p and m in c]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        q1, med, q3 = statistics.quantiles(ps, n=4, method="inclusive") \
            if len(ps) > 1 else (ps[0],) * 3
        cmed = statistics.median(cs)
        pct = (cmed - med) / med * 100 if med else float("nan")
        sign = {"higher": 1, "lower": -1}.get(better.get(m), 0)
        won = sum(sign * (c - p) > 0 for p, c in pairs)
        rows.append((m, med, q1, q3, cmed, pct, won, len(pairs)))
    return rows


def _run(tree: pathlib.Path, workload: str, seconds: float,
         seed: int) -> dict:
    """The last line of one bench/run.py run in tree, as JSON; a run that
    prints none reads as not correct."""
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
        timeout=120 + 10 * seconds)
    lines = p.stdout.splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": 0, "metrics": {}}
    if p.returncode != 0:
        out["correct"] = False
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    ok = True
    with tempfile.TemporaryDirectory(prefix="sill-ab-") as tmp:
        parent = pathlib.Path(tmp, "parent")
        subprocess.run(["git", "worktree", "add", "--detach", str(parent),
                        args.parent], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        try:
            for w in workloads:
                runs: dict[str, list[dict]] = {"parent": [], "change": []}
                for i in range(args.pairs):
                    sides = [("parent", parent), ("change", ROOT)]
                    for side, tree in sides if i % 2 == 0 else sides[::-1]:
                        out = _run(tree, w, args.seconds, args.seed + i)
                        if not out.get("correct") or out.get("failed"):
                            ok = False
                            print(f"{w}: {side} run at seed {args.seed + i}"
                                  f" not correct", file=sys.stderr)
                        runs[side].append({k: v["value"] for k, v in
                                           out.get("metrics", {}).items()})
                for m, med, q1, q3, cmed, pct, won, n in summarize(
                        runs["parent"], runs["change"], better):
                    print(f"{w:20s} {m:14s} parent {med:12.4f} "
                          f"[{q1:.4f}, {q3:.4f}]  change {cmed:12.4f} "
                          f"{pct:+7.2f}%  won {won}/{n}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(parent)], cwd=ROOT)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

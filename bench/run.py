"""sill benchmark: end-to-end and per-layer numbers for each workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seconds S          # every workload, each in a
                                              # fresh interpreter

One workload runs in this process. It sets up, plays one warm-up round of
calls into sill, then repeats the same round until ``--seconds`` have
passed. Every call is timed and checked. Times are calibrated against the
host's speed, sampled while the calls run (see ``Speedometer``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split (see bench/README.md). The last line of standard output is one JSON
object; a fuller record with the run's context goes to bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

from layers import Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# ungated numbers that go to the result file next to the metrics
CONTEXT_UNITS = {"call_ms_p90": "ms", "measured.setup_s": "s",
                 "measured.items_per_s": "1/s", "measured.call_ms_p50": "ms",
                 "host_speed_factor": "ratio", "ops_failed_ratio": "ratio"}


def _import_sill():
    """Put the checkout's src/ first on the path; None if sill is absent."""
    src = ROOT / "src"
    if not (src / "sill").is_dir() or not (ROOT / "corpus").is_dir():
        return None
    sys.path.insert(0, str(src))
    import sill.runtime  # noqa: F401  (fails loudly if the package is broken)
    return src / "sill"


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #

_PROBE_KEYS = tuple((i, i * 3, "x") for i in range(5000))
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 1)


def _probe() -> int:
    # Two halves of about equal time, as in sill's inner loops: tuple
    # hashing and dict lookups over a table the size of a large
    # configuration, then short-lived tuples and strings. The lookup half
    # alone tracked the host's slowdown of sill's allocating code too
    # little. The collector is off in the second half, so no collection of
    # sill's garbage lands in the probe; the probe's tuples die at once.
    total = 0
    for k in _PROBE_KEYS:
        total += _PROBE_TABLE[k] + hash(k) % 7
    collecting = gc.isenabled()
    gc.disable()
    try:
        out = []
        for i in range(1700):
            t = (i, "x", (i, i + 1))
            out.append(f"{i}:{t[1]}:{t[2][0]}")
        names = {}
        for s in out:
            names[s] = len(s)
    finally:
        if collecting:
            gc.enable()
    return total + len(names)


# About the fastest time of _probe() on the host the benchmark was defined
# on (2-core x86-64 sandbox, Python 3.11): calibrated times are in seconds
# of that host at its fastest.
PROBE_REF_S = 0.0013


# a call's host factor comes from the samples within WINDOW_S of it, and
# from at least MIN_SAMPLES samples
WINDOW_S = 0.25
MIN_SAMPLES = 10


class Speedometer:
    """Samples how fast the host runs Python while the benchmark runs.

    Every INTERVAL_S of wall time a SIGALRM handler times ``_probe`` (about
    3% of the time). The host drifts in slow phases of seconds to tens of
    seconds, so a single call's time says more about the host than about
    sill; the mean probe time over the same stretch of time says how much.
    The handler's own time is taken out of every call's time."""

    INTERVAL_S = 0.05

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0
        self.tracer = None  # told of each probe, to leave it out of spans

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe()
        dt = perf_counter() - t0
        self.at.append(t0)
        self.took.append(dt)
        self.spent += dt
        if self.tracer is not None:
            self.tracer.exclude(dt)

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """Host slowness between t0 and t1, relative to PROBE_REF_S: the
        mean probe time, as call times add up over slow and fast stretches
        alike. A window with fewer than MIN_SAMPLES samples is widened back
        to that many."""
        hi = bisect.bisect_right(self.at, t1)
        lo = min(bisect.bisect_left(self.at, t0), max(hi - MIN_SAMPLES, 0))
        if hi == 0:
            return 1.0
        return statistics.fmean(self.took[lo:hi]) / PROBE_REF_S


# --------------------------------------------------------------------------- #
# Measuring
# --------------------------------------------------------------------------- #

class Runner:
    """Executes calls, checks every outcome and keeps the failures."""

    def __init__(self, speed: Speedometer | None = None):
        self.speed = speed
        self.summaries: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, call, sink=None, tracer=None):
        """Run one call, traced if a tracer is given; return (seconds,
        verdict), or (None, None) if it raised or its outcome is wrong."""
        self.attempted += 1
        first = call.key not in self.summaries
        spent = self.speed.spent if self.speed else 0.0
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = call.fn(sink)
        except Exception as e:  # a crash is a failed operation, not an abort
            return self._fail(call.key, f"raised {e!r}")
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                tracer.end_call()
        if self.speed:
            dt -= self.speed.spent - spent
        v = call.judge(out, first)
        if v.error is not None:
            return self._fail(call.key, v.error)
        prev = self.summaries.setdefault(call.key, v.summary)
        if prev != v.summary:
            return self._fail(call.key, f"outcome {v.summary} differs from "
                                        f"the first round's {prev}")
        return dt, v

    def _fail(self, key: str, why: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")
        return None, None


def measure(workload, seconds: float, traced: bool) -> dict:
    """Run one workload; return its metrics, checks and context.

    Each round is set up afresh and played in full. A call's host factor
    is the mean probe time around it, over PROBE_REF_S; its calibrated
    time is its measured time over that factor. Set-up is calibrated the
    same way.
    """
    with Speedometer() as speed:
        return _measure(workload, seconds, traced, speed)


def _measure(workload, seconds: float, traced: bool, speed) -> dict:
    runner = Runner(speed)
    setups: list[tuple[float, float]] = []  # (calibrated, measured)
    items_of: dict[str, int] = {}
    factors: list[float] = []

    def play(rnd: int, times=None, sinks=None, tracer=None):
        """Set up and play round ``rnd``. With ``times``, append each
        call's (calibrated, measured) time to ``times[key]``, give the
        tracer its calibrated layer times, and return (key, calibrated
        seconds, verdict) rows."""
        start = perf_counter()
        workload.setup()
        setup_s = perf_counter() - start
        rows, spans, taken = [], [], []
        for call in workload.calls(rnd):
            sink = io.StringIO() if sinks is not None else None
            t0 = perf_counter()
            dt, v = runner.execute(call, sink, tracer)
            layer_times = tracer.take() if tracer is not None else None
            if v is None:
                continue
            spans.append((t0, perf_counter()))
            taken.append(layer_times)
            items_of[call.key] = v.items
            rows.append((call.key, dt, v))
            if sink is not None:
                sinks[call.key] = hashlib.sha256(
                    sink.getvalue().encode()).hexdigest()
        if times is None:
            return rows
        f = speed.factor(start - WINDOW_S, start + setup_s + WINDOW_S)
        setups.append((setup_s / f, setup_s))
        out = []
        for (key, dt, v), (t0, t1), layer_times in zip(rows, spans, taken):
            f = speed.factor(t0 - WINDOW_S, t1 + WINDOW_S)
            factors.append(f)
            times.setdefault(key, []).append((dt / f, dt))
            if layer_times is not None:
                tracer.add(layer_times, f)
            out.append((key, dt / f, v))
        return out

    extra: dict = {}
    if traced:
        # reference round without wrappers, then the same round traced: the
        # wrappers must not change a status, a step count or a trace byte
        plain_traces: dict[str, str] = {}
        play(0, sinks=plain_traces)
        tracer = speed.tracer = Tracer()
        tracer.install()
        traced_traces: dict[str, str] = {}
        play(0, sinks=traced_traces, tracer=tracer)
        tracer.uninstall()
        tracer.reset()
        if traced_traces != plain_traces:
            runner.failed += 1
            runner.failures.append("traced run changed the trace bytes")
        extra["trace_digest"] = hashlib.sha256(json.dumps(
            plain_traces, sort_keys=True).encode()).hexdigest()[:16]
    else:
        play(0)  # warm-up: memo caches fill as in criterion 6
    # the high-water mark of set-up and one round: later rounds of the
    # static workloads add memo entries for their fresh names, so the mark
    # would grow with the number of rounds that fit in the time
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain: dict[str, list[tuple[float, float]]] = {}
    with_trace: dict[str, list[tuple[float, float]]] = {}
    t_rows: list = []
    rnd = 0
    start = perf_counter()
    while True:
        rnd += 1
        if traced and rnd % 2 == 0:
            tracer.install()
            t_rows += play(rnd, with_trace, tracer=tracer)
            tracer.uninstall()
        else:
            play(rnd, plain)
        if perf_counter() - start >= seconds and (not traced or rnd >= 2):
            break

    res: dict = {"attempted": runner.attempted, "failed": runner.failed,
                 "failures": runner.failures, "rounds": rnd,
                 "summaries": runner.summaries, **extra}
    if not plain:
        res["metrics"] = {}
        return res
    cal = {k: statistics.median(c for c, _ in v) for k, v in plain.items()}
    meas = {k: statistics.median(m for _, m in v) for k, v in plain.items()}
    items = sum(items_of[k] for k in cal)
    times = sorted(cal.values())
    res["samples"] = len(cal)
    res["metrics"] = {
        "setup_s": statistics.median(c for c, _ in setups),
        "items_per_s": items / sum(times),
        "call_ms_p50": statistics.median(times) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    res["context_metrics"] = {
        "call_ms_p90": (statistics.quantiles(times, n=10, method="inclusive")
                        [8] if len(times) > 1 else times[0]) * 1e3,
        "measured.setup_s": statistics.median(m for _, m in setups),
        "measured.items_per_s": items / sum(meas.values()),
        "measured.call_ms_p50": statistics.median(meas.values()) * 1e3,
        "host_speed_factor": statistics.median(factors),
        "ops_failed_ratio": runner.failed / max(runner.attempted, 1),
    }
    if traced:
        t_items = sum(v.items for _, _, v in t_rows)
        m = tracer.metrics(t_items)
        m["synchro.meet_minted_defs"] = \
            sum(v.minted for _, _, v in t_rows) / max(len(t_rows), 1)
        m["trace.total_us"] = \
            sum(dt for _, dt, _ in t_rows) / max(t_items, 1) * 1e6
        keys = [k for k in with_trace if k in cal]
        m["trace.overhead_ratio"] = sum(
            statistics.median(c for c, _ in with_trace[k]) for k in keys) \
            / sum(cal[k] for k in keys) if keys else 0.0
        res["layers"] = m
        res["absent"] = tracer.absent
    return res


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #

def _context(sill_dir: pathlib.Path) -> dict:
    lines = sum(len(p.read_text().splitlines())
                for p in sorted(sill_dir.glob("*.py")))
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "src_sill_lines": lines}


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").exists() else {}
    return {**CONTEXT_UNITS, **{
        m["name"]: m["unit"]
        for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sill_dir = _import_sill()
    if sill_dir is None:
        print("bench: no src/sill or corpus/ next to bench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports sill, so after the path is set

    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    res = measure(workload, args.seconds, bool(args.trace))
    # no layers when no call passed: the result line then reads incorrect
    metrics = res.get("layers", {}) if args.trace else res["metrics"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "input_digest": workload.input_digest(),
              "outcome_digest": hashlib.sha256(json.dumps(
                  sorted(res.pop("summaries").items())).encode()
              ).hexdigest()[:16],
              "context": _context(sill_dir), **res}
    if hasattr(workload, "verdict_shares"):
        record["verdict_shares"] = workload.verdict_shares()
    out = HERE / "out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    units = _units()
    for k, v in sorted({**metrics, **res.get("context_metrics", {})}.items()):
        print(f"{args.workload:20s} {k:40s} {v:14.4f} {units.get(k, '')}")
    for f in res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0 and bool(metrics),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()},
    }))
    return 0 if res["failed"] == 0 and metrics else 1


def _run_all(args, workloads) -> int:
    """Every workload in a fresh interpreter, one after the other."""
    worst = 0
    for name in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            last = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not last.get("correct"):
                worst = 1
                print(f"{name}: FAILED (exit {p.returncode})")
    return worst


if __name__ == "__main__":
    sys.exit(main())

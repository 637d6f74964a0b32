"""Per-layer tracing, installed from outside sill.

sill's driver and monitor look their collaborators up as module globals at
call time (``runtime.apply_step``, ``runtime.is_subtype``,
``typecheck.is_subtype``, ``runtime._Ck`` ...). The tracer swaps those
globals for timing wrappers and puts the originals back afterwards, so no
source file changes. A span's self time is its duration minus the part its
traced children cover. Only the outermost call of a layer is timed: a
layer re-entered through its own wrapper (``_Ck.linear`` recursing over a
term) runs untimed inside the outer span. A name that sill no longer has
is reported as absent and its layer reads zero. The time the speed probe
of run.py spends inside a span is taken out of it, and each call's layer
times are divided by that call's host factor, as its end-to-end time is.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# metric stem -> the names its wrappers replace. A dotted name after the
# colon is a method: the class the module looks up is replaced by a
# subclass whose method is wrapped, so only that module's callers see it.
SPANS: dict[str, tuple[str, ...]] = {
    "runtime.monitor_self": ("sill.runtime:monitor_check",),
    "runtime.gamma_monotone": ("sill.runtime:_check_gamma_monotone",),
    "typecheck.recheck": ("sill.runtime:_Ck.linear",
                          "sill.runtime:_Ck.shared"),
    "subtype.is_subtype": ("sill.subtype:is_subtype",
                           "sill.runtime:is_subtype",
                           "sill.typecheck:is_subtype",
                           "sill.synchro:is_subtype"),
    "synchro.is_ssync": ("sill.runtime:is_ssync", "sill.synchro:is_ssync"),
    "synchro.cleq": ("sill.synchro:cleq",),
    "synchro.meet": ("sill.runtime:meet", "sill.synchro:meet",
                     "sill.synchro:meet_types"),
    "printer.format_proc": ("sill.runtime:format_proc",),
    "procast.substitute": ("sill.runtime:substitute",),
    "procast.freshen": ("sill.runtime:freshen",),
    "runtime.apply_step_self": ("sill.runtime:apply_step",),
    "runtime.retopo": ("sill.runtime:_retopo",),
    "runtime.enumerate_steps": ("sill.runtime:enumerate_steps",),
    "parser.parse": ("sill.parser:parse_program",),
    "typecheck.check_program": ("sill.typecheck:check_program",),
    "printer.format_program": ("sill.printer:format_program",),
}

# layers whose call counts are reported next to their self time
COUNTED = ("typecheck.recheck", "subtype.is_subtype", "synchro.is_ssync",
           "printer.format_proc", "procast.substitute", "synchro.meet")

# live-process bins of the per-step time, upper bounds inclusive
LIVE_BINS = ((1, 25), (26, 50), (51, 100), (101, 200), (201, None))


def bin_name(lo: int, hi: int | None) -> str:
    return f"live_{lo}-{hi}" if hi is not None else f"live_{lo}-up"


def _live(cfg) -> int | None:
    """Processes in a configuration: linear entries that carry a term
    (aliases do not) plus the available shared sessions."""
    try:
        return sum(1 for e in cfg.theta if hasattr(e, "term")) + len(cfg.lam)
    except (AttributeError, TypeError):
        return None


class _Layer:
    # self_s: measured self time not yet taken; total_s: calibrated self
    # time of the calls taken so far
    __slots__ = ("self_s", "total_s", "calls", "depth")

    def __init__(self):
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.layers = {name: _Layer() for name in SPANS}
        self.absent: list[str] = []
        self.active = False
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    # -- counters ----------------------------------------------------------- #

    def reset(self) -> None:
        for layer in self.layers.values():
            layer.self_s = layer.total_s = 0.0
            layer.calls = 0
        self.enabled: list[int] = []
        self.live_peak = 0
        self.steps: list[tuple[str, float]] = []  # (bin, s), not yet taken
        self.step_times: dict[str, list[float]] = {
            bin_name(lo, hi): [] for lo, hi in LIVE_BINS}
        self.excluded = 0.0
        self._last_step: tuple[float, float, int | None] | None = None

    def exclude(self, dt: float) -> None:
        """Take ``dt`` seconds spent outside sill (in the speed probe) out
        of the innermost open span and of the step under way."""
        if self._stack:
            self._stack[-1][0] += dt
        self.excluded += dt

    def _on_apply_step(self, args) -> None:
        now = perf_counter()
        live = _live(args[0])
        self._close_step(now)
        self._last_step = (now, self.excluded, live)
        if live is not None:
            self.live_peak = max(self.live_peak, live)

    def _close_step(self, now: float) -> None:
        """The interval from one apply_step to the next in the same run is
        that step's full cost: application, monitor, next enumeration."""
        if self._last_step is None:
            return
        t, excluded, live = self._last_step
        self._last_step = None
        if live is None:
            return
        for lo, hi in LIVE_BINS:
            if live >= lo and (hi is None or live <= hi):
                self.steps.append((bin_name(lo, hi),
                                   now - t - (self.excluded - excluded)))
                break

    def end_call(self) -> None:
        self._close_step(perf_counter())

    def take(self) -> tuple[dict[str, float], list[tuple[str, float]]]:
        """The measured self times and step times since the last take."""
        taken = ({name: layer.self_s for name, layer in self.layers.items()},
                 self.steps)
        for layer in self.layers.values():
            layer.self_s = 0.0
        self.steps = []
        return taken

    def add(self, taken, factor: float) -> None:
        """Count what ``take`` returned for one call, calibrated by the
        host factor of that call as its end-to-end time is."""
        self_s, steps = taken
        for name, s in self_s.items():
            self.layers[name].total_s += s / factor
        for bname, s in steps:
            self.step_times[bname].append(s / factor)

    # -- installation ------------------------------------------------------- #

    def install(self) -> None:
        self.absent = []
        subclasses: dict[tuple[str, str], type] = {}
        hooks = {"runtime.apply_step_self": (self._on_apply_step, None),
                 "runtime.enumerate_steps":
                     (None, lambda r: self.enabled.append(len(r)))}
        for name, targets in SPANS.items():
            pre, post = hooks.get(name, (None, None))
            for target in targets:
                modname, _, attr = target.partition(":")
                mod = importlib.import_module(modname)
                owner, _, meth = attr.rpartition(".")
                if owner:
                    cls = subclasses.get((modname, owner))
                    if cls is None:
                        base = getattr(mod, owner, None)
                        if not isinstance(base, type):
                            self.absent.append(target)
                            continue
                        cls = type(base.__name__, (base,), {})
                        subclasses[(modname, owner)] = cls
                        self._restore.append((mod, owner, base))
                        setattr(mod, owner, cls)
                    fn = getattr(cls, meth, None)
                    if fn is None:
                        self.absent.append(target)
                        continue
                    setattr(cls, meth, self._wrap(fn, self.layers[name],
                                                  pre, post))
                else:
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        self.absent.append(target)
                        continue
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn, self.layers[name],
                                                  pre, post))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, fn, layer: _Layer, pre, post):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not tracer.active or layer.depth:
                return fn(*args, **kw)
            if pre is not None:
                pre(args)
            frame = [0.0]
            stack.append(frame)
            layer.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dur = perf_counter() - t0
                layer.depth -= 1
                stack.pop()
                layer.self_s += dur - frame[0]
                layer.calls += 1
                if stack:
                    stack[-1][0] += dur
            if post is not None:
                post(result)
            return result

        return traced

    # -- results ------------------------------------------------------------ #

    def metrics(self, items: int) -> dict[str, float]:
        """Calibrated self time in microseconds and calls, both per work
        item, plus the configuration-layer shape of the added calls."""
        items = max(items, 1)
        out: dict[str, float] = {}
        for name, layer in self.layers.items():
            out[f"{name}_us"] = layer.total_s / items * 1e6
            if name in COUNTED:
                out[f"{name}_calls"] = layer.calls / items
        out["runtime.enabled_steps_mean"] = \
            statistics.fmean(self.enabled) if self.enabled else 0.0
        out["runtime.live_procs_peak"] = float(self.live_peak)
        for bname, times in self.step_times.items():
            out[f"runtime.step_us_p50.{bname}"] = \
                statistics.median(times) * 1e6 if times else 0.0
        return out

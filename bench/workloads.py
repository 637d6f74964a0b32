"""The benchmark's workloads: inputs made from a seed, the calls into sill
that are timed, and the reference checks on what those calls return.

A workload hands out rounds of calls. Every round does the same work:
runtime rounds repeat the same (program, scheduler seed) runs, and the
static rounds repeat the same programs and queries under fresh type names,
so the module-level memos of sill cannot carry a verdict from one round
into the next. ``run.py`` times and checks each call and keeps, per call,
the median of its calibrated times over the rounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

# module objects, not names: the tracer swaps module attributes, and the
# calls below look them up at call time
from sill import parser, printer, runtime, subtype, synchro, typecheck
from sill.types import Ref, TypeDef, TypeDefEnv, validate_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# The statuses README.md documents for the corpus, as pinned by
# EXPECTED_STATUS in tests/test_runtime.py, under a 300-step cap.
EXPECTED_STATUS = {
    "auction": "max_steps",
    "basics": "all_poised",
    "dd": "max_steps",
    "handoff": "max_steps",
    "ignore": "all_poised",
    "queue": "all_poised",
    "stuck": "stuck_acquire",
}
MAX_STEPS = 300


@dataclass
class Verdict:
    """What the benchmark learned from one call.

    ``items`` is the work the call did (rewriting steps for a run, 1 for a
    check or a query); ``summary`` must repeat exactly in every round;
    ``error`` is None when the outcome matches the reference answer.
    """
    items: int
    summary: str
    error: str | None = None
    minted: int = 0


@dataclass
class Call:
    key: str  # the same in every round
    fn: Callable[[Any], Any]  # fn(trace_sink) -> outcome
    judge: Callable[[Any, bool], Verdict]  # judge(outcome, first_time)


def _seeds(seed: int, tag: str, n: int) -> list[int]:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(n)]


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Generated wide programs
# --------------------------------------------------------------------------- #

def queue_prelude() -> str:
    """Types and processes of corpus/queue.sill without its Main and
    system block."""
    src = (CORPUS / "queue.sill").read_text()
    cut = src.find("proc Main")
    if cut < 0:
        raise RuntimeError("corpus/queue.sill has no Main process")
    return src[:cut]


def wide_steps(batches: int, cells: int, clients: int) -> int:
    """Steps of a wide program run to quiescence: spawn, put and wait per
    cell; spawn and wait per batch; per client spawn, acquire, two
    messages, release and wait, plus the queue's respawn and forward."""
    return 3 * batches * cells + 2 * batches + 8 * clients


def wide_source(rng: random.Random, batches: int, cells: int,
                clients: int) -> str:
    """A two-level program: ``Main`` spawns ``batches`` Batch processes,
    then ``clients`` clients of one shared queue, then waits for all of
    them; ``rng`` picks Writer or Reader for each client. Each Batch spawns
    its linear cells before draining them, so its term stays at 3 actions
    per cell; no term is long enough to reach the parser's recursion
    limit."""
    spawn = [f"c{i} <- spawn Cell();" for i in range(cells)]
    drain = [f"v{i} <- get c{i}; wait c{i};" for i in range(cells)]
    starts = [f"b{i} <- spawn Batch();" for i in range(batches)]
    starts += [f"k{j} <- spawn {rng.choice(('Writer', 'Reader'))}(q);"
               for j in range(clients)]
    waits = [f"wait b{i};" for i in range(batches)]
    waits += [f"wait k{j};" for j in range(clients)]
    return "\n".join([
        queue_prelude(),
        "type cell = !int. 1",
        "proc Cell : () |- c: cell = put c 1; close c",
        "proc Batch : () |- b: 1 =\n    " + "\n    ".join(spawn + drain)
        + "\n    close b",
        "proc Main : (sh q: shared_queue) |- x: 1 =\n    "
        + "\n    ".join(starts + waits) + "\n    close x",
        "system {\n    q <- spawn QueueProv();\n    main Main(q);\n}",
        "",
    ])


# --------------------------------------------------------------------------- #
# Runtime workloads
# --------------------------------------------------------------------------- #

def _checked(src: str):
    diags, prog = typecheck.check_program(parser.parse_program(src))
    if diags:
        raise RuntimeError(f"benchmark input does not typecheck: {diags[0]}")
    return prog


def _run_call(key: str, prog, seed: int, monitor: bool, policy: str,
              max_steps: int, reference: Callable) -> Call:
    def fn(sink):
        return runtime.run(prog, seed=seed, max_steps=max_steps,
                           monitor=monitor, policy=policy, trace=sink)

    base_defs = len(prog.types.defs)

    def judge(r, first: bool) -> Verdict:
        status = r.status.value
        return Verdict(r.steps, f"{status}/{r.steps}",
                       reference(status, r.steps, r.violation),
                       len(r.config.env.defs) - base_defs)

    return Call(key, fn, judge)


class Corpus:
    """The seven corpus programs, each under ``runs`` scheduler seeds,
    300-step cap, random policy; the criterion-6 load."""

    def __init__(self, seed: int, monitor: bool, runs: int = 4):
        self.monitor = monitor
        self.run_seeds = _seeds(seed, "corpus", runs)

    def setup(self) -> None:
        self.sources = {p.stem: p.read_text()
                        for p in sorted(CORPUS.glob("*.sill"))}
        if set(self.sources) != set(EXPECTED_STATUS):
            raise RuntimeError(f"unexpected corpus {sorted(self.sources)}")
        self.progs = {stem: _checked(src)
                      for stem, src in self.sources.items()}

    def input_digest(self) -> str:
        return _digest(*(self.sources[s] for s in sorted(self.sources)),
                       repr(self.run_seeds))

    def calls(self, rnd: int) -> list[Call]:
        out = []
        for s in self.run_seeds:
            for stem, prog in self.progs.items():
                want = EXPECTED_STATUS[stem]

                def reference(status, steps, violation, want=want):
                    if violation is not None:
                        return f"monitor violation: {violation}"
                    if status != want:
                        return f"status {status}, expected {want}"
                    return None

                out.append(_run_call(f"{stem}@{s}", prog, s, self.monitor,
                                     "random", MAX_STEPS, reference))
        return out


class Wide:
    """One generated wide program run to quiescence under the monitor.

    The run uses the fifo policy. Its canonical order spawns everything
    before it drains anything, so live processes climb past 200, and the
    run does the same work for every seed: under the random policy the
    peak stayed near 150 at this size and the cost of a run varied with
    the schedule. The workload seed picks each client's kind."""

    def __init__(self, seed: int, shape: tuple[int, int, int] = (16, 10, 32)):
        self.seed = seed
        self.shape = shape

    def setup(self) -> None:
        self.source = wide_source(random.Random(f"wide:{self.seed}"),
                                  *self.shape)
        self.prog = _checked(self.source)

    def input_digest(self) -> str:
        return _digest(self.source)

    def calls(self, rnd: int) -> list[Call]:
        want = wide_steps(*self.shape)

        def reference(status, steps, violation):
            if violation is not None:
                return f"monitor violation: {violation}"
            if status != "all_poised" or steps != want:
                return f"{status} after {steps} steps, expected " \
                       f"all_poised after {want}"
            return None

        # the cap only guards against a run that never ends
        return [_run_call("wide", self.prog, 0, True, "fifo", 2 * want + 10,
                          reference)]


# --------------------------------------------------------------------------- #
# Static workloads
# --------------------------------------------------------------------------- #

_TYPE_DECL = re.compile(r"\btype\s+([A-Za-z_][A-Za-z0-9_]*)")
_COMMENT = re.compile(r"//[^\n]*")


def rename_types(src: str, suffix: str) -> str:
    """Append ``suffix`` to every declared type name. The rename is of
    whole identifiers and consistent across the file, so a label or a
    channel that shares a type's name is renamed along with it and the
    program keeps its meaning."""
    names = set(_TYPE_DECL.findall(_COMMENT.sub("", src)))
    if not names:
        return src
    word = re.compile(r"\b(" + "|".join(sorted(names)) + r")\b")
    return word.sub(lambda m: m.group(1) + suffix, src)


class StaticCheck:
    """``sill check`` plus ``sill fmt``: parse, typecheck and format the
    corpus and generated wide programs, under fresh type names each round."""

    SHAPES = ((1, 4, 2), (2, 6, 4), (3, 8, 8), (4, 10, 12), (6, 10, 16),
              (8, 10, 24))

    def __init__(self, seed: int, shapes=SHAPES):
        self.seed = seed
        self.shapes = shapes

    def setup(self) -> None:
        rng = random.Random(f"static:{self.seed}")
        self.sources = {p.stem: p.read_text()
                        for p in sorted(CORPUS.glob("*.sill"))}
        for i, shape in enumerate(self.shapes):
            self.sources[f"wide{i}"] = wide_source(rng, *shape)

    def input_digest(self) -> str:
        return _digest(*(f"{k}\n{v}" for k, v in sorted(self.sources.items())))

    def calls(self, rnd: int) -> list[Call]:
        suffix = f"_r{rnd}"

        def make(name: str, src: str) -> Call:
            def fn(_sink):
                prog = parser.parse_program(src)
                diags, _ = typecheck.check_program(prog)
                return diags, printer.format_program(prog)

            def judge(out, first: bool) -> Verdict:
                diags, text = out
                err = None
                if diags:
                    err = f"diagnostics: {diags[0]}"
                elif printer.format_program(parser.parse_program(text)) \
                        != text:
                    err = "fmt is not a fixed point"
                return Verdict(1, _digest(text.replace(suffix, "")), err)

            return Call(name, fn, judge)

        return [make(name, rename_types(src, suffix))
                for name, src in self.sources.items()]


def _rename_type(t, suffix: str):
    """The same session type with every definition name suffixed."""
    if isinstance(t, Ref):
        return Ref(t.name + suffix)
    if isinstance(t, tuple):
        return tuple(_rename_type(x, suffix) for x in t)
    if dataclasses.is_dataclass(t):
        return dataclasses.replace(t, **{
            f.name: _rename_type(getattr(t, f.name), suffix)
            for f in dataclasses.fields(t)})
    return t


def _oracle_leq(env, a, b) -> bool:
    return subtype.bounded_oracle(env, a, b, subtype.exact_bound(env, a, b))


# The kinds of judgment in the proportion the monitor poses them on
# corpus-monitored: calls per rewriting step, traced at seeds 1-3 (each
# is_ssync makes one is_subtype call, netted out of the is_subtype count).
# The three seeds agreed within 1%.
MONITOR_MIX = {"sub": 7.75, "ssync": 2.08, "meet": 0.22}


class Judgments:
    """``sill sub``, ``ssync`` and ``meet`` queries on random environments
    from tests/gen.py, a mix of proofs and refutations."""

    QUERIES_PER_ENV = 12

    def __init__(self, seed: int, envs: int = 600):
        self.seed = seed
        self.n_envs = envs
        self.oracle: dict[str, bool] = {}
        self.verdicts: Counter = Counter()  # (kind, verdict), first rounds
        self.envs: list = []
        self.queries: list = []

    def setup(self) -> None:
        """Generate the queries once, as the other workloads read their
        files; then validate every environment, as sill does on loading a
        program. Generating again each round would time tests/gen.py and
        the collector's passes over a heap that grows with the rounds."""
        if not self.queries:
            self._generate()
        for env in self.envs:
            diags = validate_env(env)
            if diags:
                raise RuntimeError(f"generated environment: {diags[0]}")

    def _generate(self) -> None:
        if str(ROOT / "tests") not in sys.path:
            sys.path.insert(0, str(ROOT / "tests"))
        from gen import gen_env, gen_linear_type, gen_constraint, widen
        # the environments come from criterion 3's generator stream, the
        # same for every seed; the workload seed draws the queries on them
        envs = random.Random(20260824)
        rng = random.Random(f"judgments:{self.seed}")
        for _ in range(self.n_envs):
            env = gen_env(envs)
            self.envs.append(env)
            for kind in rng.choices(list(MONITOR_MIX), k=self.QUERIES_PER_ENV,
                                    weights=list(MONITOR_MIX.values())):
                # widen gives a related pair, as the monitor's are: a
                # constructor mismatch would refute a query trivially
                a = gen_linear_type(rng, env)
                b = widen(rng, env, a)
                if kind == "sub":
                    # a proof as drawn; turned round, a refutation unless
                    # widen left the type as it was
                    if rng.random() < 0.5:
                        a, b = b, a
                    self.queries.append(("sub", env, a, b, None))
                elif kind == "ssync":
                    self.queries.append(("ssync", env, a, b,
                                         gen_constraint(rng, env)))
                else:
                    # two widenings of one type: a lower bound exists
                    self.queries.append(("meet", env, widen(rng, env, a), b,
                                         None))

    def verdict_shares(self) -> dict[str, dict[str, float]]:
        """Per kind, its share of the queries and the share of each verdict
        among its queries, from the first time each query was checked."""
        total = sum(self.verdicts.values())
        out: dict[str, dict[str, float]] = {}
        for (kind, verdict), n in sorted(self.verdicts.items()):
            out.setdefault(kind, {})[verdict] = n
        for kind, counts in out.items():
            n = sum(counts.values())
            out[kind] = {"share": n / total,
                         **{v: c / n for v, c in counts.items()}}
        return out

    def input_digest(self) -> str:
        return _digest(*(repr(q) for q in self.queries))

    def calls(self, rnd: int) -> list[Call]:
        suffix = f"_r{rnd}"
        envs: dict[int, Any] = {}
        out = []
        for i, (kind, env, a, b, d) in enumerate(self.queries):
            renv = envs.get(id(env))
            if renv is None:
                renv = envs[id(env)] = TypeDefEnv(tuple(
                    TypeDef(x.name + suffix, x.modality,
                            _rename_type(x.body, suffix)) for x in env.defs))
            out.append(self._call(f"q{i}", kind, renv,
                                  _rename_type(a, suffix),
                                  _rename_type(b, suffix),
                                  _rename_type(d, suffix), suffix))
        return out

    def _call(self, key, kind, renv, a, b, d, suffix) -> Call:
        oracle = self.oracle

        def expect() -> bool:
            # renaming does not change a verdict, so one oracle answer per
            # query serves every round
            if key not in oracle:
                oracle[key] = _oracle_leq(renv, a, b)
            return oracle[key]

        if kind == "sub":
            def fn(_sink):
                return subtype.is_subtype(renv, a, b)

            def judge(ok, first: bool) -> Verdict:
                err = None if ok == expect() else \
                    f"is_subtype says {ok}, the bounded oracle disagrees"
                if first:
                    self.verdicts["sub", str(ok).lower()] += 1
                return Verdict(1, str(ok), err)

        elif kind == "ssync":
            def fn(_sink):
                try:
                    return synchro.is_ssync(renv, a, b, d)
                except synchro.SsyncPreconditionError:
                    return None  # what `sill ssync` reports as exit 2

            def judge(ok, first: bool) -> Verdict:
                err = None
                if (ok is None) == expect():
                    err = "ssync precondition disagrees with the oracle"
                if first:
                    self.verdicts["ssync", str(ok).lower()] += 1
                return Verdict(1, str(ok), err)

        else:
            def fn(_sink):
                return synchro.meet_types(renv, a, b)

            def judge(out, first: bool) -> Verdict:
                t, env2 = out
                minted = len(env2.defs) - len(renv.defs)
                if first:
                    self.verdicts["meet", "none" if t is None else "some"] += 1
                if t is None:
                    return Verdict(1, "none", None, minted)
                text = printer.format_type(t) + "".join(
                    f";{x.name}={printer.format_type(x.body)}"
                    for x in env2.defs[len(renv.defs):])
                err = None
                # a lower bound of both arguments, decided by the oracle;
                # later rounds must repeat the first round's result
                if first and not (_oracle_leq(env2, t, a)
                                  and _oracle_leq(env2, t, b)):
                    err = "meet is not a lower bound of its arguments"
                return Verdict(1, text.replace(suffix, ""), err, minted)

        return Call(key, fn, judge)


# name -> workload made from the workload seed; BENCHMARK.json says why
# each one exists
WORKLOADS: dict[str, Callable[[int], Any]] = {
    "corpus-monitored": lambda seed: Corpus(seed, monitor=True),
    "corpus-unmonitored": lambda seed: Corpus(seed, monitor=False),
    "wide-monitored": Wide,
    "static-check": StaticCheck,
    "judgments": Judgments,
}

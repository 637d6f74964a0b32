"""The benchmark's own checks: deterministic inputs, the wide step-count
formula, clean tiny runs of every workload, and the tracer's hygiene."""

import json
import random
import sys
import types

import pytest

import layers
import run as bench
import workloads as wl

TINY = {
    "corpus-monitored": lambda s: wl.Corpus(s, monitor=True, runs=1),
    "corpus-unmonitored": lambda s: wl.Corpus(s, monitor=False, runs=1),
    "wide-monitored": lambda s: wl.Wide(s, shape=(2, 3, 8)),
    "static-check": lambda s: wl.StaticCheck(s, shapes=((1, 2, 8),)),
    "judgments": lambda s: wl.Judgments(s, envs=2),
}


def _spec():
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(wl.WORKLOADS) \
        == {w["name"] for w in _spec()["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_are_deterministic_per_seed(name):
    digests = []
    for seed in (3, 3, 4):
        w = TINY[name](seed)
        w.setup()
        digests.append(w.input_digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_wide_step_count_formula_matches_a_run():
    from sill.runtime import run
    assert wl.wide_steps(10, 10, 40) == 640
    for shape in ((2, 3, 2), (3, 4, 5)):
        prog = wl._checked(wl.wide_source(random.Random(1), *shape))
        r = run(prog, seed=5, max_steps=10_000)
        assert (r.status.value, r.steps) == ("all_poised",
                                             wl.wide_steps(*shape))


def test_rename_types_keeps_programs_checking():
    from sill.parser import parse_program
    from sill.typecheck import check_program
    for src in (p.read_text() for p in sorted(wl.CORPUS.glob("*.sill"))):
        renamed = wl.rename_types(src, "_r7")
        assert renamed != src
        diags, _ = check_program(parse_program(renamed))
        assert diags == []


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_completes_at_tiny_size(name, traced):
    w = TINY[name](0)
    res = bench.measure(w, seconds=0.01, traced=traced)
    assert res["failed"] == 0, res["failures"]
    assert res["context_metrics"]["ops_failed_ratio"] == 0
    spec = _spec()
    want = {m["name"] for m in spec["end_to_end"]}
    assert set(res["metrics"]) == want
    if traced:
        assert set(res["layers"]) == {m["name"] for m in spec["per_layer"]}
        # a name a later change removes is reported, not fatal
        targets = {t for ts in layers.SPANS.values() for t in ts}
        assert set(res["absent"]) <= targets
        assert res["trace_digest"]
    if hasattr(w, "verdict_shares"):
        shares = w.verdict_shares()
        assert sum(k["share"] for k in shares.values()) == pytest.approx(1)
        for kind in shares.values():
            assert sum(v for n, v in kind.items() if n != "share") \
                == pytest.approx(1)


def test_wrong_outcome_counts_as_failed():
    w = wl.Corpus(0, monitor=False, runs=1)
    w.setup()
    call = w.calls(0)[0]
    runner = bench.Runner()
    runner.execute(call)
    bad = wl.Call(call.key, lambda sink: 1 / 0, call.judge)
    assert runner.execute(bad) == (None, None)
    assert runner.failed == 1 and "ZeroDivisionError" in runner.failures[0]


@pytest.fixture
def fake_layer(monkeypatch):
    """A module whose recursive function calls itself through its global,
    traced as one layer, plus a name that does not exist."""
    mod = types.ModuleType("bench_fake")

    def countdown(n):
        if n == 0:
            mod.at_bottom()
            return 0
        return 1 + mod.countdown(n - 1)

    mod.countdown = countdown
    mod.at_bottom = lambda: None
    monkeypatch.setitem(sys.modules, "bench_fake", mod)
    monkeypatch.setattr(layers, "SPANS", {
        "fake.countdown": ("bench_fake:countdown", "bench_fake:gone",
                           "bench_fake:Gone.method"),
    })
    return mod


def test_tracer_times_outermost_call_and_reports_absent(fake_layer):
    tracer = layers.Tracer()
    tracer.install()
    assert tracer.absent == ["bench_fake:gone", "bench_fake:Gone.method"]
    tracer.active = True
    assert fake_layer.countdown(50) == 50
    tracer.active = False
    tracer.uninstall()
    layer = tracer.layers["fake.countdown"]
    assert layer.calls == 1 and layer.self_s > 0
    assert fake_layer.countdown.__name__ == "countdown"
    assert not hasattr(fake_layer.countdown, "__wrapped__")


def test_tracer_excludes_probe_time_and_calibrates_per_call(fake_layer):
    tracer = layers.Tracer()
    tracer.install()
    tracer.active = True
    tracer.exclude(5.0)  # outside any span: no layer pays for it
    assert fake_layer.countdown(3) == 3
    clean = tracer.take()
    fake_layer.at_bottom = lambda: tracer.exclude(5.0)  # a probe in a span
    assert fake_layer.countdown(3) == 3
    probed = tracer.take()
    tracer.active = False
    tracer.uninstall()
    assert 0 < clean[0]["fake.countdown"] < 1.0
    assert probed[0]["fake.countdown"] < -4.0
    tracer.add(clean, 2.0)
    assert tracer.layers["fake.countdown"].total_s == \
        pytest.approx(clean[0]["fake.countdown"] / 2)


def test_speedometer_factor_is_the_mean_probe_time_around_a_span():
    sp = bench.Speedometer()
    assert sp.factor(0.0, 1.0) == 1.0  # no sample yet
    ref = bench.PROBE_REF_S
    for i in range(40):  # one sample every 0.1 s; slow from t=2 on
        sp.at.append(i / 10)
        sp.took.append(ref * (2.0 if i >= 20 else 1.0))
    assert sp.factor(0.0, 1.95) == pytest.approx(1.0)
    assert sp.factor(2.0, 3.9) == pytest.approx(2.0)
    assert sp.factor(1.0, 2.95) == pytest.approx(1.5)
    # a span with fewer than MIN_SAMPLES samples widens back in time:
    # 2.45 s takes the samples from 1.5 s to 2.4 s, half of them slow
    assert bench.MIN_SAMPLES == 10
    assert sp.factor(2.45, 2.46) == pytest.approx(1.5)

"""Tests for the benchmark's own code: tracer arithmetic, restoration, names."""

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_TARGETS, Target, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, corpus_plan  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def fake_package():
    """A two-module package whose second module imports by name."""

    clock = [0.0]
    layers = types.ModuleType("fakepkg.layers")

    def inner():
        clock[0] += 3.0

    def outer():
        clock[0] += 1.0
        sys.modules["fakepkg.layers"].inner()
        clock[0] += 2.0

    def recurse(depth):
        clock[0] += 1.0
        if depth:
            sys.modules["fakepkg.user"].recurse(depth - 1)

    layers.inner, layers.outer, layers.recurse = inner, outer, recurse
    user = types.ModuleType("fakepkg.user")
    user.recurse = recurse
    sys.modules.update({"fakepkg.layers": layers, "fakepkg.user": user})
    yield clock, layers, user
    for name in ("fakepkg.layers", "fakepkg.user", "fakepkg.late"):
        sys.modules.pop(name, None)


def _tracer(clock, targets):
    return Tracer(targets, clock=lambda: clock[0], package="fakepkg")


def test_self_time_subtracts_direct_children(fake_package):
    clock, layers, _ = fake_package
    targets = [Target("outer", "fakepkg.layers", "outer"), Target("inner", "fakepkg.layers", "inner")]
    with _tracer(clock, targets) as tracer:
        layers.outer()
        layers.inner()
    summary = tracer.summary()
    assert summary["outer"] == {"self_s": 3.0, "incl_s": 6.0, "calls": 1}
    assert summary["inner"] == {"self_s": 6.0, "incl_s": 6.0, "calls": 2}


def test_recursion_counts_inclusive_time_once(fake_package):
    clock, _, user = fake_package
    with _tracer(clock, [Target("rec", "fakepkg.layers", "recurse")]) as tracer:
        user.recurse(2)
    assert tracer.summary()["rec"] == {"self_s": 3.0, "incl_s": 3.0, "calls": 3}


def test_summarize_matches_hand_computed_spans():
    spans = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0), ("b", 0, 5.0, 9.0)]
    summary = summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(3.0)
    assert summary["b"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["incl_s"] == pytest.approx(7.0)
    assert summary["c"] == {"self_s": 1.0, "incl_s": 1.0, "calls": 1}


def test_result_counts_and_late_imports_are_restored(fake_package):
    clock, layers, user = fake_package
    original = layers.recurse
    targets = [Target("rec", "fakepkg.layers", "recurse", ("rec.zero", lambda r: r is None))]
    with _tracer(clock, targets) as tracer:
        assert user.recurse is not original
        late = types.ModuleType("fakepkg.late")
        late.recurse = layers.recurse  # a module imported while tracing
        sys.modules["fakepkg.late"] = late
        user.recurse(1)
    assert tracer.counts["rec.zero"] == 2
    assert layers.recurse is original and user.recurse is original and late.recurse is original


def _bindings():
    """Every repro module global and traced class attribute, by identity."""

    import importlib

    for target in LAYER_TARGETS:
        importlib.import_module(target.module)
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(module).items():
                if callable(value):
                    snapshot[(name, attr)] = value
    for target in LAYER_TARGETS:
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(sys.modules[target.module], owner_name)
            snapshot[(target.module, target.qualname)] = owner.__dict__[attr]
    return snapshot


def test_traced_campaign_restores_every_wrapped_name():
    from repro.core.campaign import Campaign, CampaignConfig

    before = _bindings()
    with Tracer() as tracer:
        import repro.core.validation as validation

        assert validation.parse_program is not before[("repro.p4.parser", "parse_program")]
        Campaign(CampaignConfig(programs=2, seed=5, platforms=("p4c", "bmv2"))).run()
    after = _bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
    summary = tracer.summary()
    for layer in ("generator", "p4.parse", "compiler.prefix", "validation", "testgen", "engine.unit"):
        assert summary[layer]["calls"] > 0, layer


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_are_well_formed_and_unique():
    document = _benchmark()
    names = [entry["name"] for entry in document["workloads"]]
    names += [entry["name"] for entry in document["end_to_end"] + document["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [(entry["name"], entry["why"]) for entry in document["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()
    ]


def _synthetic_batch(corpus, traced, jobs=1):
    return {
        "corpus": corpus, "trace": traced, "units": 4, "jobs": jobs, "wall_s": 2.0,
        "reference_s": run.REFERENCE_S,
        "setup_s": 0.5, "rss_mb": 40.0, "unit_elapsed_s": {f"{i}:p4c": 0.1 * (i % 4 + 1) for i in range(12)},
        "failed": 0, "reports": [], "counters": {"prefix_hits": 3, "prefix_misses": 1},
        "gauges": {"intern_terms": 10, "simplify_entries": 5},
        "layers": {"p4.parse": {"self_s": 1.0, "incl_s": 1.0, "calls": 7}},
        "counts": {"testgen.abstained": 1},
        "triage": {"reports": 0, "wall_s": 0.0, "unit_s": 0.0, "mean_reduction": 0.0,
                   "oracle_calls": 0, "kept_edits": 0},
    }


def test_printed_metrics_are_exactly_the_listed_ones():
    document = _benchmark()
    batches = [_synthetic_batch(corpus, False) for corpus in range(3)]
    assert set(run.end_to_end_metrics(batches)) == {e["name"] for e in document["end_to_end"]}
    pairs = [(_synthetic_batch(0, False), _synthetic_batch(0, True))]
    metrics = run.per_layer_metrics(pairs)
    assert set(metrics) == {entry["name"] for entry in document["per_layer"]}
    assert metrics["p4.parse.calls"] == 7
    assert metrics["compiler.prefix.hit_rate"] == 0.75
    assert metrics["testgen.abstained"] == 1
    args = types.SimpleNamespace(seed=1, trace=0, seconds=1.0)
    record = run.provenance(args, WORKLOADS["clean-hotpath"], batches)
    assert record["cpu_count"] == os.cpu_count() and record["unit_samples"] == 36


def test_corpus_plan_draws_one_corpus_per_cost_stratum():
    workload = WORKLOADS["clean-hotpath"]
    costs = {corpus: 1.0 + corpus / 40 for corpus in range(40)}  # median 1.4875 s
    plans = [corpus_plan(workload, seed, costs, 6.0) for seed in range(6)]
    assert plans[3] == corpus_plan(workload, 3, costs, 6.0)
    assert len({tuple(plan) for plan in plans}) > 1
    for plan in plans:
        assert [corpus * 4 // 40 for corpus in plan] == [0, 1, 2, 3]
    assert corpus_plan(WORKLOADS["fleet-2"], 3, costs, 6.0) == plans[3]
    assert len(corpus_plan(workload, 3, costs, 30.0)) == 20
    assert len(corpus_plan(workload, 3, costs, 0.1)) == 2


def test_throughput_is_units_over_summed_real_wall_times():
    batches = [_synthetic_batch(corpus, False) for corpus in range(3)]
    for batch, wall in zip(batches, (5.0, 2.0, 3.0)):
        batch["wall_s"] = wall
    batches[0]["unit_elapsed_s"] = {"0:p4c": 0.9, "1:p4c": 0.7}
    metrics = run.end_to_end_metrics(batches)
    assert metrics["units_per_s"] == pytest.approx(12 / 10.0)
    pooled = sorted([0.9, 0.7] + [0.1 * (i % 4 + 1) for i in range(12)] * 2)
    assert metrics["unit_p50_ms"] == pytest.approx(1000.0 * (pooled[12] + pooled[13]) / 2)
    # A batch run while the machine was twice as slow counts half its time.
    batches[0]["reference_s"] = 2 * run.REFERENCE_S
    assert run.end_to_end_metrics(batches)["units_per_s"] == pytest.approx(12 / 7.5)
    for batch in batches:
        batch["reference_s"] = 2 * run.REFERENCE_S
    halved = run.end_to_end_metrics(batches)
    for name in ("unit_p50_ms", "unit_p90_ms", "setup_s"):
        assert halved[name] == pytest.approx(metrics[name] / 2), name
    assert halved["peak_rss_mb"] == metrics["peak_rss_mb"]


def test_compare_is_unresolved_when_the_parent_spreads_beyond_the_bound():
    spec = {"name": "units_per_s", "better": "higher", "bound": 0.1}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.spread(steady) < 0.1
    assert compare.verdict(spec, steady, [95.0, 96.0, 94.0]) == "ok"
    assert compare.verdict(spec, steady, [80.0, 82.0, 81.0]) == "REGRESSED"
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    assert compare.spread(noisy) > 0.1
    assert compare.verdict(spec, noisy, [60.0, 61.0, 62.0]) == "unresolved"
    assert compare.verdict(spec, noisy, [100.0, 140.0, 120.0]) == "unresolved"
    assert compare.verdict(spec, noisy, [131.0, 140.0, 150.0]) == "ok"
    lower = {"name": "unit_p50_ms", "better": "lower", "bound": 0.1}
    assert compare.verdict(lower, steady, [112.0, 111.0, 113.0]) == "REGRESSED"
    assert compare.verdict(lower, noisy, [60.0, 65.0, 69.0]) == "ok"
    assert compare.verdict({"name": "p4.parse.s", "better": "lower"}, noisy, steady) == ""

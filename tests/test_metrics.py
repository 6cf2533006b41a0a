"""The process-wide counter registry and its bounded memo."""

import os
import re

import pytest

import repro.core.engine  # noqa: F401 - declares every counter a unit reports
from repro import metrics
from repro.core.engine.coordinator import SERVICE_COUNTERS
from repro.core.engine.stages import run_unit
from repro.core.engine.units import WorkUnit
from repro.core.generator import GeneratorConfig
from repro.metrics import COUNTERS, MISSING, LruCache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def counters(monkeypatch):
    """A fresh registry, so the probe caches stay out of the process's own."""

    fresh = {}
    monkeypatch.setattr(metrics, "COUNTERS", fresh)
    return fresh


class TestLruCache:
    def test_counts_hits_and_misses_under_its_name(self, counters):
        cache = LruCache("probe", 4)
        assert counters == {"probe_hits": 0, "probe_misses": 0}
        assert cache.get("a") is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("a") == 1
        assert counters == {"probe_hits": 2, "probe_misses": 1}

    def test_evicts_the_least_recently_used_entry(self, counters):
        cache = LruCache("probe", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now the least recently used
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_caches_none(self, counters):
        cache = LruCache("probe", 2)
        cache.put("a", None)
        assert cache.get("a") is None
        assert counters == {"probe_hits": 1, "probe_misses": 0}

    def test_clear_drops_entries_but_not_counts(self, counters):
        cache = LruCache("probe", 2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.clear()
        assert counters == {"probe_hits": 1, "probe_misses": 1}
        assert cache.get("a") is MISSING
        assert counters == {"probe_hits": 1, "probe_misses": 2}


def counter_names_read_by_the_benchmarks():
    """Every literal counter name ``perfbench/run.py`` and the bench harness read."""

    names = set()
    for path in ("perfbench/run.py", "benchmarks/perf/bench_campaign.py"):
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            text = handle.read()
        names.update(re.findall(r'counters\.get\(\s*"(\w+)"', text))
        for cache in re.findall(r'hit_rate\("(\w+)"\)', text):
            names.update((f"{cache}_hits", f"{cache}_misses"))
        for pair in re.findall(r'\("(\w+_hits)", "(\w+_misses)"\)', text):
            names.update(pair)
        for body in re.findall(r"PROGRAM_CACHE_MISSES = \(([^)]*)\)", text):
            names.update(re.findall(r'"(\w+)"', body))
    return names


def test_every_counter_the_benchmarks_read_is_declared():
    names = counter_names_read_by_the_benchmarks()
    # The scan itself must keep finding names of every kind.
    assert {
        "solver_sat_invocations",
        "solver_bitblast_hits",
        "prefix_misses",
        "reparse_hits",
        "packets_replayed",
        "dist_leases_issued",
        "dist_bytes_streamed",
    } <= names
    service = {name for name in names if name.startswith("dist_")}
    assert service <= set(SERVICE_COUNTERS)
    assert names - service <= set(COUNTERS)


def test_a_unit_reports_exactly_the_registry_reading():
    outcome = run_unit(WorkUnit(0, "p4c", GeneratorConfig(seed=3)))
    assert set(outcome.counters) == set(metrics.snapshot())
    assert {"gc_gen0_collections", "solver_checks", "program_misses"} <= set(outcome.counters)

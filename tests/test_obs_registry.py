"""Tests for the live metrics registry and its null counterpart."""

from __future__ import annotations

import pytest

import pickle

from repro.core.services import EngineStats
from repro.errors import ConfigError
from repro.obs.registry import (
    NULL_METRICS,
    STATS_COUNTERS,
    MetricsRegistry,
    NullMetrics,
    RegistrySnapshot,
    counted,
)
from repro.obs.tracer import Seam


def counting(registry: MetricsRegistry, **fields) -> EngineStats:
    """Bind ``registry`` to a fresh stats object; returns the stats."""
    stats = EngineStats(**fields)
    registry.read_from(lambda: counted(stats))
    return stats


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        """Counters are read from the bound stats whenever they are read;
        the registry increments nothing."""
        registry = MetricsRegistry()
        assert registry.counter("deliveries") == 0.0  # nothing bound yet
        stats = counting(registry)
        stats.deliveries += 5
        stats.revenue += 2.5
        assert registry.counter("deliveries") == 5.0
        assert registry.counter("revenue") == 2.5
        assert registry.counter("missing") == 0.0

    def test_learner_pair_adds_counters_and_gauges(self):
        registry = MetricsRegistry()
        learned = ({"linucb_syncs": 3.0}, {"linucb_arms": 2.0})
        registry.read_from(lambda: counted(EngineStats(posts=1), learned))
        assert registry.counter("linucb_syncs") == 3.0
        assert registry.counter("posts") == 1.0
        assert registry.gauge("linucb_arms") == 2.0
        assert registry.snapshot(0.0).gauges == {"linucb_arms": 2.0}

    def test_a_shipped_registry_leaves_its_source_behind(self):
        """A worker's registry crosses the wire without its engine: the
        windows travel, the receiver counts from its own roll-up."""
        registry = MetricsRegistry(window_s=30.0)
        counting(registry, deliveries=9)
        registry.observe_stage("delivery", 0.001, at=1.0)
        shipped = pickle.loads(pickle.dumps(registry))
        assert shipped.histogram("stage_delivery").total_count == 1
        assert shipped.histogram("stage_delivery").window_s == 30.0
        assert shipped.counter("deliveries") == 0.0
        assert registry.counter("deliveries") == 9.0

    def test_gauges_overwrite(self):
        """A gauge reads its owner's current value."""
        registry = MetricsRegistry()
        gauges = {"queue_depth": 3.0}
        registry.read_from(lambda: ({}, gauges))
        gauges["queue_depth"] = 1.0
        assert registry.gauge("queue_depth") == 1.0
        assert registry.gauge("missing", 7.0) == 7.0


class TestWindowedHistograms:
    def test_histograms_created_with_registry_geometry(self):
        registry = MetricsRegistry(window_s=30.0, num_buckets=3)
        sketch = registry.histogram("stage_delivery")
        assert sketch.window_s == 30.0
        assert sketch.num_buckets == 3
        assert registry.histogram("stage_delivery") is sketch  # cached

    def test_observe_stage_prefixes(self):
        registry = MetricsRegistry()
        registry.observe_stage("delivery", 0.002, at=5.0)
        assert list(registry.snapshot().windows) == ["stage_delivery"]
        assert registry.histogram("stage_delivery").total_count == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry(window_s=0.0)


class TestHierarchy:
    def test_spawn_merge_rolls_up_all_metric_kinds(self):
        parent = MetricsRegistry(window_s=60.0)
        children = [parent.spawn() for _ in range(3)]
        for shard, child in enumerate(children):
            counting(child, deliveries=10 * (shard + 1))
            child.observe_stage("latency", 0.001 * (shard + 1), at=float(shard))
        for child in children:
            parent.merge(child)
        assert parent.histogram("stage_latency").total_count == 3
        # Counters and gauges are never summed: a roll-up reads its own.
        assert parent.counter("deliveries") == 0.0
        counting(parent, deliveries=60)
        assert parent.counter("deliveries") == 60.0

    def test_merge_null_is_noop(self):
        parent = MetricsRegistry()
        counting(parent, posts=1)
        parent.merge(NULL_METRICS)
        assert parent.counter("posts") == 1.0

    def test_merge_geometry_mismatch_propagates(self):
        parent = MetricsRegistry(window_s=60.0)
        other = MetricsRegistry(window_s=30.0)
        other.observe_stage("latency", 0.001, at=0.0)
        parent.observe_stage("latency", 0.001, at=0.0)
        with pytest.raises(ConfigError):
            parent.merge(other)


class TestSnapshot:
    def test_snapshot_freezes_everything(self):
        registry = MetricsRegistry(window_s=60.0)
        engine_stats = counting(registry, deliveries=5)
        for value in (0.001, 0.002, 0.003):
            registry.observe_stage("delivery", value, at=10.0)
        snapshot = registry.snapshot(10.0)
        assert isinstance(snapshot, RegistrySnapshot)
        assert snapshot.at == 10.0
        assert snapshot.counters["deliveries"] == 5.0
        stats = snapshot.windows["stage_delivery"]
        assert stats.count == stats.total_count == 3
        assert 0.001 <= stats.p50 <= stats.p99 <= stats.max_value * 1.01
        with pytest.raises(TypeError):
            snapshot.counters["deliveries"] = 0.0  # read-only view
        engine_stats.deliveries += 1  # the snapshot is frozen, not the source
        assert snapshot.counters["deliveries"] == 5.0

    def test_snapshot_defaults_to_latest_sample_time(self):
        registry = MetricsRegistry(window_s=10.0)
        registry.observe_stage("latency", 0.5, at=123.0)
        assert registry.snapshot().at == 123.0
        assert MetricsRegistry().snapshot().at == 0.0

    def test_snapshot_to_dict_is_json_shaped(self):
        registry = MetricsRegistry()
        counting(registry, posts=1)
        registry.observe_stage("latency", 0.1, at=1.0)
        payload = registry.snapshot(1.0).to_dict()
        assert list(payload["counters"]) == list(STATS_COUNTERS)
        assert payload["counters"]["posts"] == 1.0
        assert payload["windows"]["stage_latency"]["count"] == 1


class TestNullMetrics:
    def test_disabled_and_inert(self):
        null = NullMetrics()
        assert not null.enabled
        null.read_from(lambda: counted(EngineStats(posts=1)))
        null.merge(MetricsRegistry())
        assert null.counter("posts") == 0.0
        assert not Seam(metrics=null).enabled  # no seam ever feeds it
        assert null.spawn() is null
        snapshot = null.snapshot()
        assert snapshot.counters == {} and snapshot.windows == {}

    def test_shared_singleton(self):
        assert NULL_METRICS.spawn() is NULL_METRICS
        assert not NULL_METRICS.enabled

"""Tests for the Prometheus renderer and the timeseries JSONL sink."""

from __future__ import annotations

import json

import pytest

from repro.obs.health import HealthMonitor, SloSpec
from repro.obs.prometheus import (
    TimeseriesWriter,
    export_cluster_gauges,
    metric_name,
    read_timeseries_jsonl,
    render_prometheus,
)
from repro.core.services import EngineStats
from repro.obs.registry import MetricsRegistry, counted


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(window_s=60.0)
    counters, _ = counted(EngineStats(deliveries=42, revenue=12.5))
    registry.read_from(lambda: (counters, {"active_users": 7.0}))
    for value in (0.001, 0.002, 0.004):
        registry.observe_stage("delivery", value, at=30.0)
    return registry


class TestMetricName:
    def test_namespaced_and_sanitised(self):
        assert metric_name("deliveries") == "repro_deliveries"
        assert metric_name("stage p99/ms") == "repro_stage_p99_ms"
        assert metric_name("x", namespace="") == "x"

    def test_leading_digit_guarded(self):
        assert metric_name("9lives", namespace="") == "_9lives"


class TestRenderPrometheus:
    def test_counters_gauges_summaries(self):
        text = render_prometheus(populated_registry().snapshot(30.0))
        assert "# TYPE repro_deliveries_total counter" in text
        assert "repro_deliveries_total 42.0" in text
        assert "# TYPE repro_active_users gauge" in text
        assert "repro_active_users 7.0" in text
        assert "# TYPE repro_stage_delivery summary" in text
        assert 'repro_stage_delivery{quantile="0.5"}' in text
        assert 'repro_stage_delivery{quantile="0.99"}' in text
        assert "repro_stage_delivery_count 3" in text
        assert text.endswith("\n")

    def test_every_sample_line_parses(self):
        # Minimal exposition-format lint: non-comment lines are
        # "name{labels} value" with a float-parseable value.
        text = render_prometheus(populated_registry().snapshot(30.0))
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value)  # must parse

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == "\n"


class TestTimeseriesWriter:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "series.jsonl"
        writer = TimeseriesWriter(path)
        registry = populated_registry()
        monitor = HealthMonitor(registry, SloSpec(stage_p99_ms={"delivery": 50.0}))

        for now in (30.0, 60.0):
            report = monitor.evaluate(now, wall_seconds=1.0)
            writer.append(registry.snapshot(now), health=report)
        writer.append_summary(monitor.summary())
        assert writer.rows == 3

        rows = read_timeseries_jsonl(path)
        assert [row["label"] for row in rows] == ["interval", "interval", "summary"]
        first = rows[0]
        assert first["at"] == 30.0
        assert first["counters"]["deliveries"] == 42.0
        assert first["health"]["state"] == "ok"
        assert "stage_delivery" in first["windows"]
        assert rows[-1]["verdict"] == "ok"
        # every line is standalone JSON (streamable, concatenable)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_append_without_health(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        writer = TimeseriesWriter(path)
        writer.append(populated_registry().snapshot(30.0))
        (row,) = read_timeseries_jsonl(path)
        assert "health" not in row

    def test_writer_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "series.jsonl"
        TimeseriesWriter(path).append(populated_registry().snapshot(30.0))
        assert path.exists()

    def test_quantiles_survive_the_round_trip(self, tmp_path):
        registry = populated_registry()
        snapshot = registry.snapshot(30.0)
        path = tmp_path / "series.jsonl"
        TimeseriesWriter(path).append(snapshot)
        (row,) = read_timeseries_jsonl(path)
        stats = row["windows"]["stage_delivery"]
        assert stats["p99"] == pytest.approx(snapshot.windows["stage_delivery"].p99)
        assert stats["count"] == 3


class TestClusterGauges:
    def test_export_stamps_imbalance_and_per_shard_dispatch(self):
        registry = MetricsRegistry(window_s=60.0)
        gauges = export_cluster_gauges(dispatch_seconds=[0.5, 1.25], imbalance=1.4)
        registry.read_from(lambda: ({}, gauges))
        text = render_prometheus(registry.snapshot(30.0))
        assert "repro_load_imbalance 1.4" in text
        assert "repro_dispatch_seconds_shard_0 0.5" in text
        assert "repro_dispatch_seconds_shard_1 1.25" in text

    def test_sharded_router_exposes_the_gauges(self, tiny_workload):
        """The cluster metrics view must carry the router-side skew
        signals all the way to the scrape text."""
        from repro.cluster.sharded import ShardedEngine

        engine = ShardedEngine(
            tiny_workload, 2, metrics=MetricsRegistry(window_s=60.0)
        )
        for post in tiny_workload.posts[:6]:
            engine.post(post.author_id, post.text, post.timestamp)
        text = render_prometheus(engine.metrics.snapshot(60.0))
        assert "repro_load_imbalance" in text
        assert "repro_dispatch_seconds_shard_0" in text
        assert "repro_dispatch_seconds_shard_1" in text
        # The gauge mirrors the router's own accounting.
        by_shard = engine.dispatch_seconds_by_shard()
        assert f"repro_dispatch_seconds_shard_0 {float(by_shard[0])!r}" in text

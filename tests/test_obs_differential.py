"""Differential tests: observability must never perturb delivery results.

The same workload replayed through an engine with a ``RecordingTracer``
and one with the default ``NoopTracer`` must yield byte-identical slates,
revenue and stream counters — tracing is read-only. The recorded span
counts must also reconcile exactly with the run's ``posts``/``deliveries``
counters (the acceptance criterion of the observability layer).
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.sharded import ShardedEngine
from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.obs.health import HealthMonitor, SloSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NoopTracer, RecordingTracer
from repro.stream.simulator import FeedSimulator


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadConfig(
            num_users=35,
            num_ads=120,
            num_posts=60,
            num_topics=8,
            vocab_size=1200,
            follows_per_user=5,
            seed=19,
        )
    )


def engine_for(workload, mode, tracer, *, metrics=None):
    config = EngineConfig(mode=mode)
    return AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
        tracer=tracer,
        metrics=metrics,
    )


def register_users(engine, workload):
    for user in workload.users:
        engine.register_user(user.user_id, user.home)


def run_stream(engine, workload, *, batch_size=None, interval_s=None, on_interval=None):
    simulator = FeedSimulator(engine)
    results: list = []
    original_post = engine.post

    def capturing_post(author_id, text, timestamp, *, msg_id=None):
        result = original_post(author_id, text, timestamp, msg_id=msg_id)
        results.append(result)
        return result

    engine.post = capturing_post  # capture per-post results during the run
    try:
        metrics = simulator.run(
            workload.posts,
            checkins=workload.checkins,
            batch_size=batch_size,
            interval_s=interval_s,
            on_interval=on_interval,
        )
    finally:
        del engine.post
    return metrics, results


def canonical(results) -> str:
    """Byte-stable serialisation of every slate and revenue figure."""
    return json.dumps(
        [
            {
                "msg_id": r.msg_id,
                "revenue": round(r.revenue, 12),
                "deliveries": [
                    {
                        "user": d.user_id,
                        "slate": [(s.ad_id, round(s.score, 12)) for s in d.slate],
                        "certified": d.certified,
                        "fell_back": d.fell_back,
                        "exact": d.exact,
                    }
                    for d in r.deliveries
                ],
            }
            for r in results
        ],
        sort_keys=True,
    )


@pytest.mark.parametrize("mode", list(EngineMode))
class TestTracerNeverPerturbs:
    def test_identical_outcomes_and_counters(self, workload, mode):
        noop_engine = engine_for(workload, mode, NoopTracer())
        traced_engine = engine_for(workload, mode, RecordingTracer())
        register_users(noop_engine, workload)
        register_users(traced_engine, workload)

        noop_metrics, noop_results = run_stream(noop_engine, workload)
        traced_metrics, traced_results = run_stream(traced_engine, workload)

        assert canonical(noop_results) == canonical(traced_results)
        assert noop_metrics.posts == traced_metrics.posts
        assert noop_metrics.deliveries == traced_metrics.deliveries
        assert noop_metrics.impressions == traced_metrics.impressions
        assert noop_engine.stats.revenue == pytest.approx(
            traced_engine.stats.revenue, abs=1e-12
        )
        # the noop run reports no stage breakdown, the traced run does
        assert noop_metrics.stages == {}
        assert set(traced_metrics.stages) >= {"personalize", "delivery"}

    def test_span_counts_reconcile_with_stream_counters(self, workload, mode):
        tracer = RecordingTracer()
        engine = engine_for(workload, mode, tracer)
        register_users(engine, workload)
        metrics, _ = run_stream(engine, workload)

        stages = metrics.stages
        assert stages["vectorize"].spans == metrics.posts
        for per_delivery in ("personalize", "charge", "feedback", "delivery"):
            assert stages[per_delivery].spans == metrics.deliveries
        # one candidate span per event in every mode (EXACT's NoProbeStage
        # is still a stage — its spans just cost nothing)
        assert stages["candidate"].spans == metrics.posts
        # p50/p95/p99 are reported for every recorded stage
        for stats in stages.values():
            assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms <= stats.max_ms + 1e-9
            assert stats.spans > 0


@pytest.mark.parametrize("mode", list(EngineMode))
class TestMetricsNeverPerturb:
    """The live registry + health monitor are read-only riders: a metered,
    monitored replay must be byte-identical to a bare one."""

    def test_identical_outcomes_counters_and_revenue(self, workload, mode):
        bare_engine = engine_for(workload, mode, NoopTracer())
        registry = MetricsRegistry(window_s=3600.0)
        metered_engine = engine_for(
            workload, mode, NoopTracer(), metrics=registry
        )
        register_users(bare_engine, workload)
        register_users(metered_engine, workload)
        monitor = HealthMonitor(
            registry, SloSpec(stage_p99_ms={"delivery": 50.0})
        )

        def on_interval(now, wall_seconds):
            monitor.evaluate(now, wall_seconds=wall_seconds)

        bare_metrics, bare_results = run_stream(bare_engine, workload)
        metered_metrics, metered_results = run_stream(
            metered_engine,
            workload,
            interval_s=3600.0,
            on_interval=on_interval,
        )

        assert canonical(bare_results) == canonical(metered_results)
        assert bare_metrics.posts == metered_metrics.posts
        assert bare_metrics.deliveries == metered_metrics.deliveries
        assert bare_metrics.impressions == metered_metrics.impressions
        assert bare_engine.stats.revenue == pytest.approx(
            metered_engine.stats.revenue, abs=1e-12
        )
        # The registry's counters reconcile exactly with the stream's.
        assert registry.counter("posts") == metered_metrics.posts
        assert registry.counter("deliveries") == metered_metrics.deliveries
        assert registry.counter("impressions") == metered_metrics.impressions
        assert registry.counter("revenue") == pytest.approx(
            metered_engine.stats.revenue, abs=1e-9
        )
        # The monitor saw at least one interval; the bare run carried no
        # telemetry at all (noop default preserved).
        assert monitor.intervals >= 1
        assert metered_metrics.telemetry is not None
        assert bare_metrics.telemetry is None


class TestBatchedAndShardedTracing:
    def test_batched_run_reconciles(self, workload):
        tracer = RecordingTracer()
        rec = ContextAwareRecommender.from_workload(
            workload, EngineConfig(), tracer=tracer
        )
        metrics = rec.run_stream(workload, batch_size=8)
        assert metrics.stages["vectorize"].spans == metrics.posts
        assert metrics.stages["delivery"].spans == metrics.deliveries

    def test_sharded_parity_and_rollup(self, workload):
        config = EngineConfig(pacing_enabled=False)
        noop = ShardedEngine(workload, 3, config=config)
        traced = ShardedEngine(
            workload, 3, config=config, tracer=RecordingTracer()
        )
        for post in workload.posts[:40]:
            noop_results = noop.post(post.author_id, post.text, post.timestamp)
            traced_results = traced.post(post.author_id, post.text, post.timestamp)
            assert canonical(noop_results) == canonical(traced_results)

        report = traced.stage_report()
        total_deliveries = sum(s.deliveries for s in traced.stats_by_shard())
        assert report["delivery"].spans == total_deliveries
        assert report["vectorize"].spans == 40  # once per post, at the router
        # per-shard roll-ups sum to the merged report
        per_shard = traced.stage_report_by_shard()
        assert (
            sum(r["delivery"].spans for r in per_shard if "delivery" in r)
            == total_deliveries
        )
        # ShardStats carries the same roll-up
        for shard_stats, shard_report in zip(traced.stats_by_shard(), per_shard):
            by_name = {s.stage: s for s in shard_stats.stages}
            if "delivery" in shard_report:
                assert by_name["delivery"].spans == shard_report["delivery"].spans
                assert by_name["delivery"].spans == shard_stats.deliveries
        # busy-time imbalance is defined (and 1.0-ish territory, not inf)
        assert traced.load_imbalance(stage="personalize") >= 1.0
        assert noop.load_imbalance(stage="personalize") == 1.0  # no spans → neutral

    def test_sharded_metrics_rollup(self, workload):
        config = EngineConfig(pacing_enabled=False)
        registry = MetricsRegistry(window_s=3600.0)
        bare = ShardedEngine(workload, 3, config=config)
        metered = ShardedEngine(workload, 3, config=config, metrics=registry)
        for post in workload.posts[:40]:
            bare_results = bare.post(post.author_id, post.text, post.timestamp)
            metered_results = metered.post(post.author_id, post.text, post.timestamp)
            assert canonical(bare_results) == canonical(metered_results)

        merged = metered.metrics
        total_deliveries = sum(s.deliveries for s in metered.stats_by_shard())
        assert merged.counter("deliveries") == total_deliveries
        # the merged view counts a post once (the router's count); the
        # per-shard registries count shard touches, like per-shard stats
        assert merged.counter("posts") == 40
        by_shard = metered.metrics_by_shard()
        assert sum(r.counter("posts") for r in by_shard) == round(
            metered.amplification() * 40
        )
        # per-shard registries sum to the merged view
        assert sum(r.counter("deliveries") for r in by_shard) == total_deliveries
        # the unmetered router exposes the shared null registry
        assert not bare.metrics.enabled

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
from repro.scenarios import ScenarioDriver
from tests.conftest import workload_events


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


def engine_for(workload, mode, tracer, *, metrics=None, charged=True):
    config = EngineConfig(mode=mode, charge_impressions=charged)
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


def drive(engine, workload, *, batch_size=1, interval_s=None, on_interval=None):
    """Replay the workload's posts and check-ins; returns the totals and
    every per-post result."""
    results: list = []
    driver = ScenarioDriver(
        engine,
        workload,
        batch_size=batch_size,
        on_result=lambda msg_id, parts: results.extend(parts),
    )
    totals = driver.run(
        workload_events(workload), interval_s=interval_s, on_interval=on_interval
    )
    return totals, results


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


#: Every mode charged, and uncharged: with nothing written on delivery
#: the fan-out is served without a per-delivery callback and booked, its
#: spans included, in one pass.
TRACED_CONFIGS = [
    *(pytest.param(mode, True, id=str(mode)) for mode in EngineMode),
    *(pytest.param(mode, False, id=f"{mode}-uncharged") for mode in EngineMode),
]


@pytest.mark.parametrize("mode, charged", TRACED_CONFIGS)
class TestTracerNeverPerturbs:
    def test_identical_outcomes_and_counters(self, workload, mode, charged):
        noop_engine = engine_for(workload, mode, NoopTracer(), charged=charged)
        traced_engine = engine_for(
            workload, mode, RecordingTracer(), charged=charged
        )
        register_users(noop_engine, workload)
        register_users(traced_engine, workload)

        noop_totals, noop_results = drive(noop_engine, workload)
        traced_totals, traced_results = drive(traced_engine, workload)

        assert canonical(noop_results) == canonical(traced_results)
        assert noop_totals.posts == traced_totals.posts
        assert noop_totals.deliveries == traced_totals.deliveries
        assert noop_totals.impressions == traced_totals.impressions
        assert noop_engine.stats.revenue == pytest.approx(
            traced_engine.stats.revenue, abs=1e-12
        )
        # the noop run reports no stage breakdown, the traced run does
        assert noop_engine.tracer.snapshot() == {}
        assert set(traced_engine.tracer.snapshot()) >= {"personalize", "delivery"}

    def test_span_counts_reconcile_with_stream_counters(
        self, workload, mode, charged
    ):
        tracer = RecordingTracer()
        engine = engine_for(workload, mode, tracer, charged=charged)
        register_users(engine, workload)
        totals, _ = drive(engine, workload)

        stages = tracer.snapshot()
        assert stages["vectorize"].spans == totals.posts
        for per_delivery in ("personalize", "charge", "feedback", "delivery"):
            assert stages[per_delivery].spans == totals.deliveries
        # one candidate span per post with a follower to serve, in every
        # mode (EXACT's NoProbeStage is still a stage — its spans just
        # cost nothing); a post that reaches nobody runs no probe
        served = sum(
            1 for post in workload.posts if workload.graph.fanout(post.author_id)
        )
        assert 0 < served < totals.posts
        assert stages["candidate"].spans == served
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

        bare_totals, bare_results = drive(bare_engine, workload)
        metered_totals, metered_results = drive(
            metered_engine,
            workload,
            interval_s=3600.0,
            on_interval=on_interval,
        )

        assert canonical(bare_results) == canonical(metered_results)
        assert bare_totals.posts == metered_totals.posts
        assert bare_totals.deliveries == metered_totals.deliveries
        assert bare_totals.impressions == metered_totals.impressions
        assert bare_engine.stats.revenue == pytest.approx(
            metered_engine.stats.revenue, abs=1e-12
        )
        # The registry's counters reconcile exactly with the stream's.
        assert registry.counter("posts") == metered_totals.posts
        assert registry.counter("deliveries") == metered_totals.deliveries
        assert registry.counter("impressions") == metered_totals.impressions
        assert registry.counter("revenue") == pytest.approx(
            metered_engine.stats.revenue, abs=1e-9
        )
        # The monitor saw at least one interval; the bare run carried no
        # telemetry at all (noop default preserved).
        assert monitor.intervals >= 1
        assert metered_engine.metrics.enabled
        assert not bare_engine.metrics.enabled


class TestBatchedAndShardedTracing:
    def test_batched_run_reconciles(self, workload):
        tracer = RecordingTracer()
        rec = ContextAwareRecommender.from_workload(
            workload, EngineConfig(), tracer=tracer
        )
        totals, _ = drive(rec.engine, workload, batch_size=8)
        assert tracer.snapshot()["vectorize"].spans == totals.posts
        assert tracer.snapshot()["delivery"].spans == totals.deliveries

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

"""Transport conformance: one set of assertions, run on both transports.

Every test here takes the ``router`` fixture (``tests/conftest.py``),
which builds the cluster router over in-process shards and over worker
processes in turn. The router is one class, so what these pin is the
seam underneath it: whatever a transport does with ``submit``/``collect``,
the cluster must agree with a single engine, survive a failing request,
and round-trip its checkpoint into the *other* transport. Slates,
revenue, stats and the learner's epoch folds over whole streams are the
backend axis of ``tests/test_conformance.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import ProcessShardedEngine, ShardedEngine
from repro.cluster.rpc import channel_pair
from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.errors import UnknownAdError, UnknownUserError, WorkerCrashError
from repro.geo.point import GeoPoint
from tests.conftest import merged_slates

LIMIT = 14
CONFIG = EngineConfig(pacing_enabled=False)


def assert_matches_single(routed, reference) -> None:
    """Routed results equal the single engine's up to float-sum order."""
    assert merged_slates(routed) == {
        user: [(ad, pytest.approx(score)) for ad, score in slate]
        for user, slate in merged_slates(reference).items()
    }
    assert sum(r.revenue for r in routed) == pytest.approx(reference.revenue)


class TestParityWithSingleEngine:
    def test_broadcast_ops_reach_every_shard(self, tiny_workload, router):
        posts = tiny_workload.posts[:LIMIT]
        new_ad = replace(tiny_workload.ads[0], ad_id=999_001)
        ended = tiny_workload.ads[1].ad_id
        cluster = router(tiny_workload, 3, config=CONFIG)
        single = ContextAwareRecommender.from_workload(tiny_workload, CONFIG).engine
        for engine in (cluster, single):
            engine.checkin(posts[0].author_id, GeoPoint(1.0, 2.0), 0.0)
            engine.launch_campaign(new_ad, posts[0].timestamp)
            engine.end_campaign(ended, posts[0].timestamp)
        for post in posts:
            assert_matches_single(
                cluster.post(post.author_id, post.text, post.timestamp),
                single.post(post.author_id, post.text, post.timestamp),
            )
        state = cluster.state_dict()
        assert ended in state["retired"]
        assert [ad["ad_id"] for ad in state["launched_ads"]] == [999_001]
        assert state["users"][str(posts[0].author_id)]["location"] == [1.0, 2.0]

    def test_clicks_are_broadcast_not_summed(self, tiny_workload, router):
        config = replace(CONFIG, ctr_feedback=True)
        cluster = router(tiny_workload, 3, config=config)
        ad_id = tiny_workload.ads[0].ad_id
        for _ in range(4):
            cluster.record_click(ad_id)
        assert cluster.state_dict()["ctr"][str(ad_id)][1] == 4


class TestCheckpoint:
    def test_restores_into_the_other_transport_and_shard_count(
        self, tiny_workload, router, tmp_path
    ):
        """Save under 3 shards on this transport; a 2-shard cluster on
        the *other* transport continues like the run that never stopped."""
        posts = tiny_workload.posts[:LIMIT]
        cut = LIMIT // 2
        path = tmp_path / "cluster.ckpt"
        single = ContextAwareRecommender.from_workload(tiny_workload, CONFIG).engine
        reference = [single.post(p.author_id, p.text, p.timestamp) for p in posts]

        writer = router(tiny_workload, 3, config=CONFIG)
        writer.post_batch(posts[:cut])
        writer.checkpoint(path)

        other = ProcessShardedEngine if router.transport == "local" else ShardedEngine
        with other(tiny_workload, 2, config=CONFIG) as reader:
            reader.restore(path)
            for post, expected in zip(posts[cut:], reference[cut:]):
                assert_matches_single(
                    reader.post(post.author_id, post.text, post.timestamp),
                    expected,
                )
            final = reader.cluster_stats()
        assert final.posts == single.stats.posts
        assert final.deliveries == single.stats.deliveries
        assert final.revenue == pytest.approx(single.stats.revenue)


class TestFailedRequests:
    def test_a_handler_error_leaves_the_router_usable(self, tiny_workload, router):
        """Every shard rejects the check-in. The router must consume all
        of those replies before raising — one left behind would answer
        the next request on that shard."""
        posts = tiny_workload.posts[:LIMIT]
        cluster = router(tiny_workload, 2, config=CONFIG)
        reference = ShardedEngine(tiny_workload, 2, config=CONFIG)
        with pytest.raises(UnknownUserError):
            cluster.checkin(10**9, GeoPoint(0.0, 0.0), 0.0)
        for post in posts:
            assert cluster.post(
                post.author_id, post.text, post.timestamp
            ) == reference.post(post.author_id, post.text, post.timestamp)
        assert cluster.cluster_stats() == reference.cluster_stats()

    @pytest.mark.parametrize(
        "error, attribute",
        [
            (UnknownUserError(7), "user_id"),
            (UnknownAdError(7), "ad_id"),
            (WorkerCrashError(1, "exitcode=-9, recv failed"), "shard"),
        ],
        ids=["UnknownUserError", "UnknownAdError", "WorkerCrashError"],
    )
    def test_library_errors_survive_the_rpc_pickle(self, error, attribute):
        left, right = channel_pair()
        try:
            left.send(("err", error))
            status, received = right.recv()
        finally:
            left.close()
            right.close()
        assert status == "err"
        assert type(received) is type(error)
        assert str(received) == str(error)
        assert getattr(received, attribute) == getattr(error, attribute)


class TestRollups:
    @pytest.mark.parametrize(
        "rollup",
        ["cluster_stats", "stats_by_shard", "load_imbalance", "metrics", "tracer"],
    )
    def test_one_report_fetch_per_rollup(
        self, tiny_workload, router, rollup, monkeypatch
    ):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracer import RecordingTracer

        cluster = router(
            tiny_workload,
            2,
            config=CONFIG,
            tracer=RecordingTracer(),
            metrics=MetricsRegistry(window_s=120.0),
        )
        post = tiny_workload.posts[0]
        cluster.post(post.author_id, post.text, post.timestamp)
        requests = []
        submit = cluster.transport.submit

        def recording_submit(shard, op, payload=None):
            requests.append(op)
            return submit(shard, op, payload)

        monkeypatch.setattr(cluster.transport, "submit", recording_submit)
        value = getattr(cluster, rollup)
        if callable(value):
            value()
        assert requests == ["report"] * cluster.num_shards

    def test_the_merged_registry_counts_a_post_once(self, tiny_workload, router):
        """Every touched shard counts the post it ingested; the merged
        view a dashboard reads counts posts, not shard touches."""
        from repro.obs.registry import MetricsRegistry

        cluster = router(
            tiny_workload, 3, config=CONFIG, metrics=MetricsRegistry(window_s=120.0)
        )
        cluster.post_batch(tiny_workload.posts[:LIMIT])
        assert cluster.amplification() > 1.0
        counters = cluster.metrics.snapshot().counters
        stats = cluster.cluster_stats()
        assert counters["posts"] == stats.posts == LIMIT
        assert counters["deliveries"] == stats.deliveries
        touches = sum(
            view.counter("posts") for view in cluster.metrics_by_shard()
        )
        assert touches == pytest.approx(LIMIT * cluster.amplification())

    def test_process_lifecycle_surface_is_process_only(self, tiny_workload, router):
        """The e2e harness keys worker-CPU accounting on ``worker_pid``."""
        cluster = router(tiny_workload, 2, config=CONFIG)
        processes = router.transport == "process"
        for name in ("worker_pid", "workers_alive", "drain_worker_traces"):
            assert hasattr(cluster, name) is processes


class TestObserveHealth:
    """The closed loop's one router call: a graded interval steps every
    QoS controller exactly once and moves every tracer's breach window."""

    def test_one_grade_is_one_step(self, tiny_workload, router):
        from repro.obs.health import HealthState
        from repro.qos import QosController

        degrade_after = 2
        cluster = router(
            tiny_workload,
            3,
            config=CONFIG,
            qos=QosController(degrade_after=degrade_after, recover_after=1),
        )
        for _ in range(degrade_after - 1):
            cluster.observe_health(HealthState.OVERLOADED)
        assert cluster.qos_summary()["rung"] == 0
        cluster.observe_health(HealthState.OVERLOADED)
        summary = cluster.qos_summary()
        # One rung — not one per shard where the shards share the object.
        assert summary["rung"] == 1
        controllers = 1 if router.transport == "local" else cluster.num_shards
        assert summary["degrade_steps"] == controllers
        assert summary["intervals"] == degrade_after * controllers
        cluster.observe_health(HealthState.OK)
        assert cluster.qos_summary()["rung"] == 0

    def test_without_a_controller_it_only_moves_the_breach_window(
        self, tiny_workload, router
    ):
        from repro.obs.health import HealthState

        cluster = router(tiny_workload, 2, config=CONFIG)
        cluster.observe_health(HealthState.OVERLOADED)
        assert cluster.qos_summary() is None

    def test_the_breach_window_reaches_every_shard(self, tiny_workload, router):
        from repro.obs.health import HealthState
        from repro.obs.trace import RequestTracer

        cluster = router(
            tiny_workload,
            2,
            config=CONFIG,
            request_tracer=RequestTracer(sample_rate=0.0, tail_latency_s=60.0),
        )
        posts = iter(tiny_workload.posts)

        def shard_segments_after_one_post():
            post = next(posts)
            before = len(cluster.request_traces())
            cluster.post(post.author_id, post.text, post.timestamp)
            return cluster.request_traces()[before:]

        assert shard_segments_after_one_post() == []  # 0 % head sampling
        cluster.observe_health(HealthState.DEGRADED)
        kept = shard_segments_after_one_post()
        assert kept and all(segment.retained == "breach" for segment in kept)
        assert all(segment.process != "router" for segment in kept)
        cluster.observe_health(HealthState.OK)
        assert shard_segments_after_one_post() == []

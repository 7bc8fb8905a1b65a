"""Differential proof that the multiprocess backend is the same engine.

``ProcessShardedEngine`` must be indistinguishable — byte for byte — from
the in-process ``ShardedEngine`` it mirrors, and both must match a single
``AdEngine`` up to float-summation order. The suite drives all three
topologies over identical streams in every engine mode (pacing off — the
pacing multiplier legitimately depends on per-manager observed spend) and
asserts:

* slates, revenue and counters: procpool vs in-process strict ``==``
  (the results crossed a pickle boundary, so this is bit-equality),
  vs the single engine via ``pytest.approx``;
* ``post_batch`` equals the in-process batched run exactly;
* telemetry roll-ups (tracer span counts, metric counters) agree;
* a SIGKILLed worker surfaces as ``WorkerCrashError`` (a ``StreamError``)
  instead of a hang, and ``close()`` always reaps children;
* a checkpoint taken mid-run restores into a pool with a *different*
  worker count and continues byte-identically to an uninterrupted run.

The worker-side protocol (``ShardHost``/``serve``) is additionally unit
tested in-process — same code the forked workers run, visible to
coverage and debuggable without processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cluster import ProcessShardedEngine, ShardedEngine
from repro.cluster.procpool import ShardHost, WorkerBootstrap, serve
from repro.cluster.rpc import ChannelClosed, channel_pair
from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.errors import ConfigError, StreamError, WorkerCrashError

LIMIT = 14
MODES = [EngineMode.SHARED, EngineMode.INCREMENTAL, EngineMode.EXACT]


def config_for(mode: EngineMode = EngineMode.SHARED) -> EngineConfig:
    return EngineConfig(mode=mode, pacing_enabled=False)


def plain_engine(workload, config: EngineConfig) -> AdEngine:
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    return engine


def merged_slates(results) -> dict[int, list[tuple[int, float]]]:
    """user → slate across one post's routed results (any topology)."""
    if not isinstance(results, list):
        results = [results]
    return {
        delivery.user_id: [(s.ad_id, s.score) for s in delivery.slate]
        for result in results
        for delivery in result.deliveries
    }


class TestDifferentialParity:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_three_topologies_agree(self, tiny_workload, mode, num_shards):
        """procpool == sharded exactly; both == single engine to float
        tolerance, post by post, in every engine mode."""
        config = config_for(mode)
        posts = tiny_workload.posts[:LIMIT]
        sharded = ShardedEngine(tiny_workload, num_shards, config=config)
        single = plain_engine(tiny_workload, config)
        with ProcessShardedEngine(
            tiny_workload, num_shards, config=config
        ) as pool:
            for post in posts:
                pool_results = pool.post(
                    post.author_id, post.text, post.timestamp
                )
                shard_results = sharded.post(
                    post.author_id, post.text, post.timestamp
                )
                single_result = single.post(
                    post.author_id, post.text, post.timestamp
                )
                # Bit-parity with the in-process router: the results
                # crossed a pickle boundary, so == means identical bytes.
                assert pool_results == shard_results
                assert merged_slates(pool_results) == {
                    user: [(ad, pytest.approx(score)) for ad, score in slate]
                    for user, slate in merged_slates(single_result).items()
                }
                assert sum(r.revenue for r in pool_results) == pytest.approx(
                    single_result.revenue
                )
            # Counter reconciliation across all three topologies.
            pool_stats = pool.cluster_stats()
            shard_stats = sharded.cluster_stats()
            assert pool_stats == shard_stats
            assert pool_stats.posts == single.stats.posts == len(posts)
            assert pool_stats.deliveries == single.stats.deliveries
            assert pool_stats.impressions == single.stats.impressions
            assert pool_stats.revenue == pytest.approx(single.stats.revenue)
            assert pool_stats.revenue > 0.0
            assert pool.amplification() == sharded.amplification()

    def test_post_batch_matches_in_process_batch(self, tiny_workload):
        config = config_for()
        posts = tiny_workload.posts[:LIMIT]
        sharded = ShardedEngine(tiny_workload, 3, config=config)
        expected = sharded.post_batch(posts)
        with ProcessShardedEngine(tiny_workload, 3, config=config) as pool:
            assert pool.post_batch(posts) == expected

    def test_checkin_and_campaign_ops_broadcast(self, tiny_workload):
        """Geo updates and campaign churn reach every worker and produce
        the same downstream slates as the in-process router."""
        from dataclasses import replace

        from repro.geo.point import GeoPoint

        config = config_for()
        posts = tiny_workload.posts[:LIMIT]
        new_ad = replace(tiny_workload.ads[0], ad_id=999_001)
        sharded = ShardedEngine(tiny_workload, 3, config=config)
        with ProcessShardedEngine(tiny_workload, 3, config=config) as pool:
            for engine in (sharded, pool):
                engine.checkin(posts[0].author_id, GeoPoint(1.0, 2.0), 0.0)
                engine.launch_campaign(new_ad, posts[0].timestamp)
                engine.end_campaign(tiny_workload.ads[1].ad_id, posts[0].timestamp)
            expected = [
                sharded.post(p.author_id, p.text, p.timestamp) for p in posts
            ]
            got = [
                pool.post(p.author_id, p.text, p.timestamp) for p in posts
            ]
            assert got == expected


class TestTelemetryRollup:
    def test_tracer_and_metrics_merge_matches_in_process(self, tiny_workload):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracer import RecordingTracer

        config = config_for()
        posts = tiny_workload.posts[:LIMIT]
        sharded = ShardedEngine(
            tiny_workload,
            3,
            config=config,
            tracer=RecordingTracer(),
            metrics=MetricsRegistry(window_s=120.0),
        )
        with ProcessShardedEngine(
            tiny_workload,
            3,
            config=config,
            tracer=RecordingTracer(),
            metrics=MetricsRegistry(window_s=120.0),
        ) as pool:
            for post in posts:
                sharded.post(post.author_id, post.text, post.timestamp)
                pool.post(post.author_id, post.text, post.timestamp)
            spans = lambda report: {k: v.spans for k, v in report.items()}  # noqa: E731
            assert spans(pool.stage_report()) == spans(sharded.stage_report())
            assert [
                spans(report) for report in pool.stage_report_by_shard()
            ] == [spans(report) for report in sharded.stage_report_by_shard()]
            for name in ("posts", "deliveries", "impressions", "revenue"):
                assert pool.metrics.counter(name) == sharded.metrics.counter(
                    name
                )
            assert pool.load_imbalance() == sharded.load_imbalance()
            assert [s.deliveries for s in pool.stats_by_shard()] == [
                s.deliveries for s in sharded.stats_by_shard()
            ]

    def test_qos_ledger_reconciles_across_workers(self, tiny_workload):
        """Per-worker QoS copies: the rolled-up ledger must stay exact —
        attempted == admitted + shed, and the engine-side counters agree
        with the controllers' books."""
        from repro.qos import AdmissionController, DegradationLadder, QosController

        qos = QosController(
            ladder=DegradationLadder(),
            admission=AdmissionController(rate_per_s=0.05, burst_s=1.0),
        )
        with ProcessShardedEngine(
            tiny_workload, 3, config=config_for(), qos=qos
        ) as pool:
            for post in tiny_workload.posts[:LIMIT]:
                pool.post(post.author_id, post.text, post.timestamp)
            summary = pool.qos_summary()
            stats = pool.cluster_stats()
            assert summary is not None
            assert summary["attempted"] == summary["admitted"] + summary["shed"]
            assert stats.deliveries_shed == summary["shed"]
            assert stats.attempted_deliveries == summary["attempted"]
            assert stats.deliveries_shed > 0  # the tiny rate really shed
            assert stats.revenue_shed_upper_bound == pytest.approx(
                summary["revenue_shed_upper_bound"]
            )


class TestCrashSafety:
    def test_sigkilled_worker_surfaces_as_stream_error(self, tiny_workload):
        """A dead worker must raise the failover family's error — never
        hang — and the engine must stay usable enough to shut down."""
        posts = tiny_workload.posts[:LIMIT]
        before = set(multiprocessing.active_children())
        pool = ProcessShardedEngine(tiny_workload, 3, config=config_for())
        try:
            pool.post(posts[0].author_id, posts[0].text, posts[0].timestamp)
            os.kill(pool.worker_pid(1), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            with pytest.raises(WorkerCrashError) as excinfo:
                while time.monotonic() < deadline:
                    for post in posts:
                        pool.post(post.author_id, post.text, post.timestamp)
            assert isinstance(excinfo.value, StreamError)
            assert excinfo.value.shard == 1
            assert pool.workers_alive()[1] is False
            # The crashed shard stays crashed (no silent resurrection).
            from repro.geo.point import GeoPoint

            with pytest.raises(WorkerCrashError):
                pool.checkin(posts[0].author_id, GeoPoint(0.0, 0.0), 0.0)
        finally:
            pool.close()
        assert not (
            set(multiprocessing.active_children()) - before
        ), "close() must reap every child, including the SIGKILLed one"

    def test_close_reaps_children_and_is_idempotent(self, tiny_workload):
        before = set(multiprocessing.active_children())
        pool = ProcessShardedEngine(tiny_workload, 3, config=config_for())
        post = tiny_workload.posts[0]
        pool.post(post.author_id, post.text, post.timestamp)
        pool.close()
        pool.close()  # idempotent
        leaked = {
            child
            for child in multiprocessing.active_children()
            if child not in before
        }
        assert not leaked, f"worker processes leaked: {leaked}"
        with pytest.raises(StreamError):
            pool.post(post.author_id, post.text, post.timestamp)

    def test_shard_count_validation(self, tiny_workload):
        with pytest.raises(ConfigError):
            ProcessShardedEngine(tiny_workload, 0)


class TestCheckpointRoundTrip:
    def test_restore_into_different_worker_count_continues_identically(
        self, tiny_workload, tmp_path
    ):
        """Checkpoint a 3-worker pool mid-run, restore into a fresh
        2-worker pool, and the continuation must match (a) the in-process
        router restored from the same file bit-for-bit and (b) an
        uninterrupted single-engine run to float tolerance."""
        config = config_for()
        posts = tiny_workload.posts[:LIMIT]
        cut = LIMIT // 2
        path = tmp_path / "cluster.ckpt"

        single = plain_engine(tiny_workload, config)
        single_results = [
            single.post(p.author_id, p.text, p.timestamp) for p in posts
        ]

        with ProcessShardedEngine(tiny_workload, 3, config=config) as writer:
            for post in posts[:cut]:
                writer.post(post.author_id, post.text, post.timestamp)
            writer.checkpoint(path)
            mid_stats = writer.cluster_stats()

        restored_sharded = ShardedEngine(tiny_workload, 2, config=config)
        restored_sharded.restore(path)
        sharded_tail = [
            restored_sharded.post(p.author_id, p.text, p.timestamp)
            for p in posts[cut:]
        ]
        with ProcessShardedEngine(tiny_workload, 2, config=config) as reader:
            reader.restore(path)
            pool_tail = [
                reader.post(p.author_id, p.text, p.timestamp)
                for p in posts[cut:]
            ]
            # Same payload, same shard count: bit-identical continuation.
            assert pool_tail == sharded_tail
            # And the tail matches the run that never stopped.
            for tail, reference in zip(pool_tail, single_results[cut:]):
                assert merged_slates(tail) == {
                    user: [(ad, pytest.approx(score)) for ad, score in slate]
                    for user, slate in merged_slates(reference).items()
                }
            final = reader.cluster_stats()
            assert final.posts == single.stats.posts
            assert final.deliveries == single.stats.deliveries
            assert final.revenue == pytest.approx(single.stats.revenue)
            assert final.posts > mid_stats.posts

    def test_restore_requires_fresh_cluster(self, tiny_workload, tmp_path):
        config = config_for()
        post = tiny_workload.posts[0]
        path = tmp_path / "cluster.ckpt"
        with ProcessShardedEngine(tiny_workload, 2, config=config) as pool:
            pool.post(post.author_id, post.text, post.timestamp)
            pool.checkpoint(path)
            with pytest.raises(ConfigError):
                pool.restore(path)

    def test_cluster_state_dict_matches_in_process(self, tiny_workload):
        config = config_for()
        posts = tiny_workload.posts[:LIMIT]
        sharded = ShardedEngine(tiny_workload, 3, config=config)
        sharded.post_batch(posts)
        with ProcessShardedEngine(tiny_workload, 3, config=config) as pool:
            pool.post_batch(posts)
            assert pool.state_dict() == sharded.state_dict()


class TestLearnerCheckpoint:
    """LinUCB state survives the pool checkpoint, at any worker count."""

    @staticmethod
    def linucb_config() -> EngineConfig:
        return EngineConfig(
            pacing_enabled=False,
            ctr_feedback=False,
            collect_deliveries=True,
            personalize="linucb",
            alpha_ucb=0.4,
            linucb_sync_interval_s=3600.0,
        )

    @staticmethod
    def drive(engine, posts, *, is_cluster: bool):
        """Posts + deterministic (order-independent) clicks; scored slates."""
        import hashlib

        slates = []
        for post in posts:
            results = engine.post(post.author_id, post.text, post.timestamp)
            if not is_cluster:
                results = [results]
            for result in results:
                for delivery in result.deliveries:
                    slates.append(
                        (
                            delivery.user_id,
                            tuple(
                                (s.ad_id, s.score) for s in delivery.slate
                            ),
                        )
                    )
                    for slot, scored in enumerate(delivery.slate):
                        key = (
                            f"{result.msg_id}:{delivery.user_id}:"
                            f"{scored.ad_id}:{slot}"
                        ).encode()
                        if hashlib.sha256(key).digest()[0] < 64:
                            engine.record_click(
                                scored.ad_id,
                                user_id=delivery.user_id,
                                slot_index=slot,
                            )
        return sorted(slates)

    def test_learner_restores_into_fewer_workers_and_single(
        self, tiny_workload, tmp_path
    ):
        """Save under 3 workers mid-run; a 2-worker pool and a single
        engine restored from the file continue with identical slates."""
        config = self.linucb_config()
        posts = tiny_workload.posts
        cut = len(posts) // 2
        path = tmp_path / "learner.ckpt"

        with ProcessShardedEngine(tiny_workload, 3, config=config) as writer:
            self.drive(writer, posts[:cut], is_cluster=True)
            state = writer.state_dict()
            writer.checkpoint(path)
            tail = self.drive(writer, posts[cut:], is_cluster=True)

        # The payload carries the snapshot plus open-epoch residue.
        assert state["learn"] is not None
        assert state["learn"]["arms"]

        with ProcessShardedEngine(tiny_workload, 2, config=config) as reader:
            reader.restore(path)
            assert self.drive(reader, posts[cut:], is_cluster=True) == tail

        single = plain_engine(tiny_workload, config)
        from repro.io.checkpoint import load_checkpoint

        load_checkpoint(path, single)
        assert self.drive(single, posts[cut:], is_cluster=False) == tail

    def test_state_dict_learn_matches_in_process(self, tiny_workload):
        config = self.linucb_config()
        posts = tiny_workload.posts[:LIMIT]
        sharded = ShardedEngine(tiny_workload, 3, config=config)
        self.drive(sharded, posts, is_cluster=True)
        with ProcessShardedEngine(tiny_workload, 3, config=config) as pool:
            self.drive(pool, posts, is_cluster=True)
            assert pool.state_dict()["learn"] == sharded.state_dict()["learn"]


class TestWorkerProtocolInProcess:
    """The worker-side code, run without forking (coverage + debuggability)."""

    @staticmethod
    def bootstrap(workload, shard: int = 0, num_shards: int = 2):
        from dataclasses import replace

        return WorkerBootstrap(
            shard=shard,
            num_shards=num_shards,
            config=config_for(),
            workload=replace(workload, posts=[], post_topics={}, checkins=[]),
        )

    def test_shard_host_handles_core_ops(self, tiny_workload):
        host = ShardHost(self.bootstrap(tiny_workload))
        assert host.handle("ping", None) == "pong"
        # A post with a follower on this shard: one with none runs no probe.
        post = next(
            post
            for post in tiny_workload.posts
            if host.engine.graph.followers(post.author_id)
        )
        event = host.engine.make_event(
            post.author_id, post.text, post.timestamp, msg_id=5
        )
        replies = host.handle("post_batch", [(7, event)])
        assert len(replies) == 1
        position, result = replies[0]
        assert position == 7 and result.msg_id == 5
        report = host.handle("report", None)
        assert report["stats"].posts == 1
        assert report["stats"].shared_probes == 1
        assert result.num_deliveries >= 1
        assert report["tracer"] is None and report["metrics"] is None
        state = host.handle("state", None)
        assert state["next_msg_id"] == 6
        assert host.handle("qos_state", None) is None
        with pytest.raises(StreamError):
            host.handle("frobnicate", None)

    def test_shard_host_handles_learn_ops(self, tiny_workload):
        from dataclasses import replace as dc_replace

        bootstrap = WorkerBootstrap(
            shard=0,
            num_shards=1,
            config=TestLearnerCheckpoint.linucb_config(),
            workload=dc_replace(
                tiny_workload, posts=[], post_topics={}, checkins=[]
            ),
        )
        host = ShardHost(bootstrap)
        learner = host.engine.services.learner
        assert learner is not None and not learner.auto_sync
        post = tiny_workload.posts[0]
        event = host.engine.make_event(
            post.author_id, post.text, post.timestamp, msg_id=0
        )
        ((_, result),) = host.handle("post_batch", [(0, event)])
        delivery = result.deliveries[0]
        # Click frames resolve against the serving context.
        scored = delivery.slate[0]
        host.handle("record_click", (scored.ad_id, delivery.user_id, 0))
        pending = host.handle("learn_drain", None)
        assert any(rec[3] == 1 for rec in pending)  # the click made it in
        # A broadcast fold advances the epoch and builds arms.
        host.handle("learn_sync", (7, sorted(pending, key=lambda r: r[:5])))
        assert learner.epoch == 7 and learner.num_arms > 0

    def test_shard_host_learn_ops_without_learner(self, tiny_workload):
        host = ShardHost(self.bootstrap(tiny_workload))
        assert host.engine.services.learner is None
        assert host.handle("learn_drain", None) == []
        assert host.handle("learn_sync", (1, [])) is None

    def test_serve_loop_over_a_channel_pair(self, tiny_workload):
        router, worker = channel_pair()
        thread = threading.Thread(target=serve, args=(worker,), daemon=True)
        thread.start()
        try:
            router.send(self.bootstrap(tiny_workload))
            status, ack = router.recv()
            assert status == "ok" and ack["shard"] == 0
            router.send(("ping", None))
            assert router.recv() == ("ok", "pong")
            router.send(("frobnicate", None))
            status, error = router.recv()
            assert status == "err" and isinstance(error, StreamError)
            router.send(("shutdown", None))
            assert router.recv() == ("ok", None)
        finally:
            thread.join(timeout=5.0)
            router.close()
            worker.close()
        assert not thread.is_alive()

    def test_channel_surfaces_peer_loss(self):
        left, right = channel_pair()
        payload = {"big": list(range(50_000))}
        left.send(payload)
        assert right.recv() == payload
        right.close()
        with pytest.raises(ChannelClosed):
            left.recv()
        left.close()

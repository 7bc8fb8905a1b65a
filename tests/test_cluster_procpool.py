"""The multiprocess backend: crash safety, checkpoints, the worker protocol.

That ``ProcessShardedEngine`` serves byte for byte what the in-process
``ShardedEngine`` serves, and what a single ``AdEngine`` serves up to
float-summation order — slates, revenue, counters and telemetry
roll-ups, posted one at a time or batched, in every engine mode — is
asserted by ``tests/test_conformance.py``. What stays here:

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
from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.errors import ConfigError, StreamError, WorkerCrashError
from tests.conftest import LINUCB, PARITY, drive_clicking, merged_slates

LIMIT = 14


def config_for() -> EngineConfig:
    return EngineConfig(pacing_enabled=False)


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

        single = ContextAwareRecommender.from_workload(tiny_workload, config).engine
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

    def test_learner_restores_into_fewer_workers_and_single(
        self, tiny_workload, tmp_path
    ):
        """Save under 3 workers mid-run; a 2-worker pool and a single
        engine restored from the file continue with identical slates."""
        config = EngineConfig(**PARITY, **LINUCB)
        posts = tiny_workload.posts
        cut = len(posts) // 2
        path = tmp_path / "learner.ckpt"

        with ProcessShardedEngine(tiny_workload, 3, config=config) as writer:
            drive_clicking(writer, posts[:cut])
            state = writer.state_dict()
            writer.checkpoint(path)
            tail = drive_clicking(writer, posts[cut:])

        # The payload carries the snapshot plus open-epoch residue.
        assert state["learn"] is not None
        assert state["learn"]["arms"]

        with ProcessShardedEngine(tiny_workload, 2, config=config) as reader:
            reader.restore(path)
            assert drive_clicking(reader, posts[cut:]) == tail

        single = ContextAwareRecommender.from_workload(tiny_workload, config).engine
        from repro.io.checkpoint import load_checkpoint

        load_checkpoint(path, single)
        assert drive_clicking(single, posts[cut:]) == tail

    def test_state_dict_learn_matches_in_process(self, tiny_workload):
        config = EngineConfig(**PARITY, **LINUCB)
        posts = tiny_workload.posts[:LIMIT]
        sharded = ShardedEngine(tiny_workload, 3, config=config)
        drive_clicking(sharded, posts)
        with ProcessShardedEngine(tiny_workload, 3, config=config) as pool:
            drive_clicking(pool, posts)
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
            config=EngineConfig(**PARITY, **LINUCB),
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

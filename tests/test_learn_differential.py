"""Differential and parity coverage for the LinUCB rerank.

Three layers of evidence that the learning stage composes without
perturbing anything it shouldn't:

* **Frozen oracle** — ``personalize="linucb"`` with ``alpha_ucb=0`` and
  ``linucb_frozen=True`` must serve slates *byte-identical* to the static
  stage, across all three engine modes and all three execution backends.
* **Cluster parity** — with live learning on, the sharded and procpool
  routers must end every sync epoch bit-identical to the single engine:
  same slates, same shared model and arm counts, same pending residue.
* **Seeded determinism** — two identical linucb replays produce identical
  slates, learner state dicts, and T8 replay-estimator output — and the
  T8 driver runs the class the engine serves.

Parity runs disable pacing and CTR feedback: both couple scores to
*cluster-local* mutable state (per-shard spend and per-shard impression
counts), which diverges from the single engine's global view regardless
of the bandit — the pre-existing backends have the same property. Clicks
are decided by a hash of (msg, user, ad, slot) so the click stream is
invariant to delivery iteration order across backends.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.core.scoring import ScoredAd, Slate
from repro.cluster.procpool import ProcessShardedEngine
from repro.cluster.sharded import ShardedEngine
from repro.io.checkpoint import apply_engine_state
from repro.learn.linucb import KIND_CLICK, KIND_IMPRESSION, LinUcbLearner
from repro.learn.replay import (
    LinUcbPolicy,
    StaticCtrPolicy,
    build_logged_stream,
    replay_estimate,
)

MODES = [mode.value for mode in EngineMode]

#: Knobs shared by every parity/oracle run (see the module docstring for
#: why pacing and CTR feedback are off in parity runs).
PARITY = dict(
    ctr_feedback=False,
    pacing_enabled=False,
    collect_deliveries=True,
)
LINUCB = dict(
    personalize="linucb",
    alpha_ucb=0.4,
    linucb_sync_interval_s=3600.0,
)
FROZEN = dict(
    personalize="linucb",
    alpha_ucb=0.0,
    linucb_frozen=True,
    linucb_sync_interval_s=3600.0,
)


def deterministic_click(msg_id: int, user_id: int, ad_id: int, slot: int) -> bool:
    """Order-independent ~25% click rule: a pure function of coordinates."""
    key = f"{msg_id}:{user_id}:{ad_id}:{slot}".encode()
    return hashlib.sha256(key).digest()[0] < 64


def build_single(workload, config: EngineConfig) -> AdEngine:
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


def drive(engine, posts, *, is_cluster: bool, clicks: bool = True):
    """Replay ``posts`` with the deterministic click stream; returns the
    full scored slates, sorted by (user, ads) for backend comparison."""
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
                            (s.ad_id, s.score, s.content, s.static)
                            for s in delivery.slate
                        ),
                    )
                )
                if not clicks:
                    continue
                for slot, scored in enumerate(delivery.slate):
                    if deterministic_click(
                        result.msg_id, delivery.user_id, scored.ad_id, slot
                    ):
                        engine.record_click(
                            scored.ad_id,
                            user_id=delivery.user_id,
                            slot_index=slot,
                        )
    return sorted(slates)


# -- the frozen differential oracle ------------------------------------------


class TestFrozenOracle:
    """alpha=0 + frozen models: the rerank must be a byte-exact no-op."""

    @pytest.mark.parametrize("mode", MODES)
    def test_single_engine(self, tiny_workload, mode):
        posts = tiny_workload.posts
        static = drive(
            build_single(
                tiny_workload, EngineConfig(mode=EngineMode(mode), **PARITY)
            ),
            posts,
            is_cluster=False,
        )
        frozen = drive(
            build_single(
                tiny_workload,
                EngineConfig(mode=EngineMode(mode), **PARITY, **FROZEN),
            ),
            posts,
            is_cluster=False,
        )
        assert frozen == static

    @pytest.mark.parametrize("mode", MODES)
    def test_sharded(self, tiny_workload, mode):
        posts = tiny_workload.posts[:40]
        static = drive(
            ShardedEngine(
                tiny_workload,
                3,
                config=EngineConfig(mode=EngineMode(mode), **PARITY),
            ),
            posts,
            is_cluster=True,
        )
        frozen = drive(
            ShardedEngine(
                tiny_workload,
                3,
                config=EngineConfig(mode=EngineMode(mode), **PARITY, **FROZEN),
            ),
            posts,
            is_cluster=True,
        )
        assert frozen == static

    @pytest.mark.parametrize("mode", MODES)
    def test_procpool(self, tiny_workload, mode):
        posts = tiny_workload.posts[:25]
        with ProcessShardedEngine(
            tiny_workload,
            2,
            config=EngineConfig(mode=EngineMode(mode), **PARITY),
        ) as cluster:
            static = drive(cluster, posts, is_cluster=True)
        with ProcessShardedEngine(
            tiny_workload,
            2,
            config=EngineConfig(mode=EngineMode(mode), **PARITY, **FROZEN),
        ) as cluster:
            frozen = drive(cluster, posts, is_cluster=True)
        assert frozen == static

    def test_frozen_engine_accumulates_nothing(self, tiny_workload):
        engine = build_single(tiny_workload, EngineConfig(**PARITY, **FROZEN))
        drive(engine, tiny_workload.posts[:20], is_cluster=False)
        learner = engine.services.learner
        assert learner.num_arms == 0
        assert learner.num_pending == 0


# -- live cluster parity -----------------------------------------------------


class TestClusterParity:
    """Live learning: every backend ends bit-identical to the reference."""

    @pytest.fixture(scope="class")
    def reference(self, tiny_workload):
        engine = build_single(tiny_workload, EngineConfig(**PARITY, **LINUCB))
        slates = drive(engine, tiny_workload.posts, is_cluster=False)
        return slates, engine.services.learner.state_dict()

    def test_rerank_actually_changes_slates(self, tiny_workload, reference):
        slates, learn_state = reference
        static = drive(
            build_single(tiny_workload, EngineConfig(**PARITY)),
            tiny_workload.posts,
            is_cluster=False,
        )
        assert slates != static  # the bandit is live, not a no-op
        assert learn_state["arms"]  # and it actually folded evidence
        assert learn_state["shared"]["b"] != [0.0] * 4  # clicks included
        assert learn_state["epoch"] > 0  # across at least one sync fold

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_sharded_matches_single(self, tiny_workload, reference, num_shards):
        slates, learn_state = reference
        cluster = ShardedEngine(
            tiny_workload, num_shards, config=EngineConfig(**PARITY, **LINUCB)
        )
        assert drive(cluster, tiny_workload.posts, is_cluster=True) == slates
        assert cluster.state_dict()["learn"] == learn_state

    def test_procpool_matches_single(self, tiny_workload, reference):
        slates, learn_state = reference
        with ProcessShardedEngine(
            tiny_workload, 3, config=EngineConfig(**PARITY, **LINUCB)
        ) as cluster:
            assert (
                drive(cluster, tiny_workload.posts, is_cluster=True) == slates
            )
            assert cluster.state_dict()["learn"] == learn_state

    def test_batched_routing_matches_single(self, tiny_workload):
        """post_batch splits at epoch boundaries, so mid-batch folds land
        at the same stream point as the single engine's per-post folds.

        Clicks arrive *after* each batch on both sides — click timing
        relative to serving is part of the stream, so the single-engine
        reference must be driven at the same cadence.
        """
        posts = tiny_workload.posts

        def record(engine, result, out):
            for delivery in result.deliveries:
                out.append(
                    (
                        delivery.user_id,
                        tuple(
                            (s.ad_id, s.score, s.content, s.static)
                            for s in delivery.slate
                        ),
                    )
                )
                for slot, scored in enumerate(delivery.slate):
                    if deterministic_click(
                        result.msg_id, delivery.user_id, scored.ad_id, slot
                    ):
                        engine.record_click(
                            scored.ad_id,
                            user_id=delivery.user_id,
                            slot_index=slot,
                        )

        single = build_single(tiny_workload, EngineConfig(**PARITY, **LINUCB))
        reference = []
        for start in range(0, len(posts), 16):
            batch_results = [
                single.post(post.author_id, post.text, post.timestamp)
                for post in posts[start : start + 16]
            ]
            for result in batch_results:
                record(single, result, reference)

        cluster = ShardedEngine(
            tiny_workload, 2, config=EngineConfig(**PARITY, **LINUCB)
        )
        collected = []
        for start in range(0, len(posts), 16):
            batch_results = cluster.post_batch(posts[start : start + 16])
            for result in (r for per_post in batch_results for r in per_post):
                record(cluster, result, collected)

        assert sorted(collected) == sorted(reference)
        learn_state = single.services.learner.state_dict()
        assert cluster.state_dict()["learn"] == learn_state


# -- checkpoint: topology-free restore ---------------------------------------


class TestLearnerRestore:
    def test_mid_epoch_checkpoint_restores_everywhere(self, tiny_workload):
        posts = tiny_workload.posts
        half = len(posts) // 2
        origin = ShardedEngine(
            tiny_workload, 3, config=EngineConfig(**PARITY, **LINUCB)
        )
        drive(origin, posts[:half], is_cluster=True)
        state = origin.state_dict()
        # The checkpoint must carry open-epoch residue, or this test
        # would not exercise the pending/context partitioning at all.
        assert state["learn"]["pending"]
        assert state["learn"]["contexts"]
        tail = drive(origin, posts[half:], is_cluster=True)

        restored = ShardedEngine(
            tiny_workload, 2, config=EngineConfig(**PARITY, **LINUCB)
        )
        restored.load_state(state)
        assert drive(restored, posts[half:], is_cluster=True) == tail

        single = build_single(tiny_workload, EngineConfig(**PARITY, **LINUCB))
        apply_engine_state(single, state)
        assert drive(single, posts[half:], is_cluster=False) == tail

    def test_restore_into_static_engine_rejected(self, tiny_workload):
        origin = build_single(tiny_workload, EngineConfig(**PARITY, **LINUCB))
        drive(origin, tiny_workload.posts[:10], is_cluster=False)
        from repro.io.checkpoint import engine_state_dict

        state = engine_state_dict(origin)
        target = build_single(tiny_workload, EngineConfig(**PARITY))
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            apply_engine_state(target, state)


# -- seeded determinism ------------------------------------------------------


class TestSeededDeterminism:
    def test_two_identical_replays_are_byte_identical(self, tiny_workload):
        def run():
            engine = build_single(
                tiny_workload, EngineConfig(**PARITY, **LINUCB)
            )
            slates = drive(engine, tiny_workload.posts, is_cluster=False)
            return slates, engine.services.learner.state_dict()

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_t8_estimator_is_deterministic(self, tiny_workload):
        def grade():
            stream = build_logged_stream(tiny_workload, events=1500, seed=3)
            static = replay_estimate(
                StaticCtrPolicy(), stream, warm_fraction=0.5
            )
            policy = LinUcbPolicy(LinUcbLearner(alpha=0.05))
            linucb = replay_estimate(policy, stream, warm_fraction=0.5)
            return static.to_dict(), linucb.to_dict(), policy.state_dict()

        assert grade() == grade()

    def test_t8_replays_the_served_learner(self, tiny_workload):
        """``replay_estimate`` through the adapter is the engine's learner
        driven by hand: the pool reranked as a slate, each matched event
        folded through ``apply_sync`` as an epoch of its own."""
        stream = build_logged_stream(tiny_workload, events=600, seed=5)
        policy = LinUcbPolicy(LinUcbLearner(alpha=0.05))
        result = replay_estimate(policy, stream)

        learner = LinUcbLearner(alpha=0.05)
        matched = clicks = 0
        for event in stream:
            pool = Slate.of(
                ScoredAd(ad_id, 0.0, *event.features[ad_id][1:3])
                for ad_id in event.pool
            )
            slate, rows, _order = learner.rerank(pool)
            if slate[0].ad_id != event.arm:
                continue
            matched += 1
            clicks += event.reward
            x = rows[[entry.ad_id for entry in slate].index(event.arm)]
            key = (event.msg_id, event.user_id, 0)
            records = [(*key, KIND_IMPRESSION, event.arm, x)]
            if event.reward:
                records.append((*key, KIND_CLICK, event.arm, x))
            learner.apply_sync(learner.epoch + 1, records)

        assert 0 < matched < len(stream)
        assert (result.matched, result.clicks) == (matched, clicks)
        served, driven = policy.state_dict(), learner.state_dict()
        for key in ("epoch", "shared", "arms"):
            assert served[key] == driven[key]

    def test_replay_estimator_contract(self, tiny_workload):
        stream = build_logged_stream(tiny_workload, events=1500, seed=3)
        assert len(stream) == 1500
        result = replay_estimate(StaticCtrPolicy(), stream)
        # Uniform logging over 8-ad pools: ~1/8 of events match.
        assert 0 < result.matched < len(stream)
        assert 0.0 <= result.ctr <= 1.0
        warm = replay_estimate(StaticCtrPolicy(), stream, warm_fraction=0.5)
        assert warm.matched < result.matched
        assert result.to_dict()["policy"] == "static-ctr"

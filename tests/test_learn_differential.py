"""Restore and determinism coverage for the LinUCB rerank.

The frozen oracle (``alpha_ucb=0`` + frozen models serve the static
stage's slates) and live cluster parity (every backend ends each sync
epoch with the single engine's slates and learner state) are cells of
``tests/test_conformance.py``. What stays here:

* **Frozen** — a frozen learner accumulates nothing.
* **Restore** — a mid-epoch checkpoint restores into any shard count
  and into a single engine, and never into a static engine.
* **Seeded determinism** — two identical linucb replays produce identical
  slates, learner state dicts, and T8 replay-estimator output — and the
  T8 driver runs the class the engine serves.

Runs disable pacing and CTR feedback (``PARITY``); clicks are decided by
a hash of (msg, user, ad, slot), so the click stream is invariant to
delivery iteration order across backends.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedEngine
from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.core.scoring import ScoredAd, Slate
from repro.io.checkpoint import apply_engine_state
from repro.learn.linucb import KIND_CLICK, KIND_IMPRESSION, LinUcbLearner
from repro.learn.replay import (
    LinUcbPolicy,
    StaticCtrPolicy,
    build_logged_stream,
    replay_estimate,
)
from tests.conftest import FROZEN, LINUCB, PARITY, drive_clicking


LEARNING = EngineConfig(**PARITY, **LINUCB)


class TestFrozenOracle:
    def test_frozen_engine_accumulates_nothing(self, tiny_workload):
        engine = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(**PARITY, **FROZEN)
        ).engine
        drive_clicking(engine, tiny_workload.posts[:20])
        learner = engine.services.learner
        assert learner.num_arms == 0
        assert learner.num_pending == 0


# -- checkpoint: topology-free restore ---------------------------------------


class TestLearnerRestore:
    def test_mid_epoch_checkpoint_restores_everywhere(self, tiny_workload):
        posts = tiny_workload.posts
        half = len(posts) // 2
        origin = ShardedEngine(
            tiny_workload, 3, config=LEARNING
        )
        drive_clicking(origin, posts[:half])
        state = origin.state_dict()
        # The checkpoint must carry open-epoch residue, or this test
        # would not exercise the pending/context partitioning at all.
        assert state["learn"]["pending"]
        assert state["learn"]["contexts"]
        tail = drive_clicking(origin, posts[half:])

        restored = ShardedEngine(
            tiny_workload, 2, config=LEARNING
        )
        restored.load_state(state)
        assert drive_clicking(restored, posts[half:]) == tail

        engine = ContextAwareRecommender.from_workload(tiny_workload, LEARNING).engine
        apply_engine_state(engine, state)
        assert drive_clicking(engine, posts[half:]) == tail

    def test_restore_into_static_engine_rejected(self, tiny_workload):
        origin = ContextAwareRecommender.from_workload(tiny_workload, LEARNING).engine
        drive_clicking(origin, tiny_workload.posts[:10])
        from repro.io.checkpoint import engine_state_dict

        state = engine_state_dict(origin)
        target = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(**PARITY)
        ).engine
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            apply_engine_state(target, state)


# -- seeded determinism ------------------------------------------------------


class TestSeededDeterminism:
    def test_two_identical_replays_are_byte_identical(self, tiny_workload):
        def run():
            engine = ContextAwareRecommender.from_workload(
                tiny_workload, LEARNING
            ).engine
            slates = drive_clicking(engine, tiny_workload.posts)
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

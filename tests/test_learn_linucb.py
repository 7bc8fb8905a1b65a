"""Property and unit coverage for the LinUCB learner core.

* the shared model's ``A⁻¹`` is re-factorised from ``A`` at every fold, so
  it equals ``np.linalg.inv(A)`` exactly however long the run,
* UCB scores monotone (non-decreasing) in the exploration width ``alpha``,
* posterior invariance to update arrival order within one sync epoch,
* exact (bit-identical) state round-trips through the JSON layer,
* partition/merge of learner payloads is lossless for any shard count.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import ScoredAd, Slate
from repro.errors import ConfigError
from repro.learn.linucb import (
    KIND_CLICK,
    KIND_IMPRESSION,
    LinUcbLearner,
    merge_learn_states,
    partition_learn_state,
    sort_records,
)
from repro.core.services import EngineStats
from repro.obs.registry import MetricsRegistry, counted
from repro.obs.tracer import Seam

# -- strategies --------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
feature_row = st.tuples(st.just(1.0), unit, unit, unit)


def slate_entry(ad_id: int, score: float, content: float, static: float):
    return ScoredAd(ad_id=ad_id, score=score, content=content, static=static)


def slate_of(*entries: ScoredAd) -> Slate:
    return Slate.of(entries)


def drive_learner(learner: LinUcbLearner, records) -> None:
    """Feed raw pending records (bypassing slates) in the given order."""
    learner._pending.extend(records)


def example_records(n: int, seed: int = 3):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        x = (1.0, rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 0.2))
        kind = KIND_CLICK if rng.random() < 0.3 else KIND_IMPRESSION
        records.append((i // 3, rng.randrange(8), i % 4, kind, rng.randrange(5), x))
    return records


def folded_learner(n: int = 30, **knobs) -> LinUcbLearner:
    learner = LinUcbLearner(sync_interval_s=10.0, **knobs)
    drive_learner(learner, example_records(n))
    assert learner.maybe_sync(10.0)
    return learner


# -- the model every arm is scored by ----------------------------------------


class TestArmModel:
    """The shared ridge (+ the per-arm CTR feature) behind every arm's UCB."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=25, deadline=None)
    def test_refactorised_inverse_cannot_drift(self, seed, data):
        """After any sequence of folds ``A⁻¹`` *is* ``inv(A)``: there is no
        rank-1 update chain for rounding error to accumulate along."""
        epochs = data.draw(st.integers(min_value=1, max_value=200))
        rng = np.random.default_rng(seed)
        learner = LinUcbLearner()
        for epoch in range(1, epochs + 1):
            n = int(rng.integers(0, 301))
            features = rng.random((n, 3))
            kinds = rng.random(n) < 0.2
            ads = rng.integers(0, 50, n)
            learner.apply_sync(
                epoch,
                [
                    (epoch, 0, i, int(kinds[i]), int(ads[i]), (1.0, *features[i]))
                    for i in range(n)
                ],
            )
        assert np.array_equal(learner._A_inv, np.linalg.inv(learner._A))
        assert np.max(np.abs(learner._A_inv @ learner._A - np.eye(4))) < 1e-9
        assert np.array_equal(learner._theta, learner._A_inv @ learner._b)

    @given(st.lists(feature_row, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_ucb_monotone_in_alpha(self, rows):
        X = np.array(rows)
        scores = []
        for alpha in [0.0, 0.1, 0.5, 1.0, 2.0]:
            scores.append(folded_learner(alpha=alpha).bonus(X))
        for narrow, wide in zip(scores, scores[1:]):
            assert (narrow <= wide).all()

    def test_alpha_zero_is_pure_exploitation(self):
        learner = folded_learner(alpha=0.0)
        X = np.array([(1.0, 0.5, 0.25, 0.05), (1.0, 0.1, 0.9, 0.2)])
        assert learner._theta.any()
        assert np.array_equal(learner.bonus(X), X @ learner._theta)

    def test_state_round_trip_is_bitwise(self):
        learner = folded_learner(40, ridge_lambda=2.0)
        # Through JSON: the float round-trip of A and b is exact, so the
        # re-derived inverse and θ are the uninterrupted run's, bit for bit.
        restored = LinUcbLearner(ridge_lambda=2.0)
        restored.load_state(json.loads(json.dumps(learner.state_dict())))
        assert np.array_equal(restored._A, learner._A)
        assert np.array_equal(restored._b, learner._b)
        assert np.array_equal(restored._A_inv, learner._A_inv)
        assert np.array_equal(restored._theta, learner._theta)
        assert restored._arm_ctr == learner._arm_ctr


# -- feature layout ----------------------------------------------------------


class TestFeatures:
    def test_rows_are_bias_content_static_arm_ctr(self):
        learner = LinUcbLearner(sync_interval_s=10.0)
        slate = slate_of(slate_entry(7, 1.0, 0.2, 0.3), slate_entry(8, 0.9, 0.4, 0.1))
        prior = learner._ctr.estimate(7)
        assert learner.features(slate) == [
            (1.0, 0.2, 0.3, prior),
            (1.0, 0.4, 0.1, prior),
        ]
        # Two impressions and a click on ad 7, folded: its CTR feature is
        # the learner's own smoothed posterior; ad 8 still reads the prior.
        x = (1.0, 0.2, 0.3, prior)
        drive_learner(
            learner,
            [
                (0, 1, 0, KIND_IMPRESSION, 7, x),
                (0, 1, 0, KIND_CLICK, 7, x),
                (1, 1, 0, KIND_IMPRESSION, 7, x),
            ],
        )
        assert learner.features(slate)[0][3] == prior  # pending: not yet
        learner.maybe_sync(10.0)
        rows = learner.features(slate)
        assert rows[0][3] == learner._ctr.estimate(7) == (1.0 + 1.0) / (20.0 + 2.0)
        assert rows[1][3] == prior

    def test_observed_rows_are_the_rows_served(self):
        """``rerank`` hands ``observe_slate`` its rows in served order,
        and the permutation that put them there."""
        learner = LinUcbLearner(alpha=1.0)
        slate = slate_of(slate_entry(7, 1.0, 0.0, 0.0), slate_entry(2, 1.0, 0.9, 0.9))
        reranked, rows, order = learner.rerank(slate)
        assert [entry.ad_id for entry in reranked] == [2, 7]
        assert order.tolist() == [1, 0]
        assert rows == learner.features(reranked)
        learner.observe_slate(3, 4, reranked, rows)
        assert [rec[4:] for rec in learner._pending] == [
            (2, rows[0]),
            (7, rows[1]),
        ]


# -- learner epoch semantics -------------------------------------------------


class TestLearnerSync:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_update_order_invariance_within_epoch(self, rng):
        records = example_records(30)
        reference = LinUcbLearner(sync_interval_s=10.0)
        drive_learner(reference, records)
        assert reference.maybe_sync(10.0)

        shuffled = list(records)
        rng.shuffle(shuffled)
        other = LinUcbLearner(sync_interval_s=10.0)
        drive_learner(other, shuffled)
        assert other.maybe_sync(10.0)
        assert other.state_dict() == reference.state_dict()

    def test_maybe_sync_only_fires_on_boundary(self):
        learner = LinUcbLearner(sync_interval_s=100.0)
        drive_learner(learner, example_records(4))
        assert not learner.maybe_sync(99.0)  # still epoch 0
        assert learner.num_pending == 4
        assert learner.maybe_sync(100.0)
        assert learner.num_pending == 0
        assert learner.epoch == 1
        assert not learner.maybe_sync(100.0)  # idempotent within epoch

    def test_serving_reads_snapshot_not_pending(self):
        learner = LinUcbLearner(alpha=0.0, sync_interval_s=100.0)
        x = (1.0, 0.5, 0.5, 0.05)
        slate = slate_of(slate_entry(7, 1.0, 0.5, 0.5))
        drive_learner(learner, [(0, 1, 0, KIND_CLICK, 7, x)] * 3)
        assert learner.bonus(np.array([x])) == 0.0  # pending not folded yet
        assert learner.rerank(slate)[0] is slate
        learner.maybe_sync(100.0)
        assert learner.bonus(np.array([x])) != 0.0
        assert learner.rerank(slate)[0][0].score != 1.0

    def test_sync_metrics_emitted(self):
        """The fold's span goes through the seam; its counts and gauges
        are read from the learner."""
        metrics = MetricsRegistry()
        learner = LinUcbLearner(sync_interval_s=10.0, seam=Seam(metrics=metrics))
        metrics.read_from(lambda: counted(EngineStats(), learner.telemetry()))
        drive_learner(learner, example_records(6))
        learner.maybe_sync(10.0)
        assert metrics.histogram("stage_linucb_sync").total_count == 1
        assert metrics.counter("linucb_updates") == 6.0
        assert metrics.counter("linucb_syncs") == 1.0
        assert metrics.gauge("linucb_arms") == float(learner.num_arms) >= 1.0
        assert metrics.gauge("linucb_model_norm") == pytest.approx(
            float(np.linalg.norm(learner._theta))
        )


# -- click attribution -------------------------------------------------------


def observe(learner, msg_id, user_id, *entries):
    learner.observe_slate(
        msg_id,
        user_id,
        Slate.of(
            slate_entry(ad_id, 1.0 - 0.1 * i, 0.4, 0.2)
            for i, ad_id in enumerate(entries)
        ),
    )


class TestClickAttribution:
    def test_click_resolves_against_serving_context(self):
        learner = LinUcbLearner(sync_interval_s=1e9)
        observe(learner, 5, 9, 11, 12, 13)
        assert learner.record_click(12, user_id=9, slot_index=1)
        click = [rec for rec in learner._pending if rec[3] == KIND_CLICK]
        assert len(click) == 1
        msg_id, user_id, slot, kind, ad_id, x = click[0]
        assert (msg_id, user_id, slot, ad_id) == (5, 9, 1, 12)
        assert x == (1.0, 0.4, 0.2, 0.05)

    def test_context_is_authoritative_over_caller_slot(self):
        learner = LinUcbLearner(sync_interval_s=1e9)
        observe(learner, 5, 9, 11, 12)
        assert learner.record_click(12, user_id=9, slot_index=40)
        click = [rec for rec in learner._pending if rec[3] == KIND_CLICK][0]
        assert click[2] == 1  # stored slot, not the caller's claim

    def test_click_consumes_the_context(self):
        learner = LinUcbLearner(sync_interval_s=1e9)
        observe(learner, 5, 9, 11)
        assert learner.record_click(11, user_id=9, slot_index=0)
        assert not learner.record_click(11, user_id=9, slot_index=0)

    def test_latest_exposure_wins(self):
        learner = LinUcbLearner(sync_interval_s=1e9)
        observe(learner, 5, 9, 11, 12)
        observe(learner, 6, 9, 12, 11)  # ad 11 now at slot 1
        assert learner.record_click(11, user_id=9, slot_index=1)
        click = [rec for rec in learner._pending if rec[3] == KIND_CLICK][0]
        assert click[0] == 6 and click[2] == 1

    def test_legacy_click_without_user_is_ignored(self):
        learner = LinUcbLearner(sync_interval_s=1e9)
        observe(learner, 5, 9, 11)
        assert not learner.record_click(11)
        assert not any(rec[3] == KIND_CLICK for rec in learner._pending)

    def test_frozen_learner_records_nothing(self):
        learner = LinUcbLearner(frozen=True)
        observe(learner, 5, 9, 11)
        assert learner.num_pending == 0
        assert not learner.record_click(11, user_id=9, slot_index=0)


# -- rerank ------------------------------------------------------------------


class TestRerank:
    def test_alpha_zero_empty_models_returns_same_object(self):
        learner = LinUcbLearner(alpha=0.0)
        slate = slate_of(slate_entry(3, 1.0, 0.5, 0.2), slate_entry(4, 0.9, 0.4, 0.1))
        result, rows, order = learner.rerank(slate)
        assert result is slate and order is None
        assert rows == learner.features(slate)

    def test_rerank_applies_engine_tie_rule(self):
        learner = LinUcbLearner(alpha=1.0, ridge_lambda=1.0)
        slate = slate_of(slate_entry(7, 1.0, 0.0, 0.0), slate_entry(2, 1.0, 0.0, 0.0))
        result, _rows, _order = learner.rerank(slate)
        assert result is not slate
        # Identical features → identical bonuses → tie broken by ad id.
        assert [entry.ad_id for entry in result] == [2, 7]
        scores = [entry.score for entry in result]
        assert scores == sorted(scores, reverse=True)

    def test_unexplored_bonus_formula(self):
        # Nothing folded: θ = 0 and A⁻¹ = I/λ, so the bonus is pure
        # exploration, α·√(x·x/λ) over x = (1, content, static, prior CTR).
        learner = LinUcbLearner(alpha=0.5, ridge_lambda=4.0)
        (x,) = learner.features(slate_of(slate_entry(99, 1.0, 0.3, 0.6)))
        expected = 0.5 * (sum(v * v for v in x) / 4.0) ** 0.5
        assert learner.bonus(np.array([x]))[0] == pytest.approx(expected)


# -- state: round-trip, partition, merge -------------------------------------


def populated_learner(seed: int = 12) -> LinUcbLearner:
    rng = random.Random(seed)
    learner = LinUcbLearner(sync_interval_s=50.0)
    for msg in range(12):
        user = rng.randrange(10)
        observe(learner, msg, user, *rng.sample(range(30), 3))
        if rng.random() < 0.5:
            ctx_keys = list(learner._contexts)
            user_id, ad_id = rng.choice(ctx_keys)
            learner.record_click(ad_id, user_id=user_id, slot_index=None)
        learner.maybe_sync(msg * 13.0)
    return learner


class TestLearnerState:
    def test_state_round_trip_through_json(self):
        learner = populated_learner()
        payload = json.loads(json.dumps(learner.state_dict()))
        restored = LinUcbLearner(sync_interval_s=50.0)
        restored.load_state(payload)
        assert restored.state_dict() == learner.state_dict()
        assert restored.epoch == learner.epoch
        assert set(payload) == {"epoch", "shared", "arms", "pending", "contexts"}
        assert payload["arms"] and payload["pending"] and payload["contexts"]
        # The restored learner serves what the uninterrupted one does.
        slate = Slate.of(
            slate_entry(ad_id, 1.0 - 0.1 * i, 0.4, 0.2)
            for i, ad_id in enumerate([3, 11, 29])
        )
        served, rows, order = restored.rerank(slate)
        want, want_rows, want_order = learner.rerank(slate)
        assert served == want and rows == want_rows
        assert np.array_equal(order, want_order)

    def test_stale_per_ad_layout_fails_by_name(self):
        payload = populated_learner().state_dict()
        payload["models"] = {"3": {"A": [], "b": [], "A_inv": []}}
        del payload["shared"], payload["arms"]
        with pytest.raises(ConfigError, match="'models' layout"):
            LinUcbLearner().load_state(payload)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_partition_merge_is_lossless(self, num_shards):
        payload = populated_learner().state_dict()

        def shard_of(user_id: int) -> int:
            return user_id % num_shards

        parts = [
            partition_learn_state(payload, shard, shard_of)
            for shard in range(num_shards)
        ]
        for shard, part in enumerate(parts):
            assert part["shared"] == payload["shared"]
            assert part["arms"] == payload["arms"]
            assert part["epoch"] == payload["epoch"]
            for record in part["pending"]:
                assert shard_of(int(record[1])) == shard
        assert merge_learn_states(parts) == payload

    def test_merge_of_absent_states_is_none(self):
        assert merge_learn_states([None, None]) is None

    def test_sort_records_is_canonical(self):
        records = example_records(20)
        assert sort_records(reversed(sort_records(records))) == sort_records(
            records
        )
        assert [rec[:5] for rec in sort_records(records)] == sorted(
            rec[:5] for rec in records
        )


# -- config validation -------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"ridge_lambda": 0.0},
            {"ridge_lambda": -1.0},
            {"sync_interval_s": 0.0},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            LinUcbLearner(**kwargs)

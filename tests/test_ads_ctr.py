"""Tests for CTR estimation and click simulation."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ctr import QUALITY_CAP, CtrEstimator
from repro.errors import ConfigError
from repro.stream.clicks import ClickSimulator


class TestValidation:
    def test_prior_ctr_bounds(self):
        with pytest.raises(ConfigError):
            CtrEstimator(prior_ctr=0.0)
        with pytest.raises(ConfigError):
            CtrEstimator(prior_ctr=1.0)

    def test_prior_strength_positive(self):
        with pytest.raises(ConfigError):
            CtrEstimator(prior_strength=0.0)

    def test_discount_bounds(self):
        with pytest.raises(ConfigError):
            CtrEstimator(discount=0.0)
        with pytest.raises(ConfigError):
            CtrEstimator(discount=1.5)

    def test_a_discounted_estimator_refuses_a_block(self):
        """The block fold cannot apply the per-impression discount, so a
        discounted estimator refuses it — an error, not an ``assert``
        that ``python -O`` would strip — and keeps its evidence."""
        fading = CtrEstimator(discount=0.9)
        slots = np.array([fading.slot_of(7), fading.slot_of(8)])
        fading.record_impression(7)
        before = (fading.impressions_of(7), fading.impressions_of(8), fading.writes)
        with pytest.raises(ConfigError, match="undiscounted"):
            fading.record_block(slots, slots[:1])
        assert (
            fading.impressions_of(7), fading.impressions_of(8), fading.writes
        ) == before
        plain = CtrEstimator()
        plain.record_block(np.array([plain.slot_of(7)] * 2), np.zeros(0, np.intp))
        assert plain.impressions_of(7) == 2.0


class TestEstimates:
    def test_unseen_ad_gets_prior(self):
        estimator = CtrEstimator(prior_ctr=0.05)
        assert estimator.estimate(7) == pytest.approx(0.05)
        assert estimator.quality_multiplier(7) == pytest.approx(1.0)

    def test_clicks_raise_estimate(self):
        estimator = CtrEstimator(prior_ctr=0.05, prior_strength=10.0)
        for _ in range(20):
            estimator.record_impression(1)
            estimator.record_click(1)
        assert estimator.estimate(1) > 0.5

    def test_ignored_ad_sinks_below_prior(self):
        estimator = CtrEstimator(prior_ctr=0.05, prior_strength=10.0)
        for _ in range(200):
            estimator.record_impression(1)
        assert estimator.estimate(1) < 0.05
        assert estimator.quality_multiplier(1) < 1.0

    def test_quality_multiplier_capped(self):
        estimator = CtrEstimator(prior_ctr=0.01, prior_strength=1.0)
        for _ in range(50):
            estimator.record_impression(1)
            estimator.record_click(1)
        assert estimator.quality_multiplier(1) == QUALITY_CAP

    def test_counts_tracked(self):
        estimator = CtrEstimator()
        estimator.record_impression(3)
        estimator.record_impression(3)
        estimator.record_click(3)
        assert estimator.impressions_of(3) == 2.0
        assert estimator.clicks_of(3) == 1.0
        assert estimator.observed_ads() == [3]

    def test_global_ctr(self):
        estimator = CtrEstimator(prior_ctr=0.05)
        assert estimator.global_ctr() == 0.05
        estimator.record_impression(1)
        estimator.record_impression(2)
        estimator.record_click(1)
        assert estimator.global_ctr() == pytest.approx(0.5)

    def test_discount_fades_history(self):
        fading = CtrEstimator(prior_ctr=0.05, prior_strength=1.0, discount=0.5)
        # One early click, then a long dry spell.
        fading.record_impression(1)
        fading.record_click(1)
        for _ in range(20):
            fading.record_impression(1)
        frozen = CtrEstimator(prior_ctr=0.05, prior_strength=1.0, discount=1.0)
        frozen.record_impression(1)
        frozen.record_click(1)
        for _ in range(20):
            frozen.record_impression(1)
        assert fading.clicks_of(1) < frozen.clicks_of(1)

    @given(
        clicks=st.integers(min_value=0, max_value=50),
        impressions=st.integers(min_value=0, max_value=200),
    )
    def test_estimate_always_in_unit_interval(self, clicks, impressions):
        estimator = CtrEstimator()
        for _ in range(impressions):
            estimator.record_impression(1)
        for _ in range(min(clicks, impressions)):
            estimator.record_click(1)
        assert 0.0 < estimator.estimate(1) < 1.0


# Seed-corpus ids, scenario-range launch ids (slot maps must be interned,
# not ad_id-indexed) and one id that is never mentioned.
CTR_IDS = list(range(30)) + [800_000 + i for i in range(10)]
UNSEEN_ID = 999_999

ctr_ops = st.lists(
    st.tuples(
        st.sampled_from(["impression", "click", "restore", "intern"]),
        st.sampled_from(CTR_IDS),
        st.floats(0.0, 400.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
    max_size=80,
)


class TestQualityBlock:
    """``quality_block`` is the scalar ``quality_multiplier`` elementwise,
    bit for bit, whatever happened to the evidence before."""

    @staticmethod
    def assert_block_is_scalar(estimator: CtrEstimator) -> None:
        ids = CTR_IDS + [UNSEEN_ID]
        known = set(estimator.observed_ads())
        # Asking for a slot interns the ad; that must not count as
        # evidence or move any estimate.
        before = [estimator.quality_multiplier(ad_id) for ad_id in ids]
        slots = np.array([estimator.slot_of(ad_id) for ad_id in ids])
        block = estimator.quality_block(slots)
        assert block.dtype == np.float64
        assert block.tolist() == before
        assert block.tolist() == [estimator.quality_multiplier(i) for i in ids]
        assert set(estimator.observed_ads()) == known

    @settings(max_examples=60, deadline=None)
    @given(ops=ctr_ops, discount=st.sampled_from([1.0, 0.9, 0.5]))
    def test_any_interleaving(self, ops, discount):
        estimator = CtrEstimator(
            prior_ctr=0.05, prior_strength=4.0, discount=discount
        )
        for op, ad_id, impressions, click_share in ops:
            if op == "impression":
                estimator.record_impression(ad_id)
            elif op == "click":
                estimator.record_click(ad_id)
            elif op == "restore":
                estimator.restore(ad_id, impressions, impressions * click_share)
            else:
                estimator.slot_of(ad_id)
            self.assert_block_is_scalar(estimator)

    def test_block_covers_prior_penalty_and_cap(self):
        estimator = CtrEstimator(prior_ctr=0.05, prior_strength=4.0)
        estimator.restore(1, 200.0, 0.0)    # ignored: sinks below 1
        estimator.restore(2, 50.0, 50.0)    # always clicked: capped
        slots = np.array([estimator.slot_of(i) for i in (0, 1, 2)])
        unseen, ignored, loved = estimator.quality_block(slots).tolist()
        assert unseen == estimator.quality_multiplier(0) == pytest.approx(1.0)
        assert ignored < 0.1
        assert loved == QUALITY_CAP

    def test_restore_replaces_evidence_and_keeps_totals(self):
        estimator = CtrEstimator()
        estimator.record_impression(5)
        estimator.record_impression(6)
        estimator.record_click(6)
        estimator.restore(5, 10.0, 4.0)
        assert estimator.impressions_of(5) == 10.0
        assert estimator.clicks_of(5) == 4.0
        assert estimator.global_ctr() == pytest.approx(5.0 / 11.0)
        assert estimator.observed_ads() == [5, 6]


class TestClickSimulator:
    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ConfigError):
            ClickSimulator(rng, examine_decay=0.0)
        with pytest.raises(ConfigError):
            ClickSimulator(rng, click_given_relevant=1.5)
        with pytest.raises(ConfigError):
            ClickSimulator(rng, noise_click=-0.1)

    def test_output_aligned_with_slate(self):
        simulator = ClickSimulator(random.Random(1))
        clicks = simulator.clicks_for_slate([1, 2, 3], lambda ad: 0.5)
        assert len(clicks) == 3

    def test_relevant_ads_clicked_more(self):
        simulator = ClickSimulator(random.Random(2), examine_decay=1.0)
        relevant = sum(
            simulator.clicks_for_slate([1], lambda ad: 1.0)[0] for _ in range(500)
        )
        irrelevant = sum(
            simulator.clicks_for_slate([1], lambda ad: 0.0)[0] for _ in range(500)
        )
        assert relevant > 5 * max(1, irrelevant)

    def test_position_bias(self):
        simulator = ClickSimulator(
            random.Random(3), examine_decay=0.3, click_given_relevant=1.0
        )
        first = 0
        fifth = 0
        for _ in range(800):
            clicks = simulator.clicks_for_slate([1, 2, 3, 4, 5], lambda ad: 1.0)
            first += clicks[0]
            fifth += clicks[4]
        assert first > 3 * max(1, fifth)

    def test_empty_slate(self):
        simulator = ClickSimulator(random.Random(4))
        assert simulator.clicks_for_slate([], lambda ad: 1.0) == []


class TestEngineIntegration:
    def test_engine_records_impressions_and_clicks(self, tiny_workload):
        from repro.core.config import EngineConfig
        from repro.core.recommender import ContextAwareRecommender

        recommender = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(ctr_feedback=True)
        )
        engine = recommender.engine
        post = tiny_workload.posts[0]
        result = engine.post(post.author_id, post.text, post.timestamp)
        served = [s.ad_id for d in result.deliveries for s in d.slate]
        if not served:
            pytest.skip("no impressions generated by this post")
        assert engine.ctr is not None
        assert engine.ctr.impressions_of(served[0]) >= 1.0
        engine.record_click(served[0])
        assert engine.ctr.clicks_of(served[0]) == 1.0

    def test_click_feedback_reranks(self, tiny_workload):
        """Clicking one ad repeatedly must eventually raise it above an
        equal-content rival in later slates."""
        from repro.core.config import EngineConfig
        from repro.core.recommender import ContextAwareRecommender

        recommender = ContextAwareRecommender.from_workload(
            tiny_workload,
            EngineConfig(ctr_feedback=True, charge_impressions=False),
        )
        engine = recommender.engine
        post = tiny_workload.posts[0]
        before = engine.slate_for_message(0, post.text, post.timestamp)
        if len(before) < 2:
            pytest.skip("need at least two slate entries")
        runner_up = before[1].ad_id
        for _ in range(60):
            engine.ctr.record_impression(runner_up)
            engine.ctr.record_click(runner_up)
        after = engine.slate_for_message(0, post.text, post.timestamp)
        before_rank = [s.ad_id for s in before].index(runner_up)
        after_rank = [s.ad_id for s in after].index(runner_up)
        assert after_rank <= before_rank

    def test_record_click_noop_without_feedback(self, tiny_workload):
        from repro.core.config import EngineConfig
        from repro.core.recommender import ContextAwareRecommender

        recommender = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(ctr_feedback=False)
        )
        recommender.engine.record_click(0)  # must not raise
        assert recommender.engine.ctr is None

"""Tests for campaign churn generation and live engine churn handling."""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.churn import AdArrival, AdEnding, generate_churn
from repro.datagen.topicspace import TopicSpace
from repro.errors import ConfigError


@pytest.fixture()
def space() -> TopicSpace:
    return TopicSpace(num_topics=4, vocab_size=400, focus_size=30)


class TestGeneration:
    def test_validation(self, space):
        rng = random.Random(0)
        with pytest.raises(ConfigError):
            generate_churn(space, [0, 1], rng, arrivals=-1, endings=0, duration_s=10.0)
        with pytest.raises(ConfigError):
            generate_churn(space, [0, 1], rng, arrivals=0, endings=3, duration_s=10.0)
        with pytest.raises(ConfigError):
            generate_churn(space, [0], rng, arrivals=1, endings=0, duration_s=0.0)

    def test_counts(self, space):
        schedule = generate_churn(
            space, list(range(20)), random.Random(1), arrivals=5, endings=3,
            duration_s=100.0,
        )
        assert len(schedule.arrivals) == 5
        assert len(schedule.endings) == 3

    def test_fresh_ids_do_not_collide(self, space):
        existing = list(range(20))
        schedule = generate_churn(
            space, existing, random.Random(2), arrivals=8, endings=0,
            duration_s=100.0,
        )
        new_ids = [arrival.ad.ad_id for arrival in schedule.arrivals]
        assert not set(new_ids) & set(existing)
        assert len(set(new_ids)) == 8

    def test_endings_unique_targets(self, space):
        schedule = generate_churn(
            space, list(range(10)), random.Random(3), arrivals=0, endings=10,
            duration_s=50.0,
        )
        targets = [ending.ad_id for ending in schedule.endings]
        assert sorted(targets) == list(range(10))

    def test_events_merged_in_time_order(self, space):
        schedule = generate_churn(
            space, list(range(10)), random.Random(4), arrivals=6, endings=4,
            duration_s=100.0,
        )
        stamps = [stamp for stamp, _ in schedule.events()]
        assert stamps == sorted(stamps)
        kinds = {type(event) for _, event in schedule.events()}
        assert kinds == {AdArrival, AdEnding}

    def test_timestamps_within_duration(self, space):
        schedule = generate_churn(
            space, list(range(10)), random.Random(5), arrivals=5, endings=5,
            duration_s=60.0,
        )
        for stamp, _ in schedule.events():
            assert 0.0 <= stamp < 60.0


class TestEngineChurn:
    def test_launched_ad_becomes_servable(self, tiny_workload):
        recommender = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(charge_impressions=False)
        )
        engine = recommender.engine
        post = tiny_workload.posts[0]
        # A new ad whose terms are exactly the message's own vector: it
        # should dominate the content score immediately after launch.
        vec = engine.vectorize(post.text)
        from repro.ads.ad import Ad

        whale = Ad(
            ad_id=10_000,
            advertiser="newcomer",
            text=post.text,
            terms=dict(vec),
            bid=engine.corpus.max_bid * 2,
        )
        before = engine.slate_for_message(0, post.text, post.timestamp)
        assert all(scored.ad_id != 10_000 for scored in before)
        engine.launch_campaign(whale, post.timestamp)
        after = engine.slate_for_message(0, post.text, post.timestamp + 1.0)
        assert after and after[0].ad_id == 10_000

    def test_ended_campaign_disappears(self, tiny_workload):
        recommender = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(charge_impressions=False)
        )
        engine = recommender.engine
        post = tiny_workload.posts[0]
        slate = engine.slate_for_message(0, post.text, post.timestamp)
        if not slate:
            pytest.skip("empty slate for this message")
        victim = slate[0].ad_id
        engine.end_campaign(victim, post.timestamp)
        after = engine.slate_for_message(0, post.text, post.timestamp + 1.0)
        assert all(scored.ad_id != victim for scored in after)

    def test_end_campaign_idempotent(self, tiny_workload):
        recommender = ContextAwareRecommender.from_workload(tiny_workload)
        engine = recommender.engine
        engine.end_campaign(0, 1.0)
        engine.end_campaign(0, 2.0)  # must not raise
        assert not engine.corpus.is_active(0)

    def test_replay_with_interleaved_churn_stays_exact(self, tiny_workload):
        """Slates must equal the full-scan oracle even while the corpus
        churns between posts."""
        from collections import defaultdict

        from repro.profiles.profile import UserProfile
        from tests.helpers import assert_scores_match, oracle_slate_scores

        recommender = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(searcher="ta", charge_impressions=False)
        )
        engine = recommender.engine
        schedule = generate_churn(
            tiny_workload.topic_space,
            [ad.ad_id for ad in tiny_workload.ads],
            random.Random(9),
            arrivals=10,
            endings=10,
            duration_s=tiny_workload.config.duration_s,
        )
        churn_events = schedule.events()
        half_life = engine.config.profile_half_life_s
        oracle_profiles = defaultdict(lambda: UserProfile(half_life))
        cursor = 0
        for post in tiny_workload.posts[:25]:
            while cursor < len(churn_events) and churn_events[cursor][0] <= post.timestamp:
                _, event = churn_events[cursor]
                if isinstance(event, AdArrival):
                    engine.launch_campaign(event.ad, event.timestamp)
                else:
                    engine.end_campaign(event.ad_id, event.timestamp)
                cursor += 1
            vec = engine.vectorize(post.text)
            oracle_profiles[post.author_id].update(vec, post.timestamp)
            expected = {
                follower: oracle_slate_scores(
                    engine.corpus,
                    engine.config.weights,
                    vec,
                    oracle_profiles[follower].unit,
                    engine.location_of(follower),
                    post.timestamp,
                    engine.config.k,
                )
                for follower in tiny_workload.graph.followers(post.author_id)
            }
            result = engine.post(post.author_id, post.text, post.timestamp)
            for delivery in result.deliveries:
                assert_scores_match(
                    [scored.score for scored in delivery.slate],
                    expected[delivery.user_id],
                )

"""Tests for the public facade."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.geo.point import GeoPoint
from repro.scenarios import ScenarioDriver
from tests.conftest import workload_events


@pytest.fixture()
def recommender(tiny_workload) -> ContextAwareRecommender:
    return ContextAwareRecommender.from_workload(tiny_workload)


class TestConstruction:
    def test_users_registered_with_homes(self, tiny_workload, recommender):
        user = tiny_workload.users[0]
        assert recommender.engine.location_of(user.user_id) == user.home

    def test_fresh_corpus_per_recommender(self, tiny_workload):
        first = ContextAwareRecommender.from_workload(tiny_workload)
        second = ContextAwareRecommender.from_workload(tiny_workload)
        assert first.engine.corpus is not second.engine.corpus

    def test_config_passthrough(self, tiny_workload):
        config = EngineConfig(k=3, mode=EngineMode.EXACT)
        recommender = ContextAwareRecommender.from_workload(tiny_workload, config)
        assert recommender.config.k == 3


class TestOperations:
    def test_post_returns_slates(self, recommender):
        result = recommender.post(0, "w00010 w00011 w00012", 5.0)
        assert result.num_deliveries == len(result.deliveries)
        for delivery in result.deliveries:
            assert len(delivery.slate) <= recommender.config.k

    def test_slate_for_message_is_read_only(self, recommender):
        before = recommender.stats.posts
        slate = recommender.slate_for_message(0, "w00010 w00020", 5.0)
        assert recommender.stats.posts == before
        assert len(slate) <= recommender.config.k

    def test_checkin_delegates(self, recommender):
        recommender.checkin(0, GeoPoint(1.0, 2.0), 1.0)
        assert recommender.engine.location_of(0) == GeoPoint(1.0, 2.0)

    def test_driven_replay_limit(self, tiny_workload, recommender):
        totals = ScenarioDriver(recommender.engine, tiny_workload).run(
            workload_events(tiny_workload, limit_posts=10)
        )
        assert totals.posts == 10
        assert totals.deliveries == recommender.stats.deliveries

    def test_explain_mentions_ad(self, recommender):
        result = recommender.post(0, "w00010 w00011", 5.0)
        for delivery in result.deliveries:
            if delivery.slate:
                line = recommender.explain(delivery.slate[0])
                assert f"ad {delivery.slate[0].ad_id}" in line
                return
        pytest.skip("no slate produced by this post")

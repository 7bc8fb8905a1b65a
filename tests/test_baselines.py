"""Tests for the comparison recommenders."""

from __future__ import annotations

import pytest

from repro.baselines.base import BaselineState
from repro.baselines.content_only import ContentOnlyRecommender
from repro.baselines.engine_adapter import SystemRecommender
from repro.baselines.fullscan import FullScanRecommender
from repro.baselines.popularity import PopularityRecommender
from repro.baselines.profile_only import ProfileOnlyRecommender
from repro.baselines.random_rec import RandomRecommender
from repro.core.config import EngineConfig
from repro.util.sparse import dot


@pytest.fixture()
def state(tiny_workload) -> BaselineState:
    return BaselineState(
        tiny_workload.build_corpus(),
        {user.user_id: user.home for user in tiny_workload.users},
    )


@pytest.fixture()
def message(tiny_workload):
    post = tiny_workload.posts[0]
    vec = tiny_workload.vectorizer.transform(
        tiny_workload.tokenizer.tokenize(post.text)
    )
    return post, vec


class TestFullScan:
    def test_respects_k(self, state, message):
        post, vec = message
        slate = FullScanRecommender(state).slate(0, post.msg_id, vec, post.timestamp, 5)
        assert len(slate) <= 5

    def test_observe_post_builds_profile(self, state, message):
        post, vec = message
        recommender = FullScanRecommender(state)
        recommender.observe_post(3, vec, post.timestamp)
        assert not state.profile(3).is_empty

    def test_targeting_respected(self, state, message):
        post, vec = message
        slate = FullScanRecommender(state).slate(0, post.msg_id, vec, post.timestamp, 10)
        location = state.location_of(0)
        for ad_id in slate:
            assert state.corpus.get(ad_id).targeting.matches(location, post.timestamp)


class TestSystemMatchesFullScan:
    def test_identical_rankings(self, tiny_workload, message):
        """The engine-backed recommender and the full scan define the same
        ranking; their slates must carry identical score multisets, which we
        check via the full-scan scorer itself."""
        post, vec = message
        corpus = tiny_workload.build_corpus()
        locations = {user.user_id: user.home for user in tiny_workload.users}
        scan_state = BaselineState(corpus, locations)
        system_state = BaselineState(corpus, locations)
        scan = FullScanRecommender(scan_state)
        system = SystemRecommender(system_state, EngineConfig(exact_fallback=True))
        for user_id in list(tiny_workload.graph.followers(post.author_id))[:5]:
            a = scan.slate(user_id, post.msg_id, vec, post.timestamp, 10)
            b = system.slate(user_id, post.msg_id, vec, post.timestamp, 10)
            assert a == b

    def test_shared_probe_cached_per_message(self, state, message, monkeypatch):
        post, vec = message
        system = SystemRecommender(state)
        generator = system._candidate_gen
        generate = generator.generate
        probes: list = []

        def counted_generate(*args, **kwargs):
            probes.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(generator, "generate", counted_generate)
        system.slate(0, post.msg_id, vec, post.timestamp, 5)
        system.slate(1, post.msg_id, vec, post.timestamp, 5)
        assert len(probes) == 1


class TestContentOnly:
    def test_only_content_matters(self, state, message):
        post, vec = message
        slate = ContentOnlyRecommender(state).slate(0, post.msg_id, vec, post.timestamp, 10)
        for ad_id in slate:
            assert dot(vec, state.corpus.get(ad_id).terms) > 0.0

    def test_empty_message_empty_slate(self, state):
        assert ContentOnlyRecommender(state).slate(0, 0, {}, 0.0, 10) == []


class TestProfileOnly:
    def test_cold_start_empty(self, state):
        assert ProfileOnlyRecommender(state).slate(0, 0, {"w": 1.0}, 0.0, 10) == []

    def test_serves_profile_matches(self, state, message):
        post, vec = message
        recommender = ProfileOnlyRecommender(state)
        recommender.observe_post(0, vec, post.timestamp)
        slate = recommender.slate(0, post.msg_id, {}, post.timestamp, 10)
        profile = state.profile(0).unit
        for ad_id in slate:
            assert dot(profile, state.corpus.get(ad_id).terms) > 0.0


class TestPopularity:
    def test_bid_descending(self, state, message):
        post, vec = message
        slate = PopularityRecommender(state).slate(0, post.msg_id, vec, post.timestamp, 10)
        bids = [state.corpus.get(ad_id).bid for ad_id in slate]
        assert bids == sorted(bids, reverse=True)

    def test_ignores_message(self, state, message):
        post, vec = message
        recommender = PopularityRecommender(state)
        with_msg = recommender.slate(0, post.msg_id, vec, post.timestamp, 10)
        without = recommender.slate(0, post.msg_id, {}, post.timestamp, 10)
        assert with_msg == without


class TestRandom:
    def test_deterministic_with_seed(self, state, message):
        post, vec = message
        first = RandomRecommender(state, seed=5).slate(0, post.msg_id, vec, post.timestamp, 10)
        second = RandomRecommender(state, seed=5).slate(0, post.msg_id, vec, post.timestamp, 10)
        assert first == second

    def test_only_eligible_ads(self, state, message):
        post, vec = message
        slate = RandomRecommender(state).slate(0, post.msg_id, vec, post.timestamp, 10)
        location = state.location_of(0)
        for ad_id in slate:
            assert state.corpus.get(ad_id).targeting.matches(location, post.timestamp)

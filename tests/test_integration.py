"""End-to-end integration tests across subsystems."""

from __future__ import annotations

import pytest

from repro.baselines.base import BaselineState
from repro.baselines.engine_adapter import SystemRecommender
from repro.baselines.content_only import ContentOnlyRecommender
from repro.baselines.popularity import PopularityRecommender
from repro.baselines.random_rec import RandomRecommender
from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.eval.harness import EffectivenessHarness
from repro.scenarios import ScenarioDriver, build_scenario_stream
from tests.conftest import workload_events


class TestFullPipeline:
    def test_replay_whole_workload_all_modes(self, tiny_workload):
        """Every mode must survive a full replay with charging on."""
        for mode in EngineMode:
            recommender = ContextAwareRecommender.from_workload(
                tiny_workload, EngineConfig(mode=mode)
            )
            totals = ScenarioDriver(recommender.engine, tiny_workload).run(
                workload_events(tiny_workload)
            )
            assert totals.posts == len(tiny_workload.posts)
            assert totals.deliveries == recommender.stats.deliveries
            assert recommender.stats.impressions == totals.impressions

    def test_checkins_flow_through_simulator(self, tiny_workload):
        recommender = ContextAwareRecommender.from_workload(tiny_workload)
        ScenarioDriver(recommender.engine, tiny_workload).run(
            workload_events(tiny_workload, limit_posts=20)
        )
        # At least one user moved off their registered home.
        assert any(
            recommender.engine.location_of(checkin.user_id) == checkin.point
            for checkin in tiny_workload.checkins
        )

    def test_perf_harness_runs_all_modes(self, tiny_workload):
        for mode in EngineMode:
            recommender = ContextAwareRecommender.from_workload(
                tiny_workload, EngineConfig(mode=mode, collect_deliveries=False)
            )
            totals = ScenarioDriver(recommender.engine, tiny_workload).run(
                build_scenario_stream(tiny_workload, (), limit_posts=30).events
            )
            assert totals.deliveries / totals.wall_seconds > 0

    def test_effectiveness_ordering_sanity(self, tiny_workload):
        """The headline shape: context-aware system >= content-only >=
        popularity/random on F1 over the synthetic ground truth."""
        def state():
            return BaselineState(
                tiny_workload.build_corpus(),
                {user.user_id: user.home for user in tiny_workload.users},
            )

        harness = EffectivenessHarness(tiny_workload, max_posts=80, seed=7)
        results = harness.evaluate(
            {
                "system": SystemRecommender(state()),
                "content": ContentOnlyRecommender(state()),
                "popularity": PopularityRecommender(state()),
                "random": RandomRecommender(state()),
            }
        )
        by_name = {result.name: result.f1 for result in results}
        assert by_name["system"] > by_name["popularity"]
        assert by_name["system"] > by_name["random"]
        assert by_name["content"] > by_name["random"]


class TestSmallWorldRegression:
    """A tiny hand-checkable scenario in the spirit of the running example
    (users posting about volleyball vs. coffee; ads follow topics)."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.ads.ad import Ad
        from repro.ads.corpus import AdCorpus
        from repro.graph.social import SocialGraph
        from repro.text.tokenizer import Tokenizer
        from repro.text.vectorizer import TfidfVectorizer
        from repro.core.engine import AdEngine

        tokenizer = Tokenizer()
        posts = [
            "volleyball tournament tonight downtown",
            "best espresso coffee beans roastery",
            "volleyball finals who is coming",
        ]
        vectorizer = TfidfVectorizer().fit(
            tokenizer.tokenize(text) for text in posts
        )
        corpus = AdCorpus(
            [
                Ad(
                    ad_id=0,
                    advertiser="sportco",
                    text="volleyball gear sale",
                    terms=vectorizer.transform(
                        tokenizer.tokenize("volleyball gear net shoes")
                    ),
                    bid=1.0,
                ),
                Ad(
                    ad_id=1,
                    advertiser="beanhouse",
                    text="premium coffee beans",
                    terms=vectorizer.transform(
                        tokenizer.tokenize("coffee beans espresso roast")
                    ),
                    bid=1.5,
                ),
            ]
        )
        graph = SocialGraph()
        for user in (0, 1, 2):
            graph.add_user(user)
        graph.follow(1, 0)  # user1 follows user0
        graph.follow(2, 0)
        engine = AdEngine(
            corpus, graph, vectorizer, tokenizer=tokenizer, config=EngineConfig(k=2)
        )
        for user in (0, 1, 2):
            engine.register_user(user)
        return engine

    def test_topical_ad_ranks_first(self, scenario):
        result = scenario.post(0, "volleyball tournament tonight", 10.0)
        assert result.num_deliveries == 2
        for delivery in result.deliveries:
            assert delivery.slate[0].ad_id == 0  # the volleyball ad

    def test_off_topic_message_flips_ranking(self, scenario):
        result = scenario.post(0, "espresso coffee tasting", 20.0)
        for delivery in result.deliveries:
            assert delivery.slate[0].ad_id == 1  # the coffee ad

    def test_profile_accumulates_author_interests(self, scenario):
        profile = scenario.services.users.state(0).profile
        interests = dict(profile.top_interests(10))
        assert any("volleyball" in term or "espresso" in term for term in interests)

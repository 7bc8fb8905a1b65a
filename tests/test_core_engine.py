"""Engine-level tests: mode equivalence against an independent oracle,
budget integration, location handling, stats bookkeeping."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.core.recommender import ContextAwareRecommender
from repro.errors import ConfigError, UnknownUserError
from repro.geo.point import GeoPoint
from repro.profiles.profile import UserProfile
from tests.helpers import assert_scores_match, oracle_slate_scores


def build_engine(workload, **config_kwargs) -> AdEngine:
    config = EngineConfig(**config_kwargs)
    recommender = ContextAwareRecommender.from_workload(workload, config)
    return recommender.engine


class TestUserManagement:
    def test_unknown_user_post_rejected(self, tiny_workload):
        engine = build_engine(tiny_workload)
        with pytest.raises(UnknownUserError):
            engine.post(10_000, "hello", 0.0)

    def test_register_user_adds_to_graph(self, tiny_workload):
        engine = build_engine(tiny_workload)
        engine.register_user(9_999, GeoPoint(0.0, 0.0))
        assert engine.graph.has_user(9_999)
        assert engine.location_of(9_999) == GeoPoint(0.0, 0.0)

    def test_checkin_updates_location(self, tiny_workload):
        engine = build_engine(tiny_workload)
        engine.checkin(0, GeoPoint(10.0, 10.0), 5.0)
        assert engine.location_of(0) == GeoPoint(10.0, 10.0)


class TestSharedModeExactness:
    def test_slates_match_oracle_with_fallback(self, tiny_workload):
        """Replaying real posts, every delivery's slate must equal an
        independent full-scan oracle that mirrors profile evolution."""
        engine = build_engine(
            tiny_workload,
            searcher="ta",
            charge_impressions=False,
            exact_fallback=True,
        )
        half_life = engine.config.profile_half_life_s
        oracle_profiles = defaultdict(lambda: UserProfile(half_life))
        weights = engine.config.weights
        checked = 0
        for post in tiny_workload.posts[:25]:
            vec = engine.vectorize(post.text)
            oracle_profiles[post.author_id].update(vec, post.timestamp)
            expected_by_user = {}
            for follower in tiny_workload.graph.followers(post.author_id):
                expected_by_user[follower] = oracle_slate_scores(
                    engine.corpus,
                    weights,
                    vec,
                    oracle_profiles[follower].unit,
                    engine.location_of(follower),
                    post.timestamp,
                    engine.config.k,
                )
            result = engine.post(
                post.author_id, post.text, post.timestamp, msg_id=post.msg_id
            )
            for delivery in result.deliveries:
                assert_scores_match(
                    [scored.score for scored in delivery.slate],
                    expected_by_user[delivery.user_id],
                )
                checked += 1
        assert checked > 20

    def test_exact_mode_agrees_with_shared_mode(self, tiny_workload):
        shared = build_engine(
            tiny_workload, mode=EngineMode.SHARED, charge_impressions=False
        )
        exact = build_engine(
            tiny_workload, mode=EngineMode.EXACT, charge_impressions=False
        )
        for post in tiny_workload.posts[:15]:
            a = shared.post(post.author_id, post.text, post.timestamp)
            b = exact.post(post.author_id, post.text, post.timestamp)
            for da, db in zip(a.deliveries, b.deliveries):
                assert da.user_id == db.user_id
                assert_scores_match(
                    [s.score for s in da.slate], [s.score for s in db.slate]
                )


class TestChargingAndBudgets:
    def test_revenue_accumulates(self, tiny_workload):
        engine = build_engine(tiny_workload)
        for post in tiny_workload.posts[:10]:
            engine.post(post.author_id, post.text, post.timestamp)
        assert engine.stats.revenue > 0.0
        # Budget spend only covers capped ads; uncapped impressions still
        # produce revenue, so revenue dominates tracked spend.
        assert engine.stats.revenue >= engine.budget.total_spend() > 0.0

    @staticmethod
    def _tight_budget_engine(workload) -> AdEngine:
        """An engine over the workload's ads with tiny budgets everywhere."""
        import dataclasses

        from repro.ads.corpus import AdCorpus

        squeezed = AdCorpus(
            dataclasses.replace(ad, budget=1.0, terms=dict(ad.terms))
            for ad in workload.ads
        )
        engine = AdEngine(
            corpus=squeezed,
            graph=workload.graph,
            vectorizer=workload.vectorizer,
            tokenizer=workload.tokenizer,
            config=EngineConfig(searcher="ta"),
        )
        for user in workload.users:
            engine.register_user(user.user_id, user.home)
        return engine

    def test_budgets_exhaust_and_retire(self, tiny_workload):
        engine = self._tight_budget_engine(tiny_workload)
        for post in tiny_workload.posts:
            engine.post(post.author_id, post.text, post.timestamp)
        assert engine.stats.retired_ads > 0
        for ad_id in engine.budget.exhausted_ids():
            assert not engine.corpus.is_active(ad_id)
            assert ad_id not in engine.index

    def test_retired_ads_never_served_afterwards(self, tiny_workload):
        engine = self._tight_budget_engine(tiny_workload)
        retired_so_far: set[int] = set()
        for post in tiny_workload.posts[:60]:
            result = engine.post(post.author_id, post.text, post.timestamp)
            for delivery in result.deliveries:
                served = {scored.ad_id for scored in delivery.slate}
                assert not served & retired_so_far
            retired_so_far = set(engine.budget.exhausted_ids())

    def test_charging_off_means_no_revenue(self, tiny_workload):
        engine = build_engine(tiny_workload, charge_impressions=False)
        for post in tiny_workload.posts[:10]:
            engine.post(post.author_id, post.text, post.timestamp)
        assert engine.stats.revenue == 0.0
        assert engine.stats.retired_ads == 0


class TestModesAndStats:
    def test_collect_deliveries_off(self, tiny_workload):
        engine = build_engine(tiny_workload, collect_deliveries=False)
        post = tiny_workload.posts[0]
        result = engine.post(post.author_id, post.text, post.timestamp)
        assert result.deliveries == ()
        assert result.num_deliveries == len(
            tiny_workload.graph.followers(post.author_id)
        )

    def test_delivery_accounting(self, tiny_workload):
        engine = build_engine(tiny_workload)
        for post in tiny_workload.posts[:20]:
            engine.post(post.author_id, post.text, post.timestamp)
        stats = engine.stats
        assert stats.posts == 20
        assert (
            stats.certified_deliveries
            + stats.fallback_deliveries
            + stats.approximate_deliveries
            == stats.deliveries
        )

    def test_standing_slate_requires_incremental(self, tiny_workload):
        engine = build_engine(tiny_workload, mode=EngineMode.SHARED)
        with pytest.raises(ConfigError):
            engine.standing_slate(0)

    def test_incremental_standing_slate(self, tiny_workload):
        engine = build_engine(
            tiny_workload, mode=EngineMode.INCREMENTAL, charge_impressions=False
        )
        target = None
        for post in tiny_workload.posts[:30]:
            result = engine.post(post.author_id, post.text, post.timestamp)
            if result.deliveries:
                target = result.deliveries[0]
        assert target is not None
        assert engine.standing_slate(target.user_id) == target.slate

    def test_standing_slate_empty_before_any_delivery(self, tiny_workload):
        engine = build_engine(tiny_workload, mode=EngineMode.INCREMENTAL)
        assert engine.standing_slate(0) == ()

    def test_out_of_order_posts_tolerated(self, tiny_workload):
        engine = build_engine(tiny_workload)
        engine.post(0, "hello world", 100.0)
        engine.post(1, "hello again", 50.0)  # behind the clock: clamped
        assert engine.stats.posts == 2

    def test_unvectorizable_post_serves_profile_or_nothing(self, tiny_workload):
        engine = build_engine(tiny_workload)
        result = engine.post(0, "!!! ???", 1.0)
        assert result.num_deliveries == len(tiny_workload.graph.followers(0))


class TestGeoInfluence:
    def test_geo_targeted_ads_only_served_in_region(self, tiny_workload):
        engine = build_engine(tiny_workload, charge_impressions=False)
        geo_ads = {
            ad.ad_id
            for ad in engine.corpus.active_ads()
            if ad.targeting.is_geo_targeted
        }
        for post in tiny_workload.posts[:40]:
            result = engine.post(post.author_id, post.text, post.timestamp)
            for delivery in result.deliveries:
                location = engine.location_of(delivery.user_id)
                for scored in delivery.slate:
                    if scored.ad_id in geo_ads:
                        ad = engine.corpus.get(scored.ad_id)
                        assert ad.targeting.matches_location(location)

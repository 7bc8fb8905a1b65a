"""Personalisation correctness: certified and fallback slates are exact."""

from __future__ import annotations

import random

import pytest

from repro.ads.corpus import AdCorpus
from repro.core.candidates import SharedCandidateGenerator
from repro.core.config import EngineConfig
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoringModel
from repro.core.services import EngineServices
from repro.datagen.adgen import generate_ads
from repro.datagen.topicspace import TopicSpace
from repro.index.inverted import AdInvertedIndex
from tests.helpers import assert_scores_match, oracle_slate_scores


def build_stack(num_ads: int = 150, seed: int = 0, **config_kwargs):
    rng = random.Random(seed)
    space = TopicSpace(6, 800)
    ads, _ = generate_ads(num_ads, space, rng, geo_targeted_fraction=0.3)
    corpus = AdCorpus(ads)
    index = AdInvertedIndex.from_corpus(corpus)
    config = EngineConfig(**config_kwargs)
    scoring = ScoringModel(corpus, config.weights)
    services = EngineServices(
        config=config, corpus=corpus, index=index, scoring=scoring
    )
    personalizer = Personalizer(services)
    generator = SharedCandidateGenerator(index, config.overfetch)
    return rng, space, corpus, index, config, scoring, personalizer, generator


def random_message(space: TopicSpace, rng: random.Random) -> dict[str, float]:
    from repro.util.sparse import l2_normalize

    words = space.sample_words(rng.randrange(space.num_topics), 10, rng)
    return l2_normalize({word: 1.0 for word in set(words)})


def random_profile(space: TopicSpace, rng: random.Random) -> dict[str, float]:
    from repro.util.sparse import l2_normalize

    words = space.sample_words(rng.randrange(space.num_topics), 15, rng)
    return l2_normalize({word: 1.0 for word in set(words)})


class TestExactSlate:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng, space, corpus, _, config, _, personalizer, _ = build_stack(seed=seed)
        message = random_message(space, rng)
        profile = random_profile(space, rng)
        slate = personalizer.exact_slate(message, profile, None, 1000.0, config.k)
        expected = oracle_slate_scores(
            corpus, config.weights, message, profile, None, 1000.0, config.k
        )
        assert_scores_match([scored.score for scored in slate], expected)

    def test_empty_message_serves_profile_matches(self):
        rng, space, corpus, _, config, _, personalizer, _ = build_stack(seed=1)
        profile = random_profile(space, rng)
        slate = personalizer.exact_slate({}, profile, None, 0.0, config.k)
        expected = oracle_slate_scores(
            corpus, config.weights, {}, profile, None, 0.0, config.k
        )
        assert_scores_match([scored.score for scored in slate], expected)


class TestSlateForWithFallback:
    @pytest.mark.parametrize("seed", range(8))
    def test_always_exact(self, seed):
        """With exact_fallback on, every slate (certified or not) must match
        the oracle."""
        stack = build_stack(seed=seed, exact_fallback=True)
        rng, space, corpus, _, config, _, personalizer, generator = stack
        for trial in range(5):
            message = random_message(space, rng)
            profile = random_profile(space, rng)
            candidates = generator.generate(message)
            result = personalizer.slate_for(
                candidates, message, trial, profile, 0, None, 500.0, config.k
            )
            expected = oracle_slate_scores(
                corpus, config.weights, message, profile, None, 500.0, config.k
            )
            assert_scores_match(
                [scored.score for scored in result.slate], expected
            )

    def test_certified_slates_skip_fallback_yet_are_exact(self):
        """Whenever certification fires, the slate was computed WITHOUT the
        exact probe and must still equal the oracle."""
        stack = build_stack(
            seed=3, exact_fallback=False, overfetch=60, static_candidates=60
        )
        rng, space, corpus, _, config, _, personalizer, generator = stack
        certified_seen = 0
        for trial in range(30):
            message = random_message(space, rng)
            profile = random_profile(space, rng)
            candidates = generator.generate(message)
            result = personalizer.slate_for(
                candidates, message, trial, profile, 0, None, 500.0, config.k
            )
            if result.certified:
                certified_seen += 1
                expected = oracle_slate_scores(
                    corpus, config.weights, message, profile, None, 500.0, config.k
                )
                assert_scores_match(
                    [scored.score for scored in result.slate], expected
                )
        assert certified_seen > 0, "certification never fired; bound is vacuous"


class TestApproximateMode:
    def test_no_fallback_flag(self):
        stack = build_stack(seed=2, exact_fallback=False)
        rng, space, _, _, config, _, personalizer, generator = stack
        message = random_message(space, rng)
        candidates = generator.generate(message)
        result = personalizer.slate_for(
            candidates, message, 0, {}, 0, None, 0.0, config.k
        )
        assert not result.fell_back

    def test_approximate_slate_is_subset_of_union_sources(self):
        stack = build_stack(seed=4, exact_fallback=False)
        rng, space, _, _, config, _, personalizer, generator = stack
        message = random_message(space, rng)
        profile = random_profile(space, rng)
        candidates = generator.generate(message)
        result = personalizer.slate_for(
            candidates, message, 0, profile, 0, None, 0.0, config.k
        )
        allowed = set(candidates.ad_ids())
        allowed.update(personalizer.static_candidate_ids())
        allowed.update(
            ad_id
            for ad_id, _ in personalizer.profile_candidates(0, profile, 0).entries
        )
        assert {scored.ad_id for scored in result.slate} <= allowed


class TestProfileCandidateCache:
    def test_cache_hit_on_same_epochs(self):
        stack = build_stack(seed=5)
        rng, space, _, _, _, _, personalizer, _ = stack
        profile = random_profile(space, rng)
        first = personalizer.profile_candidates(7, profile, 3)
        second = personalizer.profile_candidates(7, profile, 3)
        assert first is second

    def test_invalidated_by_profile_epoch(self):
        stack = build_stack(seed=5)
        rng, space, _, _, _, _, personalizer, _ = stack
        profile = random_profile(space, rng)
        first = personalizer.profile_candidates(7, profile, 3)
        second = personalizer.profile_candidates(7, profile, 4)
        assert first is not second

    def test_invalidated_by_corpus_add(self):
        from repro.ads.ad import Ad

        stack = build_stack(seed=5)
        rng, space, corpus, _, _, _, personalizer, _ = stack
        profile = random_profile(space, rng)
        first = personalizer.profile_candidates(7, profile, 3)
        corpus.add(
            Ad(ad_id=5000, advertiser="n", text="t", terms=dict(profile), bid=1.0)
        )
        second = personalizer.profile_candidates(7, profile, 3)
        assert first is not second
        assert 5000 in [ad_id for ad_id, _ in second.entries]


class TestMidFanoutRetirement:
    """Charging can retire an ad between two followers of one event: the
    vector kernel's per-event message gather and candidate rows were
    taken before the retirement, and only dropping the retired row from
    them keeps the exhausted ad out of the next follower's slate."""

    @staticmethod
    def engine_for(workload, searcher):
        from repro.core.engine import AdEngine

        engine = AdEngine(
            corpus=workload.build_corpus(),
            graph=workload.graph,
            vectorizer=workload.vectorizer,
            tokenizer=workload.tokenizer,
            # Unpaced, so moving an ad's spend changes nothing until the
            # charge that exhausts it.
            config=EngineConfig(searcher=searcher, pacing_enabled=False),
        )
        for user in workload.users:
            engine.register_user(user.user_id, user.home)
        return engine

    @staticmethod
    def post(engine, post):
        return engine.post(post.author_id, post.text, post.timestamp)

    def test_next_follower_drops_the_exhausted_ad_like_the_oracle(
        self, tiny_workload
    ):
        posts = tiny_workload.posts
        # Scout run: the first event whose first two followers are both
        # served the same budgeted, content-matching ad.
        scout = self.engine_for(tiny_workload, "ta")
        target = None
        for position, post in enumerate(posts):
            deliveries = self.post(scout, post).deliveries
            if len(deliveries) < 2:
                continue
            second = {scored.ad_id for scored in deliveries[1].slate}
            target = next(
                (
                    (position, scored.ad_id)
                    for scored in deliveries[0].slate
                    if scored.content > 0.0
                    and scored.ad_id in second
                    and scout.budget.state(scored.ad_id) is not None
                ),
                None,
            )
            if target is not None:
                break
        assert target is not None, "no shared budgeted ad in any fan-out"
        position, ad_id = target

        served = {}
        for searcher in ("ta", "vector"):
            engine = self.engine_for(tiny_workload, searcher)
            for post in posts[:position]:
                self.post(engine, post)
            state = engine.budget.state(ad_id)
            # Less than the reserve price left: the next charge exhausts.
            engine.budget.restore_spend(ad_id, state.budget - 1e-6)
            if searcher == "vector":
                # The ad really sits in the event's candidate rows and
                # message gather, so the kernel has to take it out again.
                message_vec = engine.vectorize(posts[position].text)
                compact = engine.personalizer._compact
                row = compact.row_of(ad_id)
                assert row in compact.gather(message_vec)[0]
                assert ad_id in dict(
                    engine.candidate_gen.generate(message_vec).entries
                )
            deliveries = self.post(engine, posts[position]).deliveries
            served[searcher] = [
                [scored.ad_id for scored in delivery.slate]
                for delivery in deliveries
            ]
            assert ad_id in served[searcher][0]
            assert not engine.corpus.is_active(ad_id)
            for slate in served[searcher][1:]:
                assert ad_id not in slate
        assert served["vector"] == served["ta"]
        # It kept its row: no compaction hid it.
        assert not compact.alive[row] and compact.ad_ids[row] == ad_id


class TestKernelSelfConsistency:
    """The vector kernel on a whole fan-out equals itself called once per
    follower — ``slate_for`` is the latter — when nothing is written in
    between (tests/test_core_pipeline.py covers the charged fan-out)."""

    @pytest.mark.parametrize("allow_fallback", [True, False])
    @pytest.mark.parametrize("k", [3, 10])
    def test_batch_equals_per_follower_calls(self, k, allow_fallback):
        from repro.geo.point import GeoPoint

        # Shallow sources so certification fails often enough to exercise
        # the fallback cut as well as the approximate one.
        stack = build_stack(
            seed=6,
            searcher="vector",
            overfetch=20,
            profile_candidates=15,
            static_candidates=15,
        )
        rng, space, _, _, config, _, personalizer, generator = stack
        assert k <= config.k
        followers = [
            (
                user_id,
                random_profile(space, rng) if user_id % 4 else {},
                0,
                GeoPoint(rng.uniform(-60, 60), rng.uniform(-150, 150))
                if user_id % 3
                else None,
            )
            for user_id in range(12)
        ]
        fell_back = certified = 0
        for _ in range(6):
            message = random_message(space, rng)
            candidates = generator.generate(message)
            together = personalizer.slate_batch(
                candidates, message, followers, 500.0, k,
                allow_fallback=allow_fallback,
            )
            alone = [
                personalizer.slate_batch(
                    candidates, message, [follower], 500.0, k,
                    allow_fallback=allow_fallback,
                )[0]
                for follower in followers
            ]
            assert together == alone
            assert alone == [
                personalizer.slate_for(
                    candidates, message, *follower, 500.0, k,
                    allow_fallback=allow_fallback,
                )
                for follower in followers
            ]
            fell_back += sum(result.fell_back for result in together)
            certified += sum(
                result.certified and not result.fell_back for result in together
            )
        assert certified > 0
        assert (fell_back > 0) == allow_fallback


class TestServedCallback:
    """``slate_batch`` hands every result to ``served``, in delivery
    order, before it cuts the next."""

    def test_results_are_handed_over_in_order(self):
        stack = build_stack(seed=4, searcher="vector")
        rng, space, _, _, config, _, personalizer, generator = stack
        followers = [
            (user_id, random_profile(space, rng), 0, None) for user_id in range(5)
        ]
        message = random_message(space, rng)
        candidates = generator.generate(message)
        seen = []
        results = personalizer.slate_batch(
            candidates, message, followers, 500.0, config.k,
            served=lambda position, result: seen.append((position, result)),
        )
        assert seen == list(enumerate(results))
        assert results == [
            personalizer.slate_for(candidates, message, *follower, 500.0, config.k)
            for follower in followers
        ]
        assert any(result.slate for result in results)

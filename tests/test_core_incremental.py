"""Incremental maintainer correctness: the standing top-k equals a full
recomputation after every arrival, while probes stay rare."""

from __future__ import annotations

import random

import pytest

from repro.ads.corpus import AdCorpus
from repro.core.candidates import SharedCandidateGenerator
from repro.core.config import EngineConfig, EngineMode
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoringModel
from repro.core.services import EngineServices
from repro.datagen.adgen import generate_ads
from repro.datagen.topicspace import TopicSpace
from repro.index.factory import make_index
from repro.index.vector import VectorSearcher
from repro.profiles.context import FeedContext
from repro.reference import (
    CandidateSources,
    IncrementalTopK,
    ReferencePersonalizer,
    ThresholdCandidateGenerator,
)
from repro.util.sparse import dot, l2_normalize
from tests.helpers import assert_scores_match


def build_maintainer(seed: int = 0, num_ads: int = 120, **config_kwargs):
    rng = random.Random(seed)
    space = TopicSpace(5, 700)
    ads, _ = generate_ads(num_ads, space, rng, geo_targeted_fraction=0.2)
    corpus = AdCorpus(ads)
    config = EngineConfig(mode=EngineMode.INCREMENTAL, **config_kwargs)
    index = make_index(config.searcher, corpus)
    scoring = ScoringModel(corpus, config.weights)
    services = EngineServices(
        config=config, corpus=corpus, index=index, scoring=scoring
    )
    # The engine's wiring: the reference alone on ``ta``; on ``vector``
    # the kernel's probe and exact cut beside the reference's sources.
    if config.searcher == "ta":
        personalizer = sources = ReferencePersonalizer(services)
        generator = ThresholdCandidateGenerator(index, config.shadow_size)
    else:
        personalizer = Personalizer(services)
        sources = CandidateSources(services, VectorSearcher(index))
        generator = SharedCandidateGenerator(index, config.shadow_size)
    context = FeedContext(
        window_size=config.window_size,
        half_life_s=config.context_half_life_s,
    )
    maintainer = IncrementalTopK(
        user_id=0,
        context=context,
        services=services,
        personalizer=personalizer,
        sources=sources,
    )
    return rng, space, corpus, config, scoring, maintainer, generator


def message(space: TopicSpace, rng: random.Random) -> dict[str, float]:
    words = space.sample_words(rng.randrange(space.num_topics), 8, rng)
    return l2_normalize({word: 1.0 for word in set(words)})


def oracle_incremental_scores(corpus, weights, context, profile_vec, location, t, k):
    """Full-corpus recomputation under incremental semantics (raw context
    dot as the content term)."""
    scores = []
    for ad in corpus.active_ads():
        content = context.dot_with(ad.terms)
        profile_affinity = dot(profile_vec, ad.terms)
        if content <= 0.0 and profile_affinity <= 0.0:
            continue
        if not ad.targeting.matches(location, t):
            continue
        scores.append(
            weights.alpha * content
            + weights.beta * profile_affinity
            + weights.gamma * ad.targeting.proximity(location)
            + weights.delta * corpus.normalized_bid(ad.ad_id)
        )
    scores.sort(reverse=True)
    return scores[:k]


class TestExactness:
    @pytest.mark.parametrize("seed", range(5))
    def test_slate_matches_oracle_after_every_arrival(self, seed):
        stack = build_maintainer(seed=seed, searcher="ta")
        rng, space, corpus, config, scoring, maintainer, generator = stack
        profile_vec: dict[str, float] = {}
        profile_epoch = 0
        t = 0.0
        for msg_id in range(40):
            t += rng.uniform(1.0, 300.0)
            vec = message(space, rng)
            if rng.random() < 0.1:  # the user posts: profile changes
                profile_vec = message(space, rng)
                profile_epoch += 1
            probe = generator.generate(vec)
            slate = maintainer.on_arrival(
                msg_id, t, vec, probe, profile_vec, profile_epoch, None
            )
            expected = oracle_incremental_scores(
                corpus,
                config.weights,
                maintainer.context,
                profile_vec,
                None,
                t,
                config.k,
            )
            assert_scores_match([scored.score for scored in slate], expected)

    def test_certification_actually_fires(self):
        stack = build_maintainer(seed=1, shadow_size=60)
        rng, space, _, _, _, maintainer, generator = stack
        t = 0.0
        for msg_id in range(60):
            t += rng.uniform(1.0, 60.0)
            vec = message(space, rng)
            probe = generator.generate(vec)
            maintainer.on_arrival(msg_id, t, vec, probe, {}, 0, None)
        assert maintainer.stats.certified > 0
        assert maintainer.stats.certified + maintainer.stats.refreshes == (
            maintainer.stats.arrivals
        )

    def test_profile_change_forces_refresh(self):
        stack = build_maintainer(seed=2)
        rng, space, _, _, _, maintainer, generator = stack
        vec = message(space, rng)
        probe = generator.generate(vec)
        maintainer.on_arrival(0, 10.0, vec, probe, {}, 0, None)
        before = maintainer.stats.refreshes
        vec2 = message(space, rng)
        maintainer.on_arrival(1, 20.0, vec2, generator.generate(vec2), {}, 1, None)
        assert maintainer.stats.refreshes == before + 1


class TestVectorRefreshIsTheKernel:
    def test_no_boosted_searcher_and_the_reference_slates(self, monkeypatch):
        """A refresh on the vector searcher is ``exact_slate`` — the
        kernel — plus the shadow's content probe on the vector searcher:
        no TA searcher is built, and every standing slate is the ``ta``
        maintainer's to the mirror's storage precision."""
        import repro.reference.rerank as rerank_module

        built, cuts = [], []
        searcher_cls = rerank_module.ThresholdSearcher
        exact_slate = Personalizer.exact_slate

        def building(*args, **kwargs):
            built.append(kwargs)
            return searcher_cls(*args, **kwargs)

        def cutting(personalizer, *args):
            cuts.append(args)
            return exact_slate(personalizer, *args)

        monkeypatch.setattr(rerank_module, "ThresholdSearcher", building)
        monkeypatch.setattr(Personalizer, "exact_slate", cutting)
        rng, space, *_, maintainer, generator = build_maintainer(
            seed=5, searcher="vector"
        )
        arrivals = []
        profile_vec: dict[str, float] = {}
        profile_epoch = 0
        t = 0.0
        for msg_id in range(40):
            t += rng.uniform(1.0, 300.0)
            vec = message(space, rng)
            if rng.random() < 0.3:  # the user posts: the next arrival refreshes
                profile_vec = message(space, rng)
                profile_epoch += 1
            arrivals.append((msg_id, t, vec, profile_vec, profile_epoch))
        got = [
            maintainer.on_arrival(
                msg_id, t, vec, generator.generate(vec), profile, epoch, None
            )
            for msg_id, t, vec, profile, epoch in arrivals
        ]
        assert not built and len(cuts) == maintainer.stats.refreshes
        *_, reference, reference_generator = build_maintainer(seed=5, searcher="ta")
        for (msg_id, t, vec, profile, epoch), slate in zip(arrivals, got):
            want = reference.on_arrival(
                msg_id, t, vec, reference_generator.generate(vec),
                profile, epoch, None,
            )
            assert [scored.ad_id for scored in slate] == [
                scored.ad_id for scored in want
            ]
            for mine, ref in zip(slate, want):
                assert mine.score == pytest.approx(ref.score, abs=1e-6)
                assert mine.content == pytest.approx(ref.content, abs=1e-6)
                assert mine.static == pytest.approx(ref.static, abs=1e-6)
        assert maintainer.stats.refreshes == reference.stats.refreshes > 5


class TestRetirementHandling:
    def test_retired_ads_leave_slate_on_next_arrival(self):
        stack = build_maintainer(seed=3)
        rng, space, corpus, _, _, maintainer, generator = stack
        vec = message(space, rng)
        slate = maintainer.on_arrival(0, 10.0, vec, generator.generate(vec), {}, 0, None)
        assert slate, "need a non-empty slate for this test"
        victim = slate[0].ad_id
        corpus.retire(victim)
        vec2 = message(space, rng)
        slate2 = maintainer.on_arrival(
            1, 20.0, vec2, generator.generate(vec2), {}, 0, None
        )
        assert victim not in {scored.ad_id for scored in slate2}


class TestApproximateMode:
    def test_served_approximate_counted(self):
        stack = build_maintainer(seed=4, exact_fallback=False, shadow_size=10)
        rng, space, _, _, _, maintainer, generator = stack
        t = 0.0
        for msg_id in range(20):
            t += rng.uniform(1.0, 600.0)
            vec = message(space, rng)
            maintainer.on_arrival(msg_id, t, vec, generator.generate(vec), {}, 0, None)
        stats = maintainer.stats
        assert stats.refreshes == 0
        assert stats.certified + stats.served_approximate == stats.arrivals

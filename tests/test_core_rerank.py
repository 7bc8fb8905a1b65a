"""Personalisation correctness: certified and fallback slates are exact."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.ads.corpus import AdCorpus
from repro.core.candidates import CandidateSet, SharedCandidateGenerator
from repro.core.config import EngineConfig
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoringModel
from repro.core.services import EngineServices
from repro.datagen.adgen import generate_ads
from repro.datagen.topicspace import TopicSpace
from repro.index.compact import CompactIndex
from repro.index.factory import make_index
from repro.index.vector import VectorSearcher
from repro.reference import (
    CandidateSources,
    ReferencePersonalizer,
    ThresholdCandidateGenerator,
)
from tests.helpers import assert_scores_match, oracle_slate_scores


def build_stack(num_ads: int = 150, seed: int = 0, **config_kwargs):
    rng = random.Random(seed)
    space = TopicSpace(6, 800)
    ads, _ = generate_ads(num_ads, space, rng, geo_targeted_fraction=0.3)
    corpus = AdCorpus(ads)
    config = EngineConfig(**config_kwargs)
    index = make_index(config.searcher, corpus)
    scoring = ScoringModel(corpus, config.weights)
    services = EngineServices(
        config=config, corpus=corpus, index=index, scoring=scoring
    )
    if config.searcher == "ta":
        personalizer = ReferencePersonalizer(services)
        generator = ThresholdCandidateGenerator(index, config.overfetch)
    else:
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
        rng, space, corpus, _, config, _, personalizer, _ = build_stack(
            seed=seed, searcher="ta"
        )
        message = random_message(space, rng)
        profile = random_profile(space, rng)
        slate = personalizer.exact_slate(message, profile, None, 1000.0, config.k)
        expected = oracle_slate_scores(
            corpus, config.weights, message, profile, None, 1000.0, config.k
        )
        assert_scores_match([scored.score for scored in slate], expected)

    def test_empty_message_serves_profile_matches(self):
        rng, space, corpus, _, config, _, personalizer, _ = build_stack(
            seed=1, searcher="ta"
        )
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
        stack = build_stack(seed=seed, searcher="ta", exact_fallback=True)
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
            seed=3,
            searcher="ta",
            exact_fallback=False,
            overfetch=60,
            static_candidates=60,
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
        stack = build_stack(seed=2, searcher="ta", exact_fallback=False)
        rng, space, _, _, config, _, personalizer, generator = stack
        message = random_message(space, rng)
        candidates = generator.generate(message)
        result = personalizer.slate_for(
            candidates, message, 0, {}, 0, None, 0.0, config.k
        )
        assert not result.fell_back

    def test_approximate_slate_is_subset_of_union_sources(self):
        stack = build_stack(seed=4, searcher="ta", exact_fallback=False)
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


def profile_sources(seed: int):
    """A vector stack and the reference's candidate sources over it, as
    INCREMENTAL on ``vector`` wires them."""
    rng, space, corpus, index, config, scoring, *_ = build_stack(seed=seed)
    services = EngineServices(
        config=config, corpus=corpus, index=index, scoring=scoring
    )
    return rng, space, corpus, CandidateSources(services, VectorSearcher(index))


class TestProfileCandidateCache:
    def test_cache_hit_on_same_epochs(self):
        rng, space, _, personalizer = profile_sources(5)
        profile = random_profile(space, rng)
        first = personalizer.profile_candidates(7, profile, 3)
        second = personalizer.profile_candidates(7, profile, 3)
        assert first is second

    def test_invalidated_by_profile_epoch(self):
        rng, space, _, personalizer = profile_sources(5)
        profile = random_profile(space, rng)
        first = personalizer.profile_candidates(7, profile, 3)
        second = personalizer.profile_candidates(7, profile, 4)
        assert first is not second

    def test_invalidated_by_corpus_add(self):
        from repro.ads.ad import Ad

        rng, space, corpus, personalizer = profile_sources(5)
        profile = random_profile(space, rng)
        first = personalizer.profile_candidates(7, profile, 3)
        corpus.add(
            Ad(ad_id=5000, advertiser="n", text="t", terms=dict(profile), bid=1.0)
        )
        second = personalizer.profile_candidates(7, profile, 3)
        assert first is not second
        assert 5000 in [ad_id for ad_id, _ in second.entries]


def engine_for(workload, *, qos=None, **config_kwargs):
    from repro.core.engine import AdEngine

    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=EngineConfig(**config_kwargs),
        qos=qos,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    return engine


class TestMidFanoutRetirement:
    """Charging can retire an ad between two followers of one event: the
    vector kernel's per-event message gather and candidate rows were
    taken before the retirement, and only dropping the retired row from
    them keeps the exhausted ad out of the next follower's slate."""

    @staticmethod
    def engine_for(workload, searcher):
        # Unpaced, so moving an ad's spend changes nothing until the
        # charge that exhausts it.
        return engine_for(workload, searcher=searcher, pacing_enabled=False)

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


def churn_bystanders(corpus, candidates, count=70):
    """Retire ``count`` ads outside ``candidates`` and relaunch each under
    a new id: enough dead rows for a compaction, which then leaves the
    mirror with exactly as many rows as it had."""
    matching = set(candidates.ad_ids())
    bystanders = [ad_id for ad_id in corpus.active_ids() if ad_id not in matching]
    for ad_id in bystanders[:count]:
        corpus.retire(ad_id)
        corpus.add(replace(corpus.get(ad_id), ad_id=800_000 + ad_id))


class TestStaleBlock:
    """A vector ``CandidateSet`` carries the probe's gather as arrays (its
    ``block``). The kernel may take message rows and dots from it only
    while the mirror still reads ``(generation, num_rows)``
    as it did at the probe, and minus the rows retired since — a set
    probed *before* a launch, a retirement or a compaction must serve
    exactly what a set probed after it serves."""

    K = 10

    @staticmethod
    def stack():
        # Probes deeper than any match list, so every set is complete: a
        # stale and a fresh one can differ in members, never in cutoff.
        stack = build_stack(seed=5, searcher="vector", overfetch=400)
        rng, space, *_ = stack
        followers = [
            (user_id, random_profile(space, rng) if user_id % 4 else {}, 0, None)
            for user_id in range(8)
        ]
        return stack, followers, random_message(space, rng)

    def served_by(self, personalizer, candidates, message, followers):
        results = personalizer.slate_batch(
            candidates, message, followers, 500.0, self.K
        )
        assert any(results)
        return results

    def test_launch_of_a_matching_ad(self):
        stack, followers, message = self.stack()
        _, _, corpus, _, _, _, personalizer, generator = stack
        stale = generator.generate(message)
        # A louder copy of the best match: it joins the content matches
        # and, on its bid, the static prefix.
        launched = replace(
            corpus.get(stale.entries[0][0]), ad_id=900_001, bid=2 * corpus.max_bid
        )
        corpus.add(launched)
        compact = personalizer._compact
        assert stale.block.key == (compact.generation, compact.num_rows - 1)
        results = self.served_by(personalizer, stale, message, followers)
        fresh = generator.generate(message)
        assert set(fresh.ad_ids()) - set(stale.ad_ids()) == {launched.ad_id}
        assert results == self.served_by(personalizer, fresh, message, followers)
        # Served on content the stale block never gathered.
        assert any(
            scored.ad_id == launched.ad_id and scored.content > 0.0
            for slate in results
            for scored in slate
        )

    def test_retirement_of_a_candidate(self):
        stack, followers, message = self.stack()
        _, _, corpus, _, _, _, personalizer, generator = stack
        stale = generator.generate(message)
        before = self.served_by(personalizer, stale, message, followers)
        victim = before[0][0].ad_id
        assert victim in stale.ad_ids()
        corpus.retire(victim)
        compact = personalizer._compact
        assert stale.block.key == (compact.generation, compact.num_rows), (
            "the block is still current: only the alive mask can drop the row"
        )
        results = self.served_by(personalizer, stale, message, followers)
        fresh = generator.generate(message)
        assert set(stale.ad_ids()) - set(fresh.ad_ids()) == {victim}
        assert results == self.served_by(personalizer, fresh, message, followers)
        assert results != before

    def test_compaction(self):
        stack, followers, message = self.stack()
        _, _, corpus, _, _, _, personalizer, generator = stack
        stale = generator.generate(message)
        churn_bystanders(corpus, stale)
        compact = personalizer._compact
        # The kernel's own maybe_compact renumbers the rows under the set,
        # and leaves as many as there were: only the generation tells.
        results = self.served_by(personalizer, stale, message, followers)
        generation, num_rows = stale.block.key
        assert (compact.generation, compact.num_rows) == (generation + 1, num_rows)
        fresh = generator.generate(message)
        assert fresh == stale and fresh.block.key == (generation + 1, num_rows)
        assert results == self.served_by(personalizer, fresh, message, followers)

    @pytest.mark.parametrize("change", ["launch", "retire", "compact"])
    def test_engine_adapter_cached_set(self, tiny_workload, change):
        """The baseline adapter keeps one set per ``msg_id`` and reuses it
        for every delivery of the message, whatever happened in between."""
        from repro.baselines.base import BaselineState
        from repro.baselines.engine_adapter import SystemRecommender

        corpus = tiny_workload.build_corpus()
        state = BaselineState(
            corpus, {user.user_id: user.home for user in tiny_workload.users}
        )
        system = SystemRecommender(state, EngineConfig(searcher="vector"))
        post = tiny_workload.posts[0]
        message = tiny_workload.vectorizer.transform(
            tiny_workload.tokenizer.tokenize(post.text)
        )
        users = [user.user_id for user in tiny_workload.users[:6]]

        def slates(msg_id):
            return [
                system.slate(user_id, msg_id, message, post.timestamp, 5)
                for user_id in users
            ]

        before = slates(1)
        cached = system._cached_candidates
        assert cached.block is not None
        top = before[0][0]
        if change == "launch":
            corpus.add(replace(corpus.get(top), ad_id=900_001, bid=2 * corpus.max_bid))
        elif change == "retire":
            corpus.retire(top)
        else:
            churn_bystanders(corpus, cached)
        stale = slates(1)
        assert system._cached_candidates is cached
        assert stale == slates(2), "a new msg_id probes afresh"
        assert system._cached_candidates is not cached
        assert (stale != before) == (change != "compact")


def without_block(candidates):
    """The same cut as a hand-built set: no block to hand over."""
    return CandidateSet(candidates.entries, candidates.cutoff, candidates.complete)


def mixed_followers(space, rng, count=12):
    """Followers with and without a profile, with and without a place."""
    from repro.geo.point import GeoPoint

    return [
        (
            user_id,
            random_profile(space, rng) if user_id % 4 else {},
            0,
            GeoPoint(rng.uniform(-60, 60), rng.uniform(-150, 150))
            if user_id % 3
            else None,
        )
        for user_id in range(count)
    ]


class TestKernelSelfConsistency:
    """The vector kernel on a whole fan-out equals itself called once per
    follower when nothing is written in between (tests/test_core_pipeline.py covers the charged fan-out). And
    it has one cut, the exact one: what shapes CAR-share's union,
    certificate and fallback in the ``ta`` reference shapes nothing here."""

    @pytest.mark.parametrize("exact_fallback", [True, False])
    @pytest.mark.parametrize("k", [3, 10])
    def test_batch_equals_per_follower_calls(self, k, exact_fallback):
        # Sources so shallow that the reference would fail its certificate
        # on most deliveries, beside a stack left at full fidelity.
        stack = build_stack(
            seed=6,
            searcher="vector",
            overfetch=20,
            profile_candidates=15,
            static_candidates=15,
            exact_fallback=exact_fallback,
        )
        rng, space, _, _, config, _, personalizer, generator = stack
        *_, full_personalizer, full_generator = build_stack(seed=6, searcher="vector")
        assert k <= config.k
        followers = mixed_followers(space, rng)
        for _ in range(6):
            message = random_message(space, rng)
            candidates = generator.generate(message)
            together = personalizer.slate_batch(
                candidates, message, followers, 500.0, k
            )
            assert any(together)
            assert together == [
                personalizer.slate_batch(candidates, message, [follower], 500.0, k)[0]
                for follower in followers
            ]
            # The probe's block is a hand-over, not an input: the kernel
            # serves the same from its own gather.
            assert candidates.block is not None
            assert together == personalizer.slate_batch(
                without_block(candidates), message, followers, 500.0, k
            )
            # ``exact_fallback`` and the source depths are the reference's:
            # inert on the kernel.
            assert together == full_personalizer.slate_batch(
                full_generator.generate(message), message, followers, 500.0, k
            )

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_the_cut_is_the_exact_probe(self, beta):
        """Ids and order of the ``ta`` stack's
        :meth:`Personalizer.exact_slate` — one combined-query TA probe —
        and its scores to the mirror's storage precision; the row set is
        the message's matches alone when β = 0 or the follower has no
        profile; and ``static`` is the score minus its content part. On
        the vector stack ``exact_slate`` is this very cut, with no shared
        probe and a follower nobody caches."""
        from repro.core.config import ScoringWeights

        weights = ScoringWeights(beta=beta)
        stack = build_stack(seed=7, searcher="vector", weights=weights)
        rng, space, _, _, config, _, personalizer, generator = stack
        *_, reference, _ = build_stack(seed=7, searcher="ta", weights=weights)
        followers = mixed_followers(space, rng)
        profile_only = 0
        for _ in range(6):
            message = random_message(space, rng)
            results = personalizer.slate_batch(
                generator.generate(message), message, followers, 500.0, config.k
            )
            for (_, profile, _, location), slate in zip(followers, results):
                exact = reference.exact_slate(
                    message, profile, location, 500.0, config.k
                )
                assert [scored.ad_id for scored in slate] == [
                    scored.ad_id for scored in exact
                ]
                assert [scored.score for scored in slate] == pytest.approx(
                    [scored.score for scored in exact], abs=1e-6
                )
                assert slate == personalizer.exact_slate(
                    message, profile, location, 500.0, config.k
                )
                for scored in slate:
                    assert scored.score == pytest.approx(
                        weights.alpha * scored.content + scored.static, abs=1e-12
                    )
                    profile_only += scored.content == 0.0
                    assert scored.content > 0.0 or (beta > 0.0 and profile)
        assert (profile_only > 0) == (beta > 0.0)

    def test_slate_for_message_caches_no_anonymous_follower(
        self, tiny_workload, monkeypatch
    ):
        """The one-off query is the kernel on a follower without an id:
        it serves what the reference does, as a run of one, and leaves
        every user's cached profile gather as it found it."""
        engine = engine_for(tiny_workload, searcher="vector")
        reference = engine_for(tiny_workload, searcher="ta")
        posts = tiny_workload.posts
        for post in posts[:40]:
            for each in (engine, reference):
                each.post(post.author_id, post.text, post.timestamp)
        monkeypatch.setattr(
            engine.personalizer, "_cut_block", lambda *args: pytest.fail("a block")
        )
        cache = engine.personalizer._profile_gather_cache
        before = {user_id: id(entry) for user_id, entry in cache.items()}
        assert before  # users with a profile to gather
        for user_id in before:
            query = (user_id, posts[40].text, posts[40].timestamp)
            slate = engine.slate_for_message(*query)
            assert slate
            assert [scored.ad_id for scored in slate] == [
                scored.ad_id for scored in reference.slate_for_message(*query)
            ]
        assert {user_id: id(entry) for user_id, entry in cache.items()} == before

    def test_incremental_on_vector_never_cuts_ahead(self, tiny_workload, monkeypatch):
        """INCREMENTAL's refresh is ``exact_slate``: one anonymous
        follower per call, so even uncharged it stays a run of one."""
        from repro.core.config import EngineMode

        engine = engine_for(
            tiny_workload,
            searcher="vector",
            mode=EngineMode.INCREMENTAL,
            charge_impressions=False,
        )
        monkeypatch.setattr(
            engine.personalizer, "_cut_block", lambda *args: pytest.fail("a block")
        )
        for post in tiny_workload.posts[:40]:
            engine.post(post.author_id, post.text, post.timestamp)
        assert engine.stats.incremental_refreshes > 40
        assert not engine.personalizer._profile_gather_cache

    def test_no_certificate_setting_changes_what_is_served(self, tiny_workload):
        """``exact_fallback=False`` with one-deep profile and static
        sources: the charged engine serves, and books, what full fidelity
        does."""
        served = []
        for config_kwargs in (
            {},
            dict(exact_fallback=False, profile_candidates=1, static_candidates=1),
        ):
            engine = engine_for(tiny_workload, searcher="vector", **config_kwargs)
            served.append(
                [
                    (d.user_id, d.slate, d.certified, d.fell_back, d.revenue)
                    for post in tiny_workload.posts[:40]
                    for d in engine.post(
                        post.author_id, post.text, post.timestamp
                    ).deliveries
                ]
            )
            assert engine.stats.fallback_deliveries == 0
        full, approximate = served
        assert len(full) > 40 and any(slate for _, slate, *_ in full)
        assert approximate == full


class TestServedCallback:
    """``slate_batch`` hands every result to ``served``, in delivery
    order, and cuts no slate across a write: with a callback it cuts
    ahead only while deliveries write nothing — a write drops what was
    cut ahead of it, the followers after it see what it wrote, and the
    first clean delivery re-arms the block — whatever the callback does,
    raising and re-entering included."""

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
            served=lambda position, result, rows: seen.append((position, result)),
        )
        assert seen == list(enumerate(results))
        assert results == [
            personalizer.slate_batch(
                candidates, message, [follower], 500.0, config.k
            )[0]
            for follower in followers
        ]
        assert any(results)

    # -- runs: cutting ahead stops at a write -----------------------------------

    K = 5
    AT = 4  # the writing delivery: inside the block that starts at 1

    @staticmethod
    def stack(tiny_workload):
        """A budgeted vector engine's kernel, a message, and twelve
        profile-less followers at nobody's home: they share a slate, so
        what one delivery exhausts the next would have been served."""
        engine = engine_for(tiny_workload, searcher="vector", pacing_enabled=False)
        message = engine.vectorize(tiny_workload.posts[0].text)
        followers = [(1000 + position, {}, 0, None) for position in range(12)]
        return engine, message, followers

    def fan_out(self, engine, message, followers, served=None, **kwargs):
        return engine.personalizer.slate_batch(
            engine.candidate_gen.generate(message), message, followers, 500.0, self.K,
            served=served, **kwargs,
        )

    def exhausting(self, engine, at):
        """A callback that exhausts the budgeted ads of delivery ``at``'s
        slate — retiring them — and writes nothing anywhere else."""
        def served(position, slate, rows):
            if position != at:
                return
            for scored in slate:
                state = engine.budget.state(scored.ad_id)
                if state is not None:
                    engine.budget.restore_spend(scored.ad_id, state.budget - 1e-6)
                    assert engine.budget.charge(scored.ad_id, 1.0)
        return served

    def test_followers_after_a_write_see_it(self, tiny_workload):
        engine, message, followers = self.stack(tiny_workload)
        untouched = self.fan_out(engine, message, followers)
        assert len(set(untouched)) == 1
        assert any(
            engine.budget.state(scored.ad_id) is not None
            for scored in untouched[0]
        )
        together = self.fan_out(
            engine, message, followers, self.exhausting(engine, self.AT)
        )
        alone, message, followers = self.stack(tiny_workload)
        one_at_a_time = [
            self.fan_out(
                alone, message, [follower], self.exhausting(alone, self.AT - position)
            )[0]
            for position, follower in enumerate(followers)
        ]
        assert together == one_at_a_time
        assert together[: self.AT + 1] == untouched[: self.AT + 1]
        assert together[self.AT + 1] != untouched[self.AT + 1]
        # Teeth: blind to the write, the kernel serves the rest of the
        # block as it was cut — the exhausted ads again.
        blind, message, followers = self.stack(tiny_workload)
        blind.services.scoring.bid_writes = lambda: 0
        assert self.fan_out(
            blind, message, followers, self.exhausting(blind, self.AT)
        ) == untouched

    def test_a_clean_delivery_rearms_the_block(self, tiny_workload, blocks):
        engine, message, followers = self.stack(tiny_workload)
        reported = []
        self.fan_out(
            engine, message, followers, self.exhausting(engine, self.AT),
            cut=reported.append,
        )
        # The first follower alone (do deliveries write?), everyone left
        # cut ahead; the write at AT drops the rest of that block; the
        # next follower goes alone, is clean, and the rest are cut ahead.
        rest = len(followers) - self.AT - 2
        assert blocks == [len(followers) - 1, rest]
        assert reported == [1, len(followers) - 1, 1, rest]

    def test_a_raising_callback_leaves_the_scratch_clean(self, tiny_workload):
        engine, message, followers = self.stack(tiny_workload)
        expected = self.fan_out(engine, message, followers)

        def served(position, result, rows):
            if position == self.AT:
                raise RuntimeError("downstream failed")

        with pytest.raises(RuntimeError):
            self.fan_out(engine, message, followers, served)
        column = engine.personalizer._column
        assert column.shape[0] == engine.personalizer._compact.num_rows
        assert (column == -1).all()
        assert self.fan_out(engine, message, followers) == expected

    def test_a_callback_may_reenter_the_kernel(self, tiny_workload):
        engine, message, followers = self.stack(tiny_workload)
        expected = self.fan_out(engine, message, followers)
        other = engine.vectorize(tiny_workload.posts[1].text)
        inner = []

        def served(position, result, rows):
            inner.append(
                engine.personalizer.exact_slate(other, message, None, 500.0, self.K)
            )
            # A whole fan-out of its own, blocks included.
            inner.append(self.fan_out(engine, other, followers[:3]))

        assert self.fan_out(engine, message, followers, served) == expected
        assert inner[0] and inner[2:] == inner[:2] * (len(followers) - 1)


class TestBlockScoresOnlyWhereFollowersDiffer:
    """The block scores the message once — the base — and each follower
    only at its own corrections and at the tail rows that can reach its
    floor; what it serves is still each follower's own cut, field for
    field."""

    K = 10

    @staticmethod
    def kernel(ads, **weights):
        from repro.core.config import ScoringWeights

        corpus = AdCorpus(ads)
        config = EngineConfig(searcher="vector", weights=ScoringWeights(**weights))
        return Personalizer(
            EngineServices(
                config=config,
                corpus=corpus,
                index=CompactIndex(corpus),
                scoring=ScoringModel(corpus, config.weights),
            )
        )

    @staticmethod
    def cut_alone(personalizer, message, followers, k):
        return [
            personalizer.slate_batch(None, message, [follower], 500.0, k)[0]
            for follower in followers
        ]

    def test_cells_scored_per_block_follower(self, monkeypatch):
        """A wide message (|M| = 200) and sixty followers, one block: it
        scores 35.53 cells a follower as measured — the base's 154 rows
        once, 1,978 corrections (a profile on the message's topic corrects
        dozens of its rows) and no tail row past the bound — where a
        (followers × message rows) block scores |M| a follower and more."""
        rng = random.Random(5)
        space = TopicSpace(4, 300)
        ads, _ = generate_ads(
            800, space, rng, geo_targeted_fraction=0.1, time_targeted_fraction=0.2
        )
        personalizer = self.kernel(ads)
        message = random_message(space, rng)
        followers = mixed_followers(space, rng, count=60)
        scored, widths = [], []
        cut_block = Personalizer._cut_block
        fanout_scores = ScoringModel.fanout_scores

        def counting(scoring, content, affinity, proximity, bid):
            cells = np.broadcast(np.asarray(content), affinity, proximity, bid)
            scored.append(cells.size)
            return fanout_scores(scoring, content, affinity, proximity, bid)

        def spying(kernel, block_followers, profiles, hits, message_rows, *args):
            widths.append((len(block_followers), message_rows.shape[0]))
            with monkeypatch.context() as patched:
                patched.setattr(ScoringModel, "fanout_scores", counting)
                return cut_block(
                    kernel, block_followers, profiles, hits, message_rows, *args
                )

        monkeypatch.setattr(Personalizer, "_cut_block", spying)
        together = personalizer.slate_batch(None, message, followers, 500.0, self.K)
        monkeypatch.undo()
        assert together == self.cut_alone(personalizer, message, followers, self.K)
        assert sum(count for count, _ in widths) == len(followers)
        assert min(width for _, width in widths) >= 100
        assert sum(scored) / len(followers) <= 35.53 * 1.1

    def test_a_tail_row_tied_at_the_floor_is_served(self):
        """A tail ad (a profile match outside the message) that scores
        exactly what the follower's k-th message row scores, and wins the
        tie on its lower id: the bound must let it through at ``==``, and
        with γ in it. A second follower's profile raises the message's
        best row, whose base copy must then leave its candidates; a third
        is served the base's first k rows."""
        from repro.ads.ad import Ad

        levels = [(9.0, 3.0), (8.0, 3.0), (7.0, 3.0), (6.0, 3.0), (5.0, 3.0)]
        message = {"m": 1.0}
        followers = [
            (10, {"p": 1.0}, 0, None),
            (11, {"x0": 1.0}, 0, None),
            (12, {}, 0, None),
        ]
        for k in (1, 2, 3):
            in_message = [
                Ad(100 + i, "brand", "m", {"m": a, f"x{i}": b}, bid=1.0)
                for i, (a, b) in enumerate(levels)
            ]
            a, b = levels[k - 1]
            twin = Ad(1, "brand", "p", {"p": a, "y": b}, bid=1.0)
            others = [Ad(200 + i, "brand", "z", {"z": 1.0}, bid=1.0) for i in range(4)]
            # α = β: the twin's β·affinity is the k-th row's α·content.
            personalizer = self.kernel(in_message + [twin] + others, beta=1.0)
            together = personalizer.slate_batch(None, message, followers, 500.0, k)
            assert together == self.cut_alone(personalizer, message, followers, k)
            tied, raised, plain = together
            assert [entry.ad_id for entry in tied] == list(range(100, 99 + k)) + [1]
            deeper = self.cut_alone(personalizer, message, followers[:1], k + 1)[0]
            assert deeper[k].ad_id == 99 + k and deeper[k].score == tied[k - 1].score
            assert [entry.ad_id for entry in raised] == list(range(100, 100 + k))
            assert [entry.ad_id for entry in plain] == list(range(100, 100 + k))
            assert raised[0].score > plain[0].score

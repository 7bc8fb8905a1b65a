"""Tests for the scoring model."""

from __future__ import annotations

import bisect
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.ads.ad import Ad
from repro.ads.budget import BudgetManager
from repro.ads.corpus import AdCorpus
from repro.ads.targeting import TargetingSpec, TimeWindow
from repro.core.config import ScoringWeights
from repro.core.scoring import ScoredAd, ScoringModel, Slate
from repro.geo.point import GeoPoint

LONDON = GeoPoint(51.5074, -0.1278)


@pytest.fixture()
def corpus() -> AdCorpus:
    return AdCorpus(
        [
            Ad(ad_id=0, advertiser="a", text="x", terms={"run": 1.0}, bid=2.0),
            Ad(
                ad_id=1,
                advertiser="b",
                text="y",
                terms={"run": 1.0, "shoe": 1.0},
                bid=1.0,
                targeting=TargetingSpec(circles=((LONDON, 50.0),)),
            ),
            Ad(
                ad_id=2,
                advertiser="c",
                text="z",
                terms={"coffee": 1.0},
                bid=0.5,
                budget=10.0,
                targeting=TargetingSpec(time_windows=(TimeWindow(9.0, 17.0),)),
            ),
        ]
    )


@pytest.fixture()
def scoring(corpus) -> ScoringModel:
    return ScoringModel(corpus, ScoringWeights(alpha=1.0, beta=0.5, gamma=0.25, delta=0.25))


class TestBidScore:
    def test_top_bidder_is_one(self, scoring):
        assert scoring.bid_score(0, 0.0) == pytest.approx(1.0)

    def test_proportional(self, scoring):
        assert scoring.bid_score(1, 0.0) == pytest.approx(0.5)

    def test_pacing_applies(self, corpus):
        manager = BudgetManager(corpus, campaign_end=100.0)
        scoring = ScoringModel(corpus, ScoringWeights(), budget_manager=manager)
        manager.charge(2, 5.0)  # 50% spent at t=0: heavy overspend
        assert scoring.bid_score(2, 0.0) < 0.25 / 2.0  # throttled below raw


class TestStaticScore:
    def test_targeting_rejection_returns_none(self, scoring):
        paris = GeoPoint(48.8566, 2.3522)
        assert scoring.static_score(1, {}, paris, 0.0) is None

    def test_time_rejection_returns_none(self, scoring):
        assert scoring.static_score(2, {}, None, 20 * 3600.0) is None

    def test_untargeted_gets_full_geo_weight(self, scoring):
        static = scoring.static_score(0, {}, None, 0.0)
        # beta*0 + gamma*1 + delta*1 (top bid)
        assert static == pytest.approx(0.25 + 0.25)

    def test_profile_affinity_included(self, scoring, corpus):
        profile = {"run": 1.0}
        static = scoring.static_score(0, profile, None, 0.0)
        assert static == pytest.approx(0.5 * 1.0 + 0.25 + 0.25)

    def test_bounded_by_max_static(self, scoring, corpus):
        for ad in corpus.active_ads():
            static = scoring.static_score(ad.ad_id, {"run": 1.0}, LONDON, 10 * 3600.0)
            if static is not None:
                assert static <= scoring.max_static + 1e-9


class TestEvaluate:
    def test_relevance_floor(self, scoring):
        assert scoring.evaluate(0, 0.0, {}, None, 0.0) is None

    def test_profile_affinity_passes_floor(self, scoring):
        scored = scoring.evaluate(0, 0.0, {"run": 1.0}, None, 0.0)
        assert scored is not None
        assert scored.content == 0.0

    def test_retired_ad_rejected(self, scoring, corpus):
        corpus.retire(0)
        assert scoring.evaluate(0, 0.5, {}, None, 0.0) is None

    def test_total_composition(self, scoring):
        scored = scoring.evaluate(0, 0.4, {"run": 1.0}, None, 0.0)
        assert scored.score == pytest.approx(1.0 * 0.4 + 0.5 + 0.25 + 0.25)
        assert scored.score == pytest.approx(
            scoring.weights.alpha * scored.content + scored.static
        )


#: Slate-entry values as a cut hands them over: relaunched-ad ids, and
#: doubles with signed zeros and subnormals among them (no NaN — a score
#: is never one, and NaN is not ``==`` to itself).
ENTRY_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308]),
    st.floats(min_value=-1e-307, max_value=1e-307, allow_subnormal=True),
)
ENTRIES = st.lists(
    st.tuples(
        st.integers(min_value=800_000, max_value=2**62),
        ENTRY_FLOATS,
        ENTRY_FLOATS,
        ENTRY_FLOATS,
    ),
    max_size=12,
)


def slate_of(entries) -> Slate:
    """A slate of ``entries`` as a cut hands it over: four arrays."""
    columns = list(zip(*entries)) or [(), (), (), ()]
    return Slate(
        np.array(columns[0], dtype=np.int64),
        *(np.array(column, dtype=np.float64) for column in columns[1:]),
    )


def spanned_slate_of(entries) -> Slate:
    """``entries`` as a block cut hands them over: one span of the block's
    four columns, between two other followers' slates."""
    before = [(800_000, 0.5, 0.25, 0.25)] * 2
    after = [(800_002, -0.0, 0.0, -0.0)] * 3
    block = slate_of(before + list(entries) + after)
    stops = [2, 2 + len(entries), 5 + len(entries)]
    first, slate, last = Slate.spans(
        block.ad_ids, block.scores, block.contents, block.statics, stops
    )
    assert first == keyword_built(before) and last == keyword_built(after)
    return slate


#: Both ways a slate is handed over: its own arrays (a run of one) and a
#: span of a block's columns.
BUILDS = (slate_of, spanned_slate_of)


def keyword_built(entries) -> tuple[ScoredAd, ...]:
    return tuple(
        ScoredAd(ad_id=ad_id, score=score, content=content, static=static)
        for ad_id, score, content, static in entries
    )


class TestBoxedSlate:
    """A slate boxes its entries on read with ``tuple.__new__``, skipping
    the constructor: each must be the ``ScoredAd`` a keyword call builds —
    equal, equally hashed, of that very type, the same ``repr`` (signed
    zeros included) — and cross the RPC pickle unchanged."""

    @given(entries=ENTRIES)
    def test_c_boxed_entries_are_keyword_built_ones(self, entries):
        slate = slate_of(entries)
        built = keyword_built(entries)
        crossed = pickle.loads(pickle.dumps(slate, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(crossed) is Slate and crossed == slate == built
        for entry, want, back in zip(slate, built, crossed):
            assert type(entry) is ScoredAd is type(back)
            assert entry == want == back
            assert hash(entry) == hash(want) == hash(back)
            assert repr(entry) == repr(want) == repr(back)

    def test_an_entry_is_an_immutable_tuple_without_init(self):
        entry = slate_of([(800_001, 0.5, 0.25, -0.0)])[0]
        assert isinstance(entry, tuple) and "__init__" not in vars(ScoredAd)
        assert repr(entry) == (
            "ScoredAd(ad_id=800001, score=0.5, content=0.25, static=-0.0)"
        )
        with pytest.raises(AttributeError):
            entry.score = 1.0


class TestSlateIsASequence:
    """Over any columns — its own arrays or a span of a block's — a
    ``Slate`` and the tuple of its boxed entries agree on every sequence
    operation a reader uses."""

    @given(
        build=st.sampled_from(BUILDS),
        entries=ENTRIES,
        index=st.integers(min_value=-14, max_value=13),
        bounds=st.tuples(
            st.one_of(st.none(), st.integers(-14, 14)),
            st.one_of(st.none(), st.integers(-14, 14)),
            st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
        ),
    )
    def test_agrees_with_the_tuple_of_its_entries(
        self, build, entries, index, bounds
    ):
        slate = build(entries)
        built = keyword_built(entries)
        assert len(slate) == len(built) and bool(slate) == bool(built)
        assert list(slate) == list(built) and tuple(slate) == built
        assert slate == built and built == slate and not slate != built
        assert hash(slate) == hash(built) and repr(slate) == repr(built)
        if -len(built) <= index < len(built):
            assert slate[index] == built[index]
            assert type(slate[index]) is ScoredAd
        else:
            with pytest.raises(IndexError):
                slate[index]
        part = slate[slice(*bounds)]
        assert type(part) is Slate and part == built[slice(*bounds)]
        assert len(part) == len(built[slice(*bounds)])

    def test_unequal_slates_and_other_types(self):
        for build in BUILDS:
            slate = build([(7, 1.0, 0.5, 0.5), (3, 0.5, 0.25, 0.25)])
            assert slate != slate[:1] and slate != build([])
            assert slate != list(slate) and slate != "slate"
            assert build([]) == () and not build([])
            assert slate == slate_of(slate) == spanned_slate_of(slate)

    def test_columns_read_as_the_span(self):
        for build in BUILDS:
            slate = build([(7, 1.0, 0.5, 0.5), (3, 0.5, 0.25, 0.25)])
            assert slate.ad_ids.tolist() == [7, 3]
            assert slate.scores.tolist() == [1.0, 0.5]
            assert slate.contents.tolist() == [0.5, 0.25]
            assert slate.statics.tolist() == [0.5, 0.25]
            assert slate.ad_ids.dtype == np.int64
            assert slate.scores.dtype == np.float64

    def test_pickles_as_four_plain_lists(self):
        for build in BUILDS:
            slate = build([(7, 1.0, 0.5, 0.5), (3, 0.5, 0.25, -0.0)])
            _rebuild, columns = slate.__reduce__()
            assert [type(column) for column in columns] == [list] * 4
            assert columns[0] == [7, 3] and columns[3] == [0.5, -0.0]
            back = pickle.loads(
                pickle.dumps(slate, protocol=pickle.HIGHEST_PROTOCOL)
            )
            assert back == slate and back is not slate
            assert back.ad_ids.dtype == np.int64 and back.scores.dtype == np.float64
            # Smaller on the wire than the tuple of entries it stands for,
            # and no bigger for being a span.
            wide = build([(800_000 + i, 0.5, 0.25, 0.25) for i in range(10)])
            size = len(pickle.dumps(wide, protocol=pickle.HIGHEST_PROTOCOL))
            assert size < len(
                pickle.dumps(tuple(wide), protocol=pickle.HIGHEST_PROTOCOL)
            )
            assert size == len(
                pickle.dumps(slate_of(wide), protocol=pickle.HIGHEST_PROTOCOL)
            )


class TestCombinedQuery:
    def test_merges_scaled_vectors(self, scoring):
        query = scoring.combined_query({"run": 1.0}, {"run": 0.5, "coffee": 0.5})
        assert query["run"] == pytest.approx(1.0 * 1.0 + 0.5 * 0.5)
        assert query["coffee"] == pytest.approx(0.25)

    def test_zero_beta_ignores_profile(self, corpus):
        scoring = ScoringModel(corpus, ScoringWeights(beta=0.0))
        query = scoring.combined_query({"run": 1.0}, {"coffee": 1.0})
        assert "coffee" not in query


class TestProbeHelpers:
    def test_probe_static_fn_excludes_profile(self, scoring):
        static_fn = scoring.probe_static_fn(None, 0.0)
        assert static_fn(0) == pytest.approx(0.25 + 0.25)
        assert static_fn(0) <= scoring.max_probe_static + 1e-9

    def test_targeting_filter(self, scoring):
        accepts = scoring.targeting_filter(LONDON, 10 * 3600.0)
        assert accepts(0) and accepts(1) and accepts(2)
        rejects = scoring.targeting_filter(None, 20 * 3600.0)
        assert rejects(0) and not rejects(1) and not rejects(2)


class TestBidBlockSeam:
    """``_bid_block`` against the scalar ``bid_score``, and the listed-row
    re-read against it, elementwise and
    bit for bit, on engines whose books, evidence and row space have all
    moved: charged CTR-fed serving, a mid-run launch (row append), enough
    retirements for a compaction (generation bump, rows reassigned) and a
    restore across topologies."""

    @staticmethod
    def assert_block_is_scalar(engine, now: float) -> np.ndarray:
        scoring = engine.scoring
        cache = engine.personalizer.row_cache
        compact = engine.personalizer._compact
        compact.maybe_compact()
        cache.sync(engine.budget, engine.ctr)
        ad_ids = compact.ad_ids.tolist()
        rows = np.flatnonzero(compact.alive)[::3]
        # One minute into the campaign day every spender is ahead of
        # schedule (throttled); at stream time most are behind it.
        for timestamp in (60.0, now):
            full = scoring._bid_block(cache, timestamp)
            assert full.tolist() == [
                scoring.bid_score(ad_id, timestamp) for ad_id in ad_ids
            ]
            block = scoring.fanout_bid_block(cache, timestamp, rows)
            assert block == (scoring.weights.delta * full)[rows].tolist()
        # Not vacuous: the dynamic half (pacing · quality / cap) took
        # rewarded and penalised values, and throttling bit at 60 s.
        normalized = cache.bids / engine.corpus.max_bid
        dynamic = full / normalized
        assert (dynamic > 0.5).any() and ((dynamic > 0.0) & (dynamic < 0.5)).any()
        assert (scoring._bid_block(cache, 60.0) / normalized < dynamic).any()
        return dynamic

    def test_after_launch_compaction_and_cross_topology_restore(
        self, tiny_workload
    ):
        from repro.cluster.sharded import ShardedEngine
        from repro.core.config import EngineConfig
        from repro.core.recommender import ContextAwareRecommender
        from repro.io.checkpoint import apply_engine_state

        config = EngineConfig(searcher="vector", ctr_feedback=True)
        posts = tiny_workload.posts
        cluster = ShardedEngine(tiny_workload, 2, config=config)
        shards = [host.engine for host in cluster.transport.hosts]

        def replay(backend, start, stop):
            for post in posts[start:stop]:
                for result in backend.post(post.author_id, post.text, post.timestamp):
                    for delivery in result.deliveries[:2]:
                        if delivery.slate:
                            backend.record_click(delivery.slate[0].ad_id)

        replay(cluster, 0, 25)
        cluster.launch_campaign(
            Ad(
                ad_id=800_001,
                advertiser="late",
                text="w00010 w00011",
                terms={"w00010": 1.0, "w00011": 0.5},
                bid=2.0,
                budget=0.5,
            ),
            posts[25].timestamp,
        )
        replay(cluster, 25, 40)
        generations = [s.personalizer._compact.generation for s in shards]
        for shard in shards:
            # An exhausted ad keeps its (dead) row until the next compaction
            # and must read 0 there.
            spender = next(
                ad_id
                for ad_id, state in shard.budget.states().items()
                if state.spent > 0.0 and shard.corpus.is_active(ad_id)
            )
            assert shard.budget.charge(spender, 1e9) is True
            assert (self.assert_block_is_scalar(shard, posts[40].timestamp) == 0.0).any()
        for ad_id in tiny_workload.build_corpus().active_ids()[:70]:
            cluster.end_campaign(ad_id, posts[40].timestamp)
        replay(cluster, 40, 55)
        now = posts[55].timestamp
        for shard, generation in zip(shards, generations):
            assert shard.personalizer._compact.generation > generation
            assert 800_001 in shard.corpus
            self.assert_block_is_scalar(shard, now)

        payload = json.loads(json.dumps(cluster.state_dict()))
        single = ContextAwareRecommender.from_workload(tiny_workload, config).engine
        apply_engine_state(single, payload)
        self.assert_block_is_scalar(single, now)  # cold caches, restored books
        for post in posts[55:70]:
            single.post(post.author_id, post.text, post.timestamp)
        self.assert_block_is_scalar(single, posts[70].timestamp)


class TestTargetingCache:
    """``StaticRowCache.targeting_full`` keeps, per location, only the
    matched geo rows and their falloff: it holds every user, a recurring
    follower never re-runs the haversine pass, and each read hands back
    dense arrays of its own."""

    LOCATIONS = 2000

    @pytest.fixture()
    def stack(self):
        import random

        from repro.core.scoring import StaticRowCache
        from repro.datagen.adgen import generate_ads
        from repro.datagen.topicspace import TopicSpace
        from repro.index.compact import CompactIndex

        rng = random.Random(5)
        ads, _ = generate_ads(
            300, TopicSpace(6, 800), rng, geo_targeted_fraction=0.5
        )
        corpus = AdCorpus(ads)
        cache = StaticRowCache(corpus, CompactIndex(corpus))
        cache.sync(None, None)
        # Users live where ads target: a jittered circle centre each.
        centres = [
            centre for ad in ads for centre, _ in ad.targeting.circles
        ]
        locations = []
        while len(locations) < self.LOCATIONS:
            centre = rng.choice(centres)
            locations.append(
                GeoPoint(
                    max(-90.0, min(90.0, centre.lat + rng.uniform(-0.3, 0.3))),
                    max(-180.0, min(180.0, centre.lon + rng.uniform(-0.3, 0.3))),
                )
            )
        assert len({(p.lat, p.lon) for p in locations}) == self.LOCATIONS
        passes = []
        original = cache._geo_matches

        def counted(location):
            passes.append(location)
            return original(location)

        cache._geo_matches = counted
        return corpus, cache, locations, passes

    def test_every_location_is_computed_once(self, stack):
        _, cache, locations, passes = stack
        for location in locations:
            cache.targeting_full(location)
        assert len(passes) == self.LOCATIONS
        assert any(rows.shape[0] for rows, _ in cache._geo_hits.values())
        for location in locations:
            cache.targeting_full(location)
        assert len(passes) == self.LOCATIONS  # second sweep: all hits
        assert len(cache._geo_hits) == self.LOCATIONS

    def test_values_equal_the_scalar_predicates(self, stack):
        corpus, cache, locations, _ = stack
        ad_ids = cache._compact.ad_ids.tolist()
        timestamp = 13 * 3600.0
        time_keep = cache.time_keep_full(timestamp)
        inside = 0
        for location in [None, *locations[:40]]:
            keep, proximity = cache.targeting_full(location)
            for row, ad_id in enumerate(ad_ids):
                spec = corpus.get(ad_id).targeting
                assert bool(keep[row] and time_keep[row]) == spec.matches(
                    location, timestamp
                )
                assert proximity[row] == spec.proximity(location)
                inside += bool(spec.circles and proximity[row] > 0.0)
        assert inside > 0

    def test_a_launch_extends(self, stack):
        from repro.core.scoring import StaticRowCache

        corpus, cache, locations, passes = stack
        here = locations[0]
        keep, _ = cache.targeting_full(here)
        distances = []
        measure = cache._centre_distances
        cache._centre_distances = lambda location, centres: distances.append(
            centres
        ) or measure(location, centres)
        corpus.add(
            Ad(
                ad_id=900_000,
                advertiser="n",
                text="t",
                terms={"run": 1.0},
                bid=1.0,
                targeting=TargetingSpec(circles=((here, 25.0),)),
            )
        )
        cache.sync(None, None)
        # Kept, behind by the new circle, instead of dropped.
        assert (here.lat, here.lon) in cache._geo_behind
        grown, proximity = cache.targeting_full(here)
        # No pass from scratch: one distance, to the new circle's centre.
        assert len(passes) == 1
        assert [centres.tolist() for centres in distances] == [
            [cache._circle_centre[-1]]
        ]
        assert grown.shape[0] == keep.shape[0] + 1
        assert grown[-1] and proximity[-1] == 1.0  # dead centre of the new circle
        fresh = StaticRowCache(corpus, cache._compact)
        fresh.sync(None, None)
        for ours, theirs in zip(
            (*cache.geo_hits(here), grown, proximity),
            (*fresh.geo_hits(here), *fresh.targeting_full(here)),
        ):
            assert ours.tobytes() == theirs.tobytes()

    def test_reads_cannot_corrupt_each_other(self, stack):
        _, cache, locations, _ = stack
        first, second = locations[:2]
        keep, proximity = cache.targeting_full(first)
        expected = keep.copy(), proximity.copy()
        assert keep.any() and proximity.any()
        # Each read is the caller's own pair: the kernel masks ``keep`` in
        # place, and neither the shared base nor a later read may see it.
        keep &= False
        proximity[:] = 0.0
        other = cache.targeting_full(second)
        assert not np.shares_memory(other[0], keep)
        assert not np.shares_memory(other[0], cache._geo_base[0])
        assert not np.shares_memory(other[1], cache._geo_base[1])
        again = cache.targeting_full(first)
        assert (again[0] == expected[0]).all() and (again[1] == expected[1]).all()
        none = cache.targeting_full(None)
        assert (none[0] == cache._geo_base[0]).all()
        assert not np.shares_memory(none[0], cache._geo_base[0])
        assert cache._geo_base[0].any() and cache._geo_base[1].any()


class TestTheCacheReadsTheOracleDistance:
    """A cold location's distance to a circle centre is
    :func:`~repro.geo.point.haversine_km`'s, ``math.asin`` included. At
    this point, 300 km from the centre, numpy's ``arcsin`` parts from it
    by an ulp, and the cached proximity from ``TargetingSpec.proximity``
    with it."""

    def test_an_ulp_apart_point_reads_the_oracle(self):
        from repro.core.scoring import StaticRowCache
        from repro.index.compact import CompactIndex

        spec = TargetingSpec(circles=((GeoPoint(48.86, 2.35), 400.0),))
        corpus = AdCorpus(
            [
                Ad(
                    ad_id=0,
                    advertiser="a",
                    text="x",
                    terms={"x": 1.0},
                    bid=1.0,
                    targeting=spec,
                )
            ]
        )
        cache = StaticRowCache(corpus, CompactIndex(corpus))
        cache.sync(None, None)
        location = GeoPoint(46.091151679384474, 1.1985028549566854)
        keep, proximity = cache.targeting_full(location)
        rows, falloff = cache.geo_hits(location)
        assert keep.tolist() == [True] and rows.tolist() == [0]
        assert proximity.tolist() == falloff.tolist() == [spec.proximity(location)]


class TestListedRowsAreTheFullBuild:
    """The listed-row re-read — ``fanout_bid_block`` and ``paced_rows``
    with ``rows``, one pass over Python floats — equals the array kernel's
    full build at those rows, byte for byte, over every state the bid
    term's factors can be in: zero spend, spend exactly on schedule,
    ahead of it, at and past the cap; pacing on, off or no budget
    manager; no estimator, a discounted one, quality past the cap; and a
    ``max_bid`` of 0."""

    DAY = 86_400.0
    BIDS = st.sampled_from([0.005, 0.3, 1.0, 1.7, 4.0])
    SPEND = st.sampled_from(["zero", "on schedule", "ahead", "at cap", "over"])
    EVIDENCE = st.sampled_from([(0.0, 0.0), (1.0, 0.0), (3.0, 1.0), (1.0, 5.0), (40.0, 3.0)])

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        pacing=st.sampled_from(["on", "off", "none"]),
        ctr=st.sampled_from(["none", "plain", "discounted"]),
        empty=st.booleans(),
        delta=st.sampled_from([0.25, 1.0, 0.7]),
        timestamp=st.sampled_from([0.0, 3_600.0, 43_200.0, 61_000.0, 86_400.0, 2e5]),
    )
    def test_equal_bytes(self, data, pacing, ctr, empty, delta, timestamp):
        from types import SimpleNamespace

        from repro.ads.ctr import CtrEstimator

        count = data.draw(st.integers(min_value=1, max_value=12))
        ads = [
            Ad(
                ad_id=10 + index,
                advertiser="a",
                text="x",
                terms={"x": 1.0},
                bid=data.draw(self.BIDS),
                budget=data.draw(st.sampled_from([None, 1.0, 2.5, 10.0])),
            )
            for index in range(count)
        ]
        corpus = AdCorpus(ads)
        budget = None
        if pacing != "none":
            budget = BudgetManager(
                corpus, campaign_end=self.DAY, pacing_enabled=pacing == "on"
            )
            elapsed = min(1.0, timestamp / self.DAY)
            for ad in ads:
                if ad.budget is None:
                    continue
                expected = ad.budget * elapsed
                budget._spent[budget.slot_of(ad.ad_id)] = {
                    "zero": 0.0,
                    "on schedule": expected,
                    "ahead": expected + (ad.budget - expected) / 3.0,
                    "at cap": ad.budget,
                    "over": ad.budget * 1.5,
                }[data.draw(self.SPEND)]
        estimator = None
        if ctr != "none":
            estimator = CtrEstimator(discount=0.9 if ctr == "discounted" else 1.0)
            for ad in ads:
                estimator.restore(ad.ad_id, *data.draw(self.EVIDENCE))
                for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
                    estimator.record_impression(ad.ad_id)
        # Rows in a drawn order, so a row is not an ad's position.
        order = data.draw(st.permutations(range(count)))
        cache = SimpleNamespace(
            bids=np.array([ads[i].bid for i in order]),
            pacing_slots=np.array(
                [budget.slot_of(ads[i].ad_id) if budget else 0 for i in order],
                dtype=np.int64,
            ),
            quality_slots=np.array(
                [estimator.slot_of(ads[i].ad_id) if estimator else 0 for i in order],
                dtype=np.int64,
            ),
            sync=lambda budget, ctr: None,
        )
        scoring = ScoringModel(
            SimpleNamespace(max_bid=0.0 if empty else corpus.max_bid),
            ScoringWeights(delta=delta),
            budget_manager=budget,
            ctr_estimator=estimator,
        )
        rows = np.array(
            sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1))),
            dtype=np.int64,
        )
        full = scoring.fanout_bid_block(cache, timestamp)
        listed = scoring.fanout_bid_block(cache, timestamp, rows)
        assert np.array(listed, dtype=np.float64).tobytes() == full[rows].tobytes()
        named = set(rows.tolist())
        assert scoring.paced_rows(cache, timestamp, rows) == [
            row for row in scoring.paced_rows(cache, timestamp) if row in named
        ]


class TestTheTimeMaskFollowsWindowEnds:
    """``StaticRowCache.time_keep_full`` is kept per interval between two
    consecutive window ends and stepped across the ends an event's hour
    crossed: a sorted stream across midnight, with launches and a step
    back in time, reads a mask equal byte for byte to a fresh
    computation at every event. It is rebuilt only at the first read,
    at a launch that brings windows and when the hour of day moves back
    (the step back's return, and midnight); a launch without windows
    grows it, and every other change of interval is a step."""

    WINDOWS = [(9.0, 17.0), (22.0, 3.5), (23.25, 0.75), (0.5, 6.0), (16.0, 23.0)]

    def test_a_stream_across_midnight(self):
        from repro.ads.targeting import SECONDS_PER_DAY
        from repro.core.scoring import StaticRowCache
        from repro.index.compact import CompactIndex

        def ad(ad_id, *windows):
            return Ad(
                ad_id=ad_id,
                advertiser="a",
                text="x",
                terms={"x": 1.0},
                bid=1.0,
                targeting=TargetingSpec(
                    time_windows=tuple(TimeWindow(s, e) for s, e in windows)
                ),
            )

        corpus = AdCorpus(
            [ad(index, window) for index, window in enumerate(self.WINDOWS)]
            + [ad(90, (1.0, 2.0), (12.0, 13.0)), ad(91)]
        )
        compact = CompactIndex(corpus)
        cache = StaticRowCache(corpus, compact)
        rebuilds, steps = [], []
        build, step = cache._time_keep, cache._time_step
        cache._time_keep = lambda position: rebuilds.append(position) or build(position)
        cache._time_step = lambda *args: steps.append(args) or step(*args)

        # 20:00 on day 0 to 05:00 on day 1 every seven minutes; a launch
        # with a window at the tenth event, one without at the twentieth
        # and, at the fortieth, a step back of 3 hours.
        stream = [72_000.0 + 420.0 * step for step in range(78)]
        stream.insert(40, stream[39] - 10_800.0)
        expected, stepped, last = 0, 0, None
        for position, timestamp in enumerate(stream):
            windowed = position == 10
            if windowed:
                corpus.add(ad(92, (23.5, 1.25)))
            if position == 20:
                corpus.add(ad(93))
            cache.sync(None, None)
            ends = sorted(
                {
                    hour
                    for spec in (a.targeting for a in corpus.active_ads())
                    for window in spec.time_windows
                    for hour in (window.start_hour, window.end_hour)
                }
            )
            interval = bisect.bisect_right(
                ends, (timestamp % SECONDS_PER_DAY) / 3600.0
            )
            rebuilt = last is None or windowed or interval < last
            expected += rebuilt
            stepped += not rebuilt and interval > last
            last = interval
            fresh = StaticRowCache(corpus, compact)
            fresh.sync(None, None)
            assert cache.time_keep_full(timestamp).tobytes() == (
                fresh.time_keep_full(timestamp).tobytes()
            )
            assert (len(rebuilds), len(steps)) == (expected, stepped)
        # The first read, the launch with a window, midnight, and the
        # step back's return past it; every other change was a step.
        assert len(rebuilds) == 4 and len(steps) == 11


#: Where the state machine's circles sit and its readers live: three
#: centres a few hundred km apart, so a reader can be inside several
#: circles, and one far away.
CENTRES = [
    GeoPoint(51.5, -0.13),
    GeoPoint(52.2, 0.12),
    GeoPoint(48.86, 2.35),
    GeoPoint(-33.9, 151.2),
]
#: Window ends, shared between windows so that ends coincide.
HOURS = [0.0, 0.5, 3.0, 6.0, 9.5, 12.0, 17.0, 22.0, 23.5]


class TargetingStateMachine(RuleBasedStateMachine):
    """``StaticRowCache``'s targeting state follows a stream of launches
    (with circles, windows, both or neither, at new and repeated
    centres), retirements past the compaction threshold, reads at new,
    repeated and unknown locations, and a clock that moves forward,
    wraps midnight and steps back. After every step each read —
    ``geo_hits``, ``targeting_full``, ``time_keep_full``, ``geo_base`` —
    equals a freshly built cache's byte for byte, and the scalar
    ``TargetingSpec`` predicates."""

    @initialize()
    def setup(self) -> None:
        from repro.core.scoring import StaticRowCache
        from repro.index.compact import CompactIndex

        self.corpus = AdCorpus()
        self.compact = CompactIndex(self.corpus, min_rebuild_dead=2)
        self.cache = StaticRowCache(self.corpus, self.compact)
        self.next_id = 0
        self.timestamp = 8 * 3600.0
        self.locations: list[GeoPoint | None] = [None]
        self.add(((CENTRES[0], 120.0),), ((9.5, 17.0),))
        self.add((), ((22.0, 3.0),))
        self.add((), ())

    def add(self, circles, windows) -> None:
        self.corpus.add(
            Ad(
                ad_id=self.next_id,
                advertiser="a",
                text="x",
                terms={"x": 1.0},
                bid=1.0,
                targeting=TargetingSpec(
                    circles=tuple(circles),
                    time_windows=tuple(TimeWindow(s, e) for s, e in windows),
                ),
            )
        )
        self.next_id += 1

    @rule(
        circles=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(CENTRES),
                    st.builds(
                        GeoPoint,
                        st.floats(-60.0, 60.0),
                        st.floats(-170.0, 170.0),
                    ),
                ),
                st.sampled_from([30.0, 120.0, 400.0, 900.0]),
            ),
            max_size=3,
        ),
        windows=st.lists(
            st.tuples(st.sampled_from(HOURS), st.sampled_from(HOURS)).filter(
                lambda window: window[0] != window[1]
            ),
            max_size=2,
        ),
    )
    def launch(self, circles, windows) -> None:
        self.add(circles, windows)

    @rule(data=st.data())
    def retire(self, data) -> None:
        active = sorted(self.corpus.active_ids())
        if not active:
            return
        for ad_id in data.draw(st.sets(st.sampled_from(active), max_size=3)):
            self.corpus.retire(ad_id)
        self.compact.maybe_compact()

    @rule(
        data=st.data(),
        location=st.one_of(
            st.none(),
            st.builds(
                lambda centre, dlat, dlon: GeoPoint(
                    centre.lat + dlat, centre.lon + dlon
                ),
                st.sampled_from(CENTRES),
                st.floats(-3.0, 3.0),
                st.floats(-3.0, 3.0),
            ),
        ),
        again=st.booleans(),
    )
    def read(self, data, location, again) -> None:
        if again:
            location = data.draw(st.sampled_from(self.locations))
        self.cache.sync(None, None)
        self.cache.targeting_full(location)
        self.locations.append(location)

    @rule(seconds=st.floats(-12 * 3600.0, 30 * 3600.0))
    def tick_by(self, seconds) -> None:
        self.timestamp = max(0.0, self.timestamp + seconds)
        self.cache.sync(None, None)
        self.cache.time_keep_full(self.timestamp)

    @rule(hour=st.sampled_from(HOURS), days=st.integers(0, 1))
    def tick_to_an_end(self, hour, days) -> None:
        from repro.ads.targeting import SECONDS_PER_DAY

        day = self.timestamp // SECONDS_PER_DAY + days
        self.timestamp = day * SECONDS_PER_DAY + hour * 3600.0
        self.cache.sync(None, None)
        self.cache.time_keep_full(self.timestamp)

    @invariant()
    def reads_equal_a_fresh_build(self) -> None:
        import copy

        from repro.core.scoring import StaticRowCache

        # Reading syncs and fills the cache, so it is done on a copy:
        # launches pile up between the machine's own reads.
        probe = copy.deepcopy(self.cache)
        probe.sync(None, None)
        fresh = StaticRowCache(probe._corpus, probe._compact)
        fresh.sync(None, None)

        def same(ours, theirs):
            for mine, expected in zip(ours, theirs, strict=True):
                assert mine.dtype == expected.dtype
                assert mine.tobytes() == expected.tobytes()

        specs = [
            probe._corpus.get(ad_id).targeting
            for ad_id in probe._compact.ad_ids.tolist()
        ]
        for location in self.locations:
            same(probe.geo_hits(location), fresh.geo_hits(location))
            keep, proximity = probe.targeting_full(location)
            same((keep, proximity), fresh.targeting_full(location))
            for row, spec in enumerate(specs):
                assert keep[row] == spec.matches_location(location)
                assert proximity[row] == spec.proximity(location)
        same(probe.geo_base(), fresh.geo_base())
        time_keep = probe.time_keep_full(self.timestamp)
        same((time_keep,), (fresh.time_keep_full(self.timestamp),))
        assert time_keep.tolist() == [
            spec.matches_time(self.timestamp) for spec in specs
        ]


TargetingStateMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestTargetingStateFollowsTheStream = TargetingStateMachine.TestCase

"""Hypothesis property tests: invariants of the delivery pipeline.

Random tiny corpora/post streams, replayed across all three engine modes,
must always satisfy the pipeline's contract:

* a slate never exceeds ``k`` and never repeats an ad;
* revenue is non-negative, totals consistently across post results and
  engine stats, and budget debits never exceed GSP revenue;
* ``exact`` and ``fell_back`` are mutually exclusive per delivery, and the
  per-delivery flags reconcile with the engine's cumulative counters;
* ``post_batch`` is observationally identical to posting one at a time,
  and a fan-out handed to the personalize stage in one call is identical
  to the same followers delivered one ``deliver()`` at a time — charged,
  CTR-fed or not, on the oracle and on the vector kernel;
* the kernel's block — followers between which nothing is written, cut
  together — serves every follower what its own cut serves, field for
  field, and an uncharged fan-out handed to the kernel stage without a
  callback is cut whole, its first follower included.
"""

from __future__ import annotations

import functools
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.rerank as rerank_module
from repro.ads.corpus import AdCorpus
from repro.core.config import EngineConfig, EngineMode, ScoringWeights
from repro.core.engine import AdEngine
from repro.core.pipeline import KernelPersonalizeStage
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoringModel
from repro.core.services import EngineServices
from repro.datagen.adgen import generate_ads
from repro.datagen.topicspace import TopicSpace
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.geo.point import GeoPoint
from repro.geo.regions import CITIES
from repro.index.compact import CompactIndex
from repro.util.sparse import l2_normalize

MODES = st.sampled_from(list(EngineMode))
SEEDS = st.integers(min_value=0, max_value=7)
KS = st.sampled_from([1, 3, 10])
# The reference oracle and the compact numpy hot path: every invariant
# must hold identically on both.
SEARCHERS = st.sampled_from(["ta", "vector"])

PROPERTY_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=16)
def tiny_workload(seed: int):
    """Cached per-seed workload: examples share inputs, never engines."""
    return generate_workload(
        WorkloadConfig(
            num_users=15,
            num_ads=50,
            num_posts=25,
            num_topics=6,
            vocab_size=900,
            follows_per_user=4,
            seed=seed,
        )
    )


def build_engine(
    workload,
    mode: EngineMode,
    k: int,
    searcher: str = "ta",
    ctr_feedback: bool = False,
) -> AdEngine:
    config = EngineConfig(
        mode=mode,
        k=k,
        searcher=searcher,
        overfetch=max(40, 2 * k),
        charge_impressions=True,
        ctr_feedback=ctr_feedback,
    )
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    if ctr_feedback:
        engine.ctr.discount = 0.9  # every impression moves the evidence
    return engine


def replay(engine, posts):
    return [
        engine.post(post.author_id, post.text, post.timestamp, msg_id=post.msg_id)
        for post in posts
    ]


@PROPERTY_SETTINGS
@given(mode=MODES, seed=SEEDS, k=KS, searcher=SEARCHERS)
def test_slate_invariants(mode, seed, k, searcher):
    workload = tiny_workload(seed)
    engine = build_engine(workload, mode, k, searcher)
    for result in replay(engine, workload.posts):
        for delivery in result.deliveries:
            # slate size bounded by k
            assert len(delivery.slate) <= k
            # no duplicate ads within one slate
            ad_ids = [scored.ad_id for scored in delivery.slate]
            assert len(ad_ids) == len(set(ad_ids))
            # scores are served best-first
            scores = [scored.score for scored in delivery.slate]
            assert scores == sorted(scores, reverse=True)
            # exact and fell_back are mutually exclusive
            assert not (delivery.exact and delivery.fell_back)


@PROPERTY_SETTINGS
@given(mode=MODES, seed=SEEDS, searcher=SEARCHERS)
def test_revenue_invariants(mode, seed, searcher):
    workload = tiny_workload(seed)
    engine = build_engine(workload, mode, k=5, searcher=searcher)
    results = replay(engine, workload.posts)
    # every post's revenue is non-negative and stats totals agree with the
    # per-post sums (revenue is exactly the sum of GSP auction outcomes)
    assert all(result.revenue >= 0.0 for result in results)
    total = sum(result.revenue for result in results)
    assert engine.stats.revenue == pytest.approx(total, abs=1e-9)
    # budget debits are capped at remaining budget, so the ledger never
    # exceeds the GSP revenue the auctions reported
    assert engine.budget.total_spend() <= total + 1e-9


@PROPERTY_SETTINGS
@given(mode=MODES, seed=SEEDS, searcher=SEARCHERS)
def test_flag_counters_reconcile(mode, seed, searcher):
    workload = tiny_workload(seed)
    engine = build_engine(workload, mode, k=5, searcher=searcher)
    results = replay(engine, workload.posts)
    deliveries = [d for r in results for d in r.deliveries]
    stats = engine.stats
    assert stats.deliveries == len(deliveries)
    assert stats.exact_deliveries == sum(1 for d in deliveries if d.exact)
    assert stats.fallback_deliveries == sum(1 for d in deliveries if d.fell_back)
    assert stats.certified_deliveries == sum(
        1 for d in deliveries if d.certified and not d.fell_back
    )
    # every delivery lands in exactly one certification bucket
    assert (
        stats.certified_deliveries
        + stats.fallback_deliveries
        + stats.approximate_deliveries
        == stats.deliveries
    )
    assert stats.impressions == sum(len(d.slate) for d in deliveries)
    if mode is EngineMode.EXACT:
        assert stats.exact_deliveries == stats.deliveries
        assert stats.fallback_deliveries == 0
    else:
        assert stats.exact_deliveries == 0


@PROPERTY_SETTINGS
@given(
    mode=MODES,
    seed=SEEDS,
    batch_size=st.sampled_from([2, 5, 25]),
    searcher=SEARCHERS,
    ctr_feedback=st.booleans(),
)
def test_post_batch_matches_sequential(mode, seed, batch_size, searcher, ctr_feedback):
    workload = tiny_workload(seed)
    posts = workload.posts
    sequential = replay(
        build_engine(workload, mode, 5, searcher, ctr_feedback), posts
    )
    batched_engine = build_engine(workload, mode, 5, searcher, ctr_feedback)
    batched: list = []
    for start in range(0, len(posts), batch_size):
        batched.extend(batched_engine.post_batch(posts[start : start + batch_size]))

    assert len(sequential) == len(batched)
    for one, many in zip(sequential, batched):
        assert one.msg_id == many.msg_id
        assert one.num_deliveries == many.num_deliveries
        assert one.num_impressions == many.num_impressions
        assert one.revenue == pytest.approx(many.revenue, abs=1e-12)
        for d1, d2 in zip(one.deliveries, many.deliveries):
            assert d1.user_id == d2.user_id
            assert d1.certified == d2.certified
            assert d1.fell_back == d2.fell_back
            assert d1.exact == d2.exact
            assert [s.ad_id for s in d1.slate] == [s.ad_id for s in d2.slate]
            for s1, s2 in zip(d1.slate, d2.slate):
                assert s1.score == pytest.approx(s2.score, abs=1e-12)


@PROPERTY_SETTINGS
@given(mode=MODES, seed=SEEDS, k=KS, searcher=SEARCHERS, ctr_feedback=st.booleans())
def test_fanout_in_one_call_matches_one_deliver_at_a_time(
    mode, seed, k, searcher, ctr_feedback
):
    workload = tiny_workload(seed)
    together = build_engine(workload, mode, k, searcher, ctr_feedback)
    alone = build_engine(workload, mode, k, searcher, ctr_feedback)
    for post in workload.posts:
        followers = sorted(workload.graph.followers(post.author_id))
        events = []
        for engine in (together, alone):
            events.append(
                engine.make_event(
                    post.author_id, post.text, post.timestamp, msg_id=post.msg_id
                )
            )
            engine.ingest_event(events[-1])
        # == on outcomes: slates with their scores, flags and revenue.
        assert together.pipeline.deliver_batch(events[0], followers) == [
            alone.pipeline.deliver(events[1], follower) for follower in followers
        ]
    assert together.budget.states() == alone.budget.states()
    assert together.stats.revenue == alone.stats.revenue
    if ctr_feedback:
        assert together.ctr.observed_ads() == alone.ctr.observed_ads()
        for ad_id in together.ctr.observed_ads():
            assert together.ctr.impressions_of(ad_id) == alone.ctr.impressions_of(ad_id)


def _unit(words) -> dict[str, float]:
    return l2_normalize({word: 1.0 for word in set(words)}) if words else {}


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([0.0, 0.5]),
    k=st.sampled_from([1, 3, 10, 60]),
    message_words=st.sampled_from([0, 2, 12]),
    retire=st.sampled_from([0, 12]),
    cells=st.sampled_from([64, 1 << 14]),
    kind=st.sampled_from(["mixed", "bare", "in_message"]),
    hour=st.sampled_from([None, 2.5, 9.0, 21.5]),
)
def test_a_block_cut_ahead_serves_what_one_cut_per_follower_serves(
    seed, beta, k, message_words, retire, cells, kind, hour
):
    """``slate_batch(followers)`` with nobody writing in between — the
    block: a shared message base, each follower's corrections and a tail
    cut at its floor — against the same followers cut one call each,
    ``==`` on every field of every slate entry: ids, order, ``score``,
    ``content``, ``static``.
    Drawn over geo-targeted and time-windowed ads, β on and off, ``k``
    above and below the message's match count, an empty message,
    followers with no profile / one disjoint from the message / one that
    overlaps it, known and unknown locations, an anonymous follower, rows
    retired under gathers cached before, and a cell budget small enough to
    split the fan-out over several blocks. ``kind`` draws fan-outs that
    are all ``bare`` (no profile, no location: the base alone) or all
    ``in_message`` (profiles on the message's own words, every follower
    located: many corrections, and circle hits inside the message), and
    ``hour`` pins the time of day, so hits fall at windows both open and
    closed."""
    rng = random.Random(seed)
    space = TopicSpace(4, 300)
    ads, _ = generate_ads(
        90, space, rng, geo_targeted_fraction=0.5, time_targeted_fraction=0.4
    )
    corpus = AdCorpus(ads)
    index = CompactIndex(corpus)
    config = EngineConfig(searcher="vector", weights=ScoringWeights(beta=beta))
    personalizer = Personalizer(
        EngineServices(
            config=config,
            corpus=corpus,
            index=index,
            scoring=ScoringModel(corpus, config.weights),
        )
    )
    topic = rng.randrange(space.num_topics)
    message = _unit(space.sample_words(topic, message_words, rng))
    followers = []
    for user_id in range(14):
        shape = user_id % 4
        words = (
            []
            if shape == 0 or kind == "bare"
            else list(message) + space.sample_words(topic, 4, rng)
            if kind == "in_message"
            else space.sample_words((topic + 1) % space.num_topics, 12, rng)
            if shape == 1
            else list(message)[:3] + space.sample_words(topic, 8, rng)
        )
        home = rng.choice(CITIES).center
        location = (
            None
            if kind == "bare" or (user_id % 5 == 0 and kind == "mixed")
            else GeoPoint(
                home.lat + rng.uniform(-0.05, 0.05), home.lon + rng.uniform(-0.05, 0.05)
            )
        )
        followers.append((None if user_id == 7 else user_id, _unit(words), 0, location))
    timestamp = (
        rng.uniform(0.0, 86_400.0)
        if hour is None
        else rng.randrange(3) * 86_400.0 + hour * 3_600.0
    )

    def served(fan_out):
        return personalizer.slate_batch(None, message, fan_out, timestamp, k)

    with mock.patch.object(rerank_module, "_BLOCK_CELLS", cells):
        served(followers)  # every profile gather is cached from here on
        for ad_id in rng.sample(sorted(corpus.active_ids()), retire):
            corpus.retire(ad_id)
        with mock.patch.object(
            personalizer, "_cut_block", wraps=personalizer._cut_block
        ) as blocks:
            together = served(followers)
        assert sum(len(call.args[0]) for call in blocks.call_args_list) == len(
            followers
        )
        # A follower stacks k cells plus its profile rows and hits: bare
        # followers k alone, everyone else dozens.
        if cells == 64 and (kind != "bare" or len(followers) * k > cells):
            assert blocks.call_count > 1
        with mock.patch.object(personalizer, "_cut_block") as blocks:
            assert together == [served([follower])[0] for follower in followers]
        assert not blocks.called
    assert (personalizer._column == -1).all()
    if message_words == 12 or (beta and kind != "bare"):
        assert any(together)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    beta=st.sampled_from([0.0, 0.5]),
    k=st.sampled_from([1, 3, 10]),
    followers_n=st.sampled_from([1, 2, 9]),
    retire=st.sampled_from([0, 12]),
    cells=st.sampled_from([64, 1 << 14]),
)
def test_an_uncharged_fan_out_is_cut_whole(
    seed, beta, k, followers_n, retire, cells
):
    """With no callback — the pipeline's call to the kernel stage when
    nothing is written on delivery — every follower of the event, the
    first included, is cut in blocks, and each slate equals, ``==`` on
    every field (scores, contents and statics included), what the
    callback path hands out (the first follower alone, the rest cut
    ahead, each with its rows) and what the kernel serves that follower
    alone. Drawn over followers with and without profiles,
    located inside and outside circles, and rows retired under gathers
    cached before."""
    rng = random.Random(seed)
    space = TopicSpace(4, 300)
    ads, _ = generate_ads(
        90, space, rng, geo_targeted_fraction=0.5, time_targeted_fraction=0.4
    )
    corpus = AdCorpus(ads)
    index = CompactIndex(corpus)
    config = EngineConfig(searcher="vector", k=k, weights=ScoringWeights(beta=beta))
    services = EngineServices(
        config=config,
        corpus=corpus,
        index=index,
        scoring=ScoringModel(corpus, config.weights),
    )
    personalizer = Personalizer(services)
    stage = KernelPersonalizeStage(services, personalizer, exact=False)
    topic = rng.randrange(space.num_topics)
    message = _unit(space.sample_words(topic, 6, rng))
    followers = []
    for user_id in range(followers_n):
        words = (
            []
            if user_id % 3 == 0
            else list(message)[:2] + space.sample_words(topic, 8, rng)
        )
        home = rng.choice(CITIES).center
        location = (
            None
            if user_id % 4 == 1
            else GeoPoint(
                home.lat + rng.uniform(-0.05, 0.05), home.lon + rng.uniform(-0.05, 0.05)
            )
        )
        followers.append((user_id, _unit(words), 0, location))
    timestamp = rng.uniform(0.0, 86_400.0)
    event = SimpleNamespace(message_vec=message, timestamp=timestamp)
    resolved = [
        (
            user_id,
            SimpleNamespace(
                location=location, profile=SimpleNamespace(epoch=epoch, unit=vec)
            ),
        )
        for user_id, vec, epoch, location in followers
    ]

    with mock.patch.object(rerank_module, "_BLOCK_CELLS", cells):
        personalizer.slate_batch(None, message, followers, timestamp, k)
        for ad_id in rng.sample(sorted(corpus.active_ids()), retire):
            corpus.retire(ad_id)
        with mock.patch.object(
            personalizer, "_cut_block", wraps=personalizer._cut_block
        ) as blocks:
            whole, flags = stage.personalize_batch(event, None, resolved)
        assert flags == [(True, False, False)] * followers_n
        cut = [call.args[0] for call in blocks.call_args_list]
        if followers_n > 1:
            assert cut and cut[0][0] == followers[0]
            assert sum(map(len, cut)) == followers_n
        else:
            assert not cut
        handed = []
        served = personalizer.slate_batch(
            None,
            message,
            followers,
            timestamp,
            k,
            served=lambda position, slate, rows: handed.append(
                (position, slate, index.ad_ids[rows].tolist())
            ),
        )
    assert whole == served
    assert [position for position, _, _ in handed] == list(range(followers_n))
    for (_, slate, ad_ids), expected in zip(handed, whole):
        assert slate == expected and ad_ids == expected.ad_ids.tolist()
    for follower, slate in zip(followers, whole):
        (alone,) = personalizer.slate_batch(None, message, [follower], timestamp, k)
        assert alone == slate
    if retire:
        retired = {ad.ad_id for ad in ads} - set(corpus.active_ids())
        assert not retired & {entry.ad_id for slate in whole for entry in slate}

"""Shared fixtures: small deterministic workloads and corpora."""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.core.rerank import Personalizer
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.obs.registry import STATS_COUNTERS
from repro.scenarios import (
    ScriptedCheckin,
    ScriptedPost,
    build_scenario_stream,
    merge_events,
)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(42)


@pytest.fixture()
def blocks(monkeypatch) -> list[int]:
    """Spy on the vector kernel's block: the follower count of every run
    any ``Personalizer`` of this process cuts ahead, in order."""
    cut, cut_block = [], Personalizer._cut_block

    def spying(personalizer, followers, *args):
        cut.append(len(followers))
        return cut_block(personalizer, followers, *args)

    monkeypatch.setattr(Personalizer, "_cut_block", spying)
    return cut


def make_ads(count: int, *, seed: int = 0, terms_per_ad: int = 4) -> list[Ad]:
    """Small synthetic ad set over a tiny shared vocabulary."""
    rng = random.Random(seed)
    vocabulary = [f"t{i}" for i in range(max(8, terms_per_ad * 3))]
    ads = []
    for ad_id in range(count):
        picked = rng.sample(vocabulary, terms_per_ad)
        terms = {term: rng.uniform(0.1, 1.0) for term in picked}
        ads.append(
            Ad(
                ad_id=ad_id,
                advertiser=f"brand{ad_id}",
                text=" ".join(picked),
                terms=terms,
                bid=rng.uniform(0.1, 2.0),
            )
        )
    return ads


@pytest.fixture()
def small_corpus() -> AdCorpus:
    return AdCorpus(make_ads(30))


#: The generator config of ``tiny_workload``.
TINY_WORKLOAD = WorkloadConfig(
    num_users=40,
    num_ads=120,
    num_posts=80,
    num_topics=8,
    vocab_size=1200,
    follows_per_user=5,
    seed=11,
)


@pytest.fixture(scope="session")
def tiny_workload():
    """A session-cached tiny workload for integration-style tests.

    Treat as read-only: take fresh corpora via ``build_corpus()``.
    """
    return generate_workload(TINY_WORKLOAD)


def workload_events(workload, *, limit_posts=None):
    """The workload's check-ins and (optionally truncated) posts as one
    scripted stream. Check-ins merge ahead of the posts, so a check-in at a
    post's timestamp moves the user before that post's deliveries."""
    checkins = [
        ScriptedCheckin(c.timestamp, c.user_id, c.point.lat, c.point.lon)
        for c in workload.checkins
    ]
    posts = build_scenario_stream(workload, (), limit_posts=limit_posts).events
    return merge_events(checkins, posts)


def router_factory(transport: str):
    """A generator yielding ``make(workload, num_shards, **kwargs)`` —
    a cluster router over the named transport — and closing every router
    it built afterwards. Class-level ``router`` fixtures delegate here to
    pin one transport (``yield from router_factory("process")``)."""
    from repro.cluster import ProcessShardedEngine, ShardedEngine

    engine_class = {"local": ShardedEngine, "process": ProcessShardedEngine}[
        transport
    ]
    built = []

    def make(workload, num_shards, **kwargs):
        built.append(engine_class(workload, num_shards, **kwargs))
        return built[-1]

    make.transport = transport
    try:
        yield make
    finally:
        for engine in built:
            engine.close()


@pytest.fixture(params=["local", "process"])
def router(request):
    """The cluster router on each transport: a test that takes this
    fixture runs the same assertions in-process and over worker
    processes."""
    yield from router_factory(request.param)


#: Parity knobs: pacing and CTR feedback couple scores to cluster-local
#: state (per-shard spend and impression counts), which diverges from the
#: single engine's global view on any backend.
PARITY = dict(ctr_feedback=False, pacing_enabled=False, collect_deliveries=True)
#: Live LinUCB, folding every hour of stream time.
LINUCB = dict(personalize="linucb", alpha_ucb=0.4, linucb_sync_interval_s=3600.0)
#: LinUCB with no exploration and no learning: the static stage's oracle.
FROZEN = dict(
    personalize="linucb",
    alpha_ucb=0.0,
    linucb_frozen=True,
    linucb_sync_interval_s=3600.0,
)


def parts_of(results) -> list:
    """One post's results as a list of parts: a router returns one
    ``PostResult`` per shard touched, a bare engine one."""
    return results if isinstance(results, list) else [results]


def canonical(results) -> str:
    """Byte-stable serialisation of every field of every ``PostResult``:
    floats by ``repr``, so two equal strings are bit-equal results."""
    return json.dumps(
        [
            [
                r.msg_id, r.author_id, repr(r.timestamp), r.num_deliveries,
                r.num_impressions, repr(r.revenue), r.num_shed, r.num_degraded,
                repr(r.revenue_shed),
                [
                    [
                        d.user_id,
                        [[s.ad_id, *map(repr, s[1:])] for s in d.slate],
                        d.certified, d.fell_back, d.exact, d.degraded,
                        repr(d.revenue),
                    ]
                    for d in r.deliveries
                ],
            ]
            for r in results
        ]
    )


def merged_slates(results) -> dict[int, list[tuple[int, float]]]:
    """user → slate across one post's results (any backend)."""
    return {
        delivery.user_id: [(s.ad_id, s.score) for s in delivery.slate]
        for result in parts_of(results)
        for delivery in result.deliveries
    }


def deterministic_click(msg_id: int, user_id: int, ad_id: int, slot: int) -> bool:
    """Order-independent ~25% click rule: a pure function of coordinates,
    so every backend that serves the same slates sees the same clicks."""
    key = f"{msg_id}:{user_id}:{ad_id}:{slot}".encode()
    return hashlib.sha256(key).digest()[0] < 64


def click_on(engine, results) -> None:
    """Record the deterministic clicks on one post's served slates."""
    for result in parts_of(results):
        for delivery in result.deliveries:
            for slot, scored in enumerate(delivery.slate):
                if deterministic_click(
                    result.msg_id, delivery.user_id, scored.ad_id, slot
                ):
                    engine.record_click(
                        scored.ad_id, user_id=delivery.user_id, slot_index=slot
                    )


def drive_clicking(engine, posts) -> list:
    """Replay ``posts`` one by one, clicking deterministically after each;
    returns every scored slate, sorted by (user, ads), for comparing
    backends whose delivery order differs."""
    slates = []
    for post in posts:
        results = engine.post(post.author_id, post.text, post.timestamp)
        slates.extend(
            (d.user_id, tuple((s.ad_id, s.score, s.content, s.static) for s in d.slate))
            for result in parts_of(results)
            for d in result.deliveries
        )
        click_on(engine, results)
    return sorted(slates)


def assert_books(workload, events, served, *, k: int) -> None:
    """The books one driven stream must keep, whatever served it.

    These are the predicates of ``benchmarks/e2e/checks.py::check_round``
    — every slate at most ``k`` long, no ad twice, scores descending;
    every post booked once; Σ ``PostResult.revenue`` == the stats'
    revenue; deliveries == fan-out − shed; attempted == admitted + shed —
    plus what each rider counts: the registry's counters are the stats,
    the stage tracer's span counts are the posts and deliveries, and a
    cluster's per-shard roll-ups sum to its merged view. ``served`` is
    the matrix's record of one run (``tests/test_conformance.py``).
    """
    stats, totals, parts = served.stats, served.totals, served.parts
    for part in parts:
        for delivery in part.deliveries:
            ad_ids = delivery.slate.ad_ids.tolist()
            scores = delivery.slate.scores.tolist()
            assert len(ad_ids) <= k and len(set(ad_ids)) == len(ad_ids)
            assert all(later <= earlier for earlier, later in zip(scores, scores[1:]))
    posts = [event for event in events if isinstance(event, ScriptedPost)]
    assert len(served.results) == len(posts) == totals.posts == stats.posts
    assert math.isclose(
        sum(part.revenue for part in parts), stats.revenue, rel_tol=1e-9, abs_tol=1e-9
    )
    delivered = sum(part.num_deliveries for part in parts)
    shed = sum(part.num_shed for part in parts)
    fanout = sum(workload.graph.fanout(post.author_id) for post in posts)
    assert delivered == stats.deliveries == fanout - shed == totals.deliveries
    assert shed == stats.deliveries_shed == totals.shed
    assert totals.impressions == stats.impressions
    assert sum(part.revenue_shed for part in parts) == pytest.approx(
        stats.revenue_shed_upper_bound, abs=1e-9
    )
    ledger = served.qos
    if ledger is not None and ledger["attempted"]:
        # An admission controller's books, summed over its copies.
        assert ledger["attempted"] == ledger["admitted"] + ledger["shed"]
        assert ledger["attempted"] == stats.attempted_deliveries
        assert ledger["shed"] == stats.deliveries_shed
        assert ledger["revenue_shed_upper_bound"] == pytest.approx(
            stats.revenue_shed_upper_bound, abs=1e-9
        )
    if served.counters is not None:
        for name in STATS_COUNTERS:
            assert served.counters[name] == getattr(stats, name), name
    if served.counters_by_shard:
        # A shard counts the posts that touched it; the merged view once.
        by_shard = served.counters_by_shard
        assert sum(c["deliveries"] for c in by_shard) == stats.deliveries
        assert sum(c["posts"] for c in by_shard) == round(
            served.amplification * stats.posts
        )
    if served.stages:
        stages = served.stages
        assert stages["vectorize"].spans == stats.posts
        for per_delivery in ("personalize", "charge", "feedback", "delivery"):
            assert stages[per_delivery].spans == stats.deliveries, per_delivery
        # One candidate span per post with a follower to serve, per shard
        # serving one, in every mode (EXACT's NoProbeStage is a stage too);
        # a post that reaches nobody runs no probe.
        probed = sum(1 for part in parts if part.num_deliveries + part.num_shed)
        assert stages["candidate"].spans == probed
        reaching = sum(1 for post in posts if workload.graph.fanout(post.author_id))
        assert 0 < reaching < len(posts)
        if len(served.shards) <= 1:
            assert probed == reaching
        else:
            assert probed >= reaching
        for stage in stages.values():
            assert 0 < stage.spans
            assert stage.p50_ms <= stage.p95_ms <= stage.p99_ms <= stage.max_ms + 1e-9
    for shard, report in zip(served.shards, served.stages_by_shard):
        spans = {stage.stage: stage.spans for stage in shard.stages}
        assert spans == {name: stage.spans for name, stage in report.items()}
        for per_delivery in ("personalize", "charge", "feedback", "delivery"):
            expected = shard.deliveries if served.stages else 0
            assert spans.get(per_delivery, 0) == expected, per_delivery
    if served.shards:
        assert sum(shard.deliveries for shard in served.shards) == stats.deliveries
        assert sum(shard.users for shard in served.shards) == len(workload.users)
        # Busy-time skew is defined with a stage tracer, neutral without.
        if served.stages:
            assert served.busy_imbalance >= 1.0
        else:
            assert served.busy_imbalance == 1.0
    if served.finished:
        assert served.finished >= stats.posts and served.retained > 0

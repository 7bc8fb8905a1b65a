"""Shared fixtures: small deterministic workloads and corpora."""

from __future__ import annotations

import random

import pytest

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.core.rerank import Personalizer
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.scenarios import ScriptedCheckin, build_scenario_stream, merge_events


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


@pytest.fixture(scope="session")
def tiny_workload():
    """A session-cached tiny workload for integration-style tests.

    Treat as read-only: take fresh corpora via ``build_corpus()``.
    """
    return generate_workload(
        WorkloadConfig(
            num_users=40,
            num_ads=120,
            num_posts=80,
            num_topics=8,
            vocab_size=1200,
            follows_per_user=5,
            seed=11,
        )
    )


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

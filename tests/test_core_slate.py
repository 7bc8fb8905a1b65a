"""Every producer of a slate hands over a :class:`Slate` whose entries are
the ones a tuple of boxed ``ScoredAd`` entries carried before slates
became columns: the digests below were taken from that tuple-slate build
on ``tiny_workload`` and must not move."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.core.scoring import Slate

#: Producer -> (config, (deliveries, impressions, digest of every
#: ``(user_id, tuple(slate))`` served, in order)).
PRODUCERS = {
    # Charged: every delivery writes, so the kernel cuts runs of one.
    "run of one": (dict(searcher="vector"), (268, 2318, "f86d7614d6df321d")),
    # Uncharged: every follower after an event's first is cut in a block.
    "block": (
        dict(searcher="vector", charge_impressions=False),
        (268, 2318, "86787a9e7515980d"),
    ),
    "linucb rerank": (
        dict(searcher="vector", personalize="linucb", linucb_sync_interval_s=60.0),
        (268, 2318, "a55a8125dc697516"),
    ),
    "ta shared": (dict(searcher="ta"), (268, 2318, "f6f0bd366d6279d5")),
    "ta exact": (
        dict(searcher="ta", mode=EngineMode.EXACT),
        (268, 2318, "1efa927f4dc7c8b4"),
    ),
    "incremental": (
        dict(searcher="ta", mode=EngineMode.INCREMENTAL),
        (268, 2578, "7f6f3dfa113d8697"),
    ),
    # Candidates-only serving, as a failover shard does it.
    "degraded": (dict(searcher="vector"), (268, 2646, "66cbce68b69a955e")),
}


def served(workload, name: str) -> list:
    """``(user_id, slate)`` of every delivery of the workload's posts; the
    LinUCB leg clicks every third delivery's top ad so its model moves."""
    config, _ = PRODUCERS[name]
    engine = ContextAwareRecommender.from_workload(
        workload, EngineConfig(**config)
    ).engine
    slates = []
    for post in workload.posts:
        if name == "degraded":
            event = engine.make_event(post.author_id, post.text, post.timestamp)
            result = engine.deliver_event_to(
                event,
                sorted(engine.graph.followers(post.author_id)),
                ingest=True,
                candidates_only=True,
            )
        else:
            result = engine.post(post.author_id, post.text, post.timestamp)
        for position, delivery in enumerate(result.deliveries):
            slates.append((delivery.user_id, delivery.slate))
            if name == "linucb rerank" and delivery.slate and position % 3 == 0:
                engine.record_click(
                    delivery.slate.ad_ids.item(0),
                    user_id=delivery.user_id,
                    slot_index=0,
                )
    return slates


@pytest.mark.parametrize("name", list(PRODUCERS))
def test_every_producer_serves_the_tuple_builds_slates(tiny_workload, name):
    slates = served(tiny_workload, name)
    assert all(type(slate) is Slate for _, slate in slates)
    boxed = [(user_id, tuple(slate)) for user_id, slate in slates]
    digest = hashlib.sha256(repr(boxed).encode()).hexdigest()[:16]
    impressions = sum(len(slate) for _, slate in slates)
    assert (len(slates), impressions, digest) == PRODUCERS[name][1]

"""A vector engine holds one index: the compact arrays, built from and
fed by the corpus. The posting-list :class:`AdInvertedIndex` (and its
:class:`PostingList` s) exists only where the ``ta`` reference reads it.

A constructor spy records every ``AdInvertedIndex`` / ``PostingList``
built, in this process and in every worker it forks, through a vector
engine's whole life — construction, serving, launches, budget
exhaustions, campaign ends, a compaction and a checkpoint restore —
standalone, on each shard of an in-process router and on each worker
process. Building the dict index eagerly again fails it.
"""

from __future__ import annotations

import os
from contextlib import ExitStack

import pytest

from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.index.compact import CompactIndex
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.reference.inverted import AdInvertedIndex
from repro.reference.postings import PostingList
from repro.scenarios.base import build_scenario_stream
from repro.scenarios.canary import build_backend
from repro.scenarios.driver import ScenarioDriver

SPIED = (AdInvertedIndex, PostingList)
# Campaigns ended after the burst: enough dead rows (of 126) for the next
# probe to compact — at least the 64-row floor and a quarter.
ENDED = 70


@pytest.fixture()
def builds(monkeypatch, tmp_path):
    """``read()`` → the ``(class name, pid)`` of every spied construction
    so far. Workers fork after the patch, so they log to the same file."""
    log = tmp_path / "builds.log"
    log.touch()
    for cls in SPIED:

        def spying(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{_name} {os.getpid()}\n")
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spying)

    def read() -> list[tuple[str, int]]:
        lines = log.read_text(encoding="utf-8").split()
        return list(zip(lines[::2], map(int, lines[1::2])))

    return read


def dict_indexes(records) -> list[int]:
    """The pid of each ``AdInvertedIndex`` built."""
    return [pid for name, pid in records if name == "AdInvertedIndex"]


def exercise(backend, workload) -> None:
    """Serve a budget burst (launches, exhaustions), end enough campaigns
    for a compaction, then serve past it."""
    events = build_scenario_stream(workload, ("budget-burst",), limit_posts=40).events
    ScenarioDriver(backend, workload).run(events)
    at = max(event.timestamp for event in events) + 1.0
    for ad in workload.ads[:ENDED]:
        backend.end_campaign(ad.ad_id, at)
    serve_after(backend, workload, at)


def serve_after(backend, workload, at: float) -> None:
    for step, post in enumerate(workload.posts[40:50]):
        backend.post(post.author_id, post.text, at + step)


def standalone(workload, searcher: str):
    return ContextAwareRecommender.from_workload(
        workload, EngineConfig(searcher=searcher)
    ).engine


class TestAVectorEngineBuildsNoDictIndex:
    def test_standalone(self, tiny_workload, builds, tmp_path):
        engine = standalone(tiny_workload, "vector")
        exercise(engine, tiny_workload)
        assert engine.stats.retired_ads > ENDED, "the burst exhausted budgets"
        assert engine.index.generation > 1, "the ends compacted the arrays"
        path = tmp_path / "engine.json"
        save_checkpoint(path, engine)
        restored = standalone(tiny_workload, "vector")
        load_checkpoint(path, restored)
        assert isinstance(restored.index, CompactIndex)
        serve_after(restored, tiny_workload, restored.services.clock.now + 100.0)
        assert builds() == []

    def test_each_shard_of_an_in_process_router(self, tiny_workload, builds):
        config = EngineConfig(searcher="vector")
        router = build_backend(tiny_workload, config, shards=2)
        exercise(router, tiny_workload)
        engines = [host.engine for host in router.transport.hosts]
        assert len(engines) == 2
        for engine in engines:
            assert isinstance(engine.index, CompactIndex)
            assert engine.index.generation > 1
        restored = build_backend(tiny_workload, config, shards=2)
        restored.load_state(router.state_dict())
        serve_after(restored, tiny_workload, router.state_dict()["clock"] + 100.0)
        assert builds() == []

    def test_each_worker_process(self, tiny_workload, builds):
        config = EngineConfig(searcher="vector")
        with ExitStack() as stack:
            router = build_backend(tiny_workload, config, workers=2, stack=stack)
            exercise(router, tiny_workload)
            state = router.state_dict()
            restored = build_backend(tiny_workload, config, workers=2, stack=stack)
            restored.load_state(state)
            serve_after(restored, tiny_workload, state["clock"] + 100.0)
        assert builds() == []


class TestATaEngineBuildsOne:
    """The reference still builds its dict index: once per engine, at
    construction, and not again while it serves."""

    def test_standalone(self, tiny_workload, builds):
        engine = standalone(tiny_workload, "ta")
        assert dict_indexes(builds()) == [os.getpid()]
        exercise(engine, tiny_workload)
        assert dict_indexes(builds()) == [os.getpid()]

    def test_each_shard_of_an_in_process_router(self, tiny_workload, builds):
        router = build_backend(tiny_workload, EngineConfig(searcher="ta"), shards=2)
        assert dict_indexes(builds()) == [os.getpid()] * 2
        exercise(router, tiny_workload)
        assert dict_indexes(builds()) == [os.getpid()] * 2

    def test_each_worker_process(self, tiny_workload, builds):
        with ExitStack() as stack:
            router = build_backend(
                tiny_workload, EngineConfig(searcher="ta"), workers=2, stack=stack
            )
            exercise(router, tiny_workload)
            router.cluster_stats()  # a round trip: every worker has built
        pids = dict_indexes(builds())
        assert len(pids) == 2 and len(set(pids)) == 2
        assert os.getpid() not in pids

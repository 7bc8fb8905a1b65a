"""The one instrumentation seam, on every backend.

A stage emits each span once, through its engine's
:class:`~repro.obs.tracer.Seam`, and every attached sink takes it from
there; counters are kept once, in :class:`EngineStats`, and read by the
registry. So on a single engine, on in-process shards and on worker
processes:

* every stage's span count agrees across the stage tracer, the registry
  window's ``total_count`` and the request segments' stage spans;
* registry counters equal ``cluster_stats()``, also across a restore
  onto another shard count;
* LinUCB's counters and gauges describe replicated state and read what
  one shard's learner reads, whatever the shard count;
* no module outside ``repro.obs`` feeds a sink directly.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster import ProcessShardedEngine, ShardedEngine
from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.obs.registry import STATS_COUNTERS, MetricsRegistry
from repro.obs.trace import RequestTracer
from repro.obs.tracer import RecordingTracer
from tests.conftest import LINUCB, PARITY, drive_clicking

LIMIT = 24
CONFIG = EngineConfig(pacing_enabled=False)
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def sinks() -> dict:
    return {
        "tracer": RecordingTracer(),
        "metrics": MetricsRegistry(window_s=3600.0),
        "request_tracer": RequestTracer(sample_rate=1.0, seed=3),
    }


CLUSTERS = {"local": ShardedEngine, "process": ProcessShardedEngine}


def build(workload, backend: str, **kwargs):
    """The same engine three ways: a bare engine, two in-process shards,
    two worker processes."""
    if backend == "single":
        return ContextAwareRecommender.from_workload(workload, CONFIG, **kwargs).engine
    engine_class = CLUSTERS["local" if backend == "shards" else "process"]
    return engine_class(workload, 2, config=CONFIG, **kwargs)


def segment_spans(segments) -> Counter:
    counts: Counter = Counter()
    for segment in segments:
        for span in segment.spans:
            if span.kind == "stage":
                counts[span.name] += span.count
    return counts


@pytest.mark.parametrize("backend", ["single", "shards", "workers"])
def test_every_sink_counts_each_span_once(tiny_workload, backend):
    engine = build(tiny_workload, backend, **sinks())
    try:
        for post in tiny_workload.posts[:LIMIT]:
            engine.post(post.author_id, post.text, post.timestamp)
        if backend == "single":
            stages, segments = engine.tracer.snapshot(), engine.request_tracer.retained
        else:
            stages, segments = engine.stage_report(), engine.request_traces()
        windows = engine.metrics.snapshot().windows
        traced = segment_spans(segments)
        stats = engine.stats if backend == "single" else engine.cluster_stats()
    finally:
        if backend != "single":
            engine.close()

    assert stages["delivery"].spans == stats.deliveries > 0
    assert stages["candidate"].spans == stats.shared_probes > 0
    assert set(windows) == {f"stage_{name}" for name in stages}
    for name, stage in stages.items():
        assert windows[f"stage_{name}"].total_count == stage.spans, name
        # Vectorizing precedes the event's trace context: no segment is
        # open yet, so only the stage sinks see that span.
        assert traced[name] == (0 if name == "vectorize" else stage.spans), name
    assert set(traced) == set(stages) - {"vectorize"}


def test_a_request_tracer_alone_gets_coarse_spans(tiny_workload):
    """The granularity rule: without a stage tracer or a registry, a
    segment carries the event's ``candidate`` span (a post that reaches no
    follower runs no probe) and one ``delivery`` span standing for the
    whole fan-out."""
    request_tracer = RequestTracer(sample_rate=1.0, seed=3)
    engine = build(tiny_workload, "single", request_tracer=request_tracer)
    posts = tiny_workload.posts[:LIMIT]
    for post in posts:
        engine.post(post.author_id, post.text, post.timestamp)
    traced = segment_spans(request_tracer.retained)
    assert set(traced) == {"candidate", "delivery"}
    assert traced["candidate"] == sum(
        1 for post in posts if tiny_workload.graph.fanout(post.author_id)
    )
    assert traced["delivery"] == engine.stats.deliveries


def test_registry_counters_are_the_cluster_stats_across_a_restore(
    tiny_workload, router
):
    posts = tiny_workload.posts[: 2 * LIMIT]
    writer = router(tiny_workload, 2, config=CONFIG, metrics=MetricsRegistry())
    writer.post_batch(posts[:LIMIT])
    assert_counts_are_stats(writer)
    reader = router(tiny_workload, 3, config=CONFIG, metrics=MetricsRegistry())
    reader.load_state(writer.state_dict())
    reader.post_batch(posts[LIMIT:])
    assert_counts_are_stats(reader)
    # Continuous across the restore, like cluster_stats().
    assert reader.metrics.counter("posts") == len(posts)


def assert_counts_are_stats(cluster) -> None:
    counters = cluster.metrics.snapshot().counters
    stats = cluster.cluster_stats()
    assert set(counters) == set(STATS_COUNTERS)
    for name in STATS_COUNTERS:
        assert counters[name] == pytest.approx(getattr(stats, name)), name


LEARNING = EngineConfig(**PARITY, **{**LINUCB, "linucb_sync_interval_s": 600.0})


@pytest.fixture(scope="module")
def one_learner(tiny_workload) -> dict:
    """What one engine's learner reads after the stream."""
    single = ContextAwareRecommender.from_workload(tiny_workload, LEARNING).engine
    drive_clicking(single, tiny_workload.posts)
    counters, gauges = single.services.learner.telemetry()
    assert counters["linucb_syncs"] > 1 and gauges["linucb_arms"] > 0
    return {**counters, **gauges}


@pytest.mark.parametrize(
    "transport, shards", [("local", 1), ("local", 2), ("local", 4), ("process", 2)]
)
def test_linucb_metrics_read_one_shard_not_a_sum(
    tiny_workload, one_learner, transport, shards
):
    """The learner's state is replicated: every shard folds the same
    records at the same epochs, so a cluster reads it once."""
    with CLUSTERS[transport](
        tiny_workload, shards, config=LEARNING, metrics=MetricsRegistry()
    ) as cluster:
        drive_clicking(cluster, tiny_workload.posts)
        snapshot = cluster.metrics.snapshot()
    read = {**snapshot.counters, **snapshot.gauges}
    assert {name: read[name] for name in one_learner} == one_learner


def test_shard_stats_read_the_engine_probe_counter(tiny_workload):
    with ShardedEngine(tiny_workload, 3, config=CONFIG) as cluster:
        cluster.post_batch(tiny_workload.posts[:LIMIT])
        by_shard, stats = cluster.stats_by_shard(), cluster.cluster_stats()
    assert sum(s.probes for s in by_shard) == stats.shared_probes > LIMIT
    assert sum(s.probe_depth_total for s in by_shard) == stats.probe_depth_total


#: A sink fed directly, bypassing the seam.
SINK_CALL = re.compile(r"tracer\.record\(|observe_stage\(|add_stage\(|\.inc\(")


def test_no_module_outside_obs_feeds_a_sink():
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if "obs" not in path.relative_to(SRC).parts[:1]
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SINK_CALL.search(line)
    ]
    assert offenders == []

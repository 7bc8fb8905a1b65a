"""Distributed-tracing integration tests across the cluster topologies.

Two claims: (1) the invisible control paths (dispatch retries, failover
redirects, duplicate suppression, worker crashes) produce their promised
spans; (2) the flight recorder's black box survives a SIGKILL and
``repro trace`` renders the in-flight request's critical path from it.
That attaching a ``RequestTracer`` never perturbs delivery output is a
rider of ``tests/test_conformance.py``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cli import main
from repro.cluster import ProcessShardedEngine
from repro.core.config import EngineConfig
from repro.errors import WorkerCrashError
from repro.obs.recorder import read_flight_dump, write_flight_dump
from repro.obs.trace import RequestTracer, group_traces
from repro.qos.faults import FaultInjector, ShardOutage
from tests.conftest import router_factory

LIMIT = 14


def config_for() -> EngineConfig:
    return EngineConfig(pacing_enabled=False)


def tracer_for(process: str = "main") -> RequestTracer:
    return RequestTracer(sample_rate=1.0, seed=7, process=process)


class TestShardedFaultSpans:
    TRANSPORT = "local"

    @pytest.fixture()
    def router(self):
        yield from router_factory(self.TRANSPORT)

    @pytest.fixture()
    def faulted(self, tiny_workload, router):
        """A 2-shard cluster with shard 1 down for the whole replay and
        every third event's ack 'lost' (duplicated dispatch)."""
        engine = router(
            tiny_workload,
            2,
            config=config_for(),
            faults=FaultInjector(
                outages=(ShardOutage(1, 0.0, 1e9),),
                duplicate_every=3,
            ),
            request_tracer=tracer_for("router"),
        )
        for post in tiny_workload.posts[:LIMIT]:
            engine.post(post.author_id, post.text, post.timestamp)
        return engine

    def test_retry_and_failover_spans_recorded(self, faulted):
        segments = faulted.request_traces()
        dispatches = [s for s in segments if s.name == "dispatch"]
        assert dispatches, "router must record dispatch segments"
        retry_spans = [
            span for seg in dispatches for span in seg.spans
            if span.kind == "retry"
        ]
        failover_spans = [
            span for seg in dispatches for span in seg.spans
            if span.kind == "failover"
        ]
        assert retry_spans, "a down home shard must book retry spans"
        assert failover_spans, "exhausted retries must book a failover span"
        # Retries exhaust the full budget before failing over.
        assert all(span.count == 3 for span in retry_spans)
        redirected = [s for s in dispatches if any(
            span.kind == "failover" for span in s.spans
        )]
        assert all(s.attrs["target"] != s.attrs["home"] for s in redirected)

    def test_duplicate_suppression_is_visible(self, faulted):
        duplicates = [
            seg for seg in faulted.request_traces()
            if seg.retained == "duplicate"
        ]
        assert duplicates, "lost-ack redeliveries must surface as segments"
        assert all(
            seg.spans[0].kind == "duplicate" for seg in duplicates
        )

    def test_flight_dump_renders_through_the_cli(self, faulted, tmp_path, capsys):
        dump = tmp_path / "flight.jsonl"
        faulted.dump_flight(dump, reason="signal")
        header, segments = read_flight_dump(dump)
        assert header["reason"] == "signal"
        assert header["num_traces"] == len(segments) > 0

        # Render only the fault-flagged traces: the CLI's critical path
        # is the slowest trace's, and a pause outside any span can make a
        # plain post the slowest of the whole dump.
        flagged = {
            segment.trace_id
            for segment in segments
            if segment.retained in ("failover", "retry")
        }
        faults = write_flight_dump(
            tmp_path / "faults.jsonl",
            [segment for segment in segments if segment.trace_id in flagged],
            reason="signal",
        )
        code = main(["trace", "--dump", str(faults), "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "flight dump: reason=signal" in out
        assert "slowest traces" in out
        assert "critical path" in out
        assert "failover_redirect [failover]" in out or "retry [retry]" in out


class TestWorkerFaultSpans(TestShardedFaultSpans):
    """The same fault spans with the shards as worker processes."""

    TRANSPORT = "process"


class TestRepeatedReads:
    def test_summary_counters_do_not_inflate_with_drains(
        self, tiny_workload, router
    ):
        """Every read of ``request_tracer`` drains the shards; a drain
        that shipped cumulative counters made ``finished`` grow by the
        shards' whole history on each read."""
        posts = tiny_workload.posts[:LIMIT]
        cluster = router(
            tiny_workload, 2, config=config_for(),
            request_tracer=tracer_for("router"),
        )
        for post in posts:
            cluster.post(post.author_id, post.text, post.timestamp)
        first = cluster.request_tracer.summary()
        second = cluster.request_tracer.summary()
        assert first == second
        # Full sampling retains every finished segment: one route segment
        # per post sent plus one post segment per shard touched.
        segments = cluster.request_traces()
        assert second["started"] == second["finished"] == len(segments)
        assert sum(s.name == "route" for s in segments) == len(posts)
        assert second["dropped"] == 0


class TestProcpoolTracing:
    def test_worker_segments_merge_into_full_traces(self, tiny_workload):
        posts = tiny_workload.posts[:LIMIT]
        with ProcessShardedEngine(
            tiny_workload, 2, config=config_for(),
            request_tracer=tracer_for("router"),
        ) as pool:
            for post in posts:
                pool.post(post.author_id, post.text, post.timestamp)
            drained = pool.drain_worker_traces()
            segments = pool.request_traces()
        assert drained > 0, "workers must ship segments over trace_drain"
        grouped = group_traces(segments)
        multi_process = [
            parts for parts in grouped.values()
            if {p.process for p in parts} >= {"router"}
            and any(p.process.startswith("worker") for p in parts)
        ]
        assert multi_process, "traces must span router and worker processes"
        for parts in multi_process:
            # Wall-anchor alignment: the router's route segment opened
            # before any worker segment of the same trace did.
            assert parts[0].process == "router"
            route = parts[0]
            assert any(span.kind == "rpc" for span in route.spans)
            worker_parts = [
                p for p in parts if p.process.startswith("worker")
            ]
            assert all(p.name == "post" for p in worker_parts)

    def test_sampling_decision_matches_across_processes(self, tiny_workload):
        """A 50% tracer: the worker's segments must carry exactly the
        head decision the router minted — never re-rolled."""
        tracer = RequestTracer(sample_rate=0.5, seed=3, process="router")
        with ProcessShardedEngine(
            tiny_workload, 2, config=config_for(), request_tracer=tracer
        ) as pool:
            for post in tiny_workload.posts[:LIMIT]:
                pool.post(post.author_id, post.text, post.timestamp)
            pool.drain_worker_traces()
            segments = pool.request_traces()
        reference = RequestTracer(sample_rate=0.5, seed=3)
        assert segments
        for segment in segments:
            assert segment.sampled == reference.head_sampled(segment.trace_id)


class TestProcpoolCrashFlight:
    def test_sigkill_dumps_black_box_with_inflight_request(
        self, tiny_workload, tmp_path, capsys
    ):
        """The acceptance scenario: SIGKILL a worker mid-stream, and the
        flight dump must hold the in-flight request's crash segment —
        renderable by ``repro trace``."""
        dump = tmp_path / "flight.jsonl"
        posts = tiny_workload.posts[:LIMIT]
        pool = ProcessShardedEngine(
            tiny_workload, 3, config=config_for(),
            request_tracer=tracer_for("router"),
            flight_path=dump,
        )
        try:
            pool.post(posts[0].author_id, posts[0].text, posts[0].timestamp)
            os.kill(pool.worker_pid(1), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            with pytest.raises(WorkerCrashError):
                while time.monotonic() < deadline:
                    for post in posts:
                        pool.post(post.author_id, post.text, post.timestamp)
        finally:
            pool.close()

        assert dump.exists(), "the crash must trigger an automatic dump"
        header, segments = read_flight_dump(dump)
        assert header["reason"] == "worker_crash"
        crash_segments = [s for s in segments if s.name == "worker_crash"]
        assert crash_segments, "the in-flight request must be in the dump"
        crashed = crash_segments[0]
        assert crashed.status == "error"
        assert crashed.retained == "crash"
        assert crashed.attrs["shard"] == 1
        (span,) = crashed.spans
        assert span.kind == "error"
        assert "exitcode" in span.attrs["detail"]

        code = main(["trace", "--dump", str(dump)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flight dump: reason=worker_crash" in out
        assert "critical path" in out

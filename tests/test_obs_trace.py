"""Unit tests for distributed request tracing (`repro.obs.trace`).

Covers the identity layer (splitmix64, deterministic trace ids, head
sampling as a pure function of ``(seed, trace_id)``), the recording
layer (segments, aggregated stage spans, tail-capture retention, the
bounded ring), the cross-process machinery (pickle round-trips, rebind,
span-id uniqueness across tracers, drain/absorb merge), and the noop
default's contract.
"""

from __future__ import annotations

import pickle
import time
from time import perf_counter

import pytest

from repro.core.pipeline import PostEvent
from repro.errors import ConfigError
from repro.obs.trace import (
    NOOP_REQUEST_TRACER,
    SPAN_KINDS,
    NoopRequestTracer,
    RequestTracer,
    Span,
    TraceContext,
    TraceSegment,
    group_traces,
    splitmix64,
    trace_id_for,
)

MASK64 = (1 << 64) - 1


class TestIdentity:
    def test_splitmix64_is_deterministic_and_64_bit(self):
        values = {splitmix64(i) for i in range(1000)}
        assert len(values) == 1000, "collisions in 1000 consecutive inputs"
        assert all(0 <= v <= MASK64 for v in values)
        assert splitmix64(42) == splitmix64(42)

    def test_trace_id_is_pure_in_msg_id_and_seed(self):
        assert trace_id_for(7, 3) == trace_id_for(7, 3)
        assert trace_id_for(7, 3) != trace_id_for(8, 3)
        assert trace_id_for(7, 3) != trace_id_for(7, 4)

    def test_mint_agrees_across_independent_tracers(self):
        """The edge decision must be re-derivable anywhere: two tracer
        instances with the same seed mint identical contexts."""
        a = RequestTracer(sample_rate=0.5, seed=11)
        b = RequestTracer(sample_rate=0.5, seed=11, process="worker")
        for msg_id in range(200):
            assert a.mint(msg_id) == b.mint(msg_id)

    def test_mint_differs_across_seeds(self):
        a = RequestTracer(seed=1)
        b = RequestTracer(seed=2)
        assert a.mint(5).trace_id != b.mint(5).trace_id

    def test_head_sampling_rate_extremes(self):
        always = RequestTracer(sample_rate=1.0)
        never = RequestTracer(sample_rate=0.0)
        for msg_id in range(50):
            assert always.mint(msg_id).sampled is True
            assert never.mint(msg_id).sampled is False

    def test_head_sampling_rate_is_roughly_honoured(self):
        tracer = RequestTracer(sample_rate=0.25, seed=0)
        hits = sum(tracer.mint(i).sampled for i in range(4000))
        assert 800 <= hits <= 1200  # 0.25 +/- generous slack

    def test_head_sampling_matches_between_router_and_worker(self):
        """Same seed, independent processes' tracers: the worker's
        re-derived decision equals what the router stamped on the event."""
        router = RequestTracer(sample_rate=0.1, seed=99, process="router")
        worker = RequestTracer(sample_rate=0.1, seed=99, process="worker")
        for msg_id in range(500):
            context = router.mint(msg_id)
            assert worker.head_sampled(context.trace_id) == context.sampled


class TestPickleTransport:
    def test_trace_context_pickle_round_trip(self):
        context = TraceContext(trace_id=0xDEADBEEF, parent_span_id=7, sampled=True)
        assert pickle.loads(pickle.dumps(context)) == context

    def test_post_event_carries_context_through_pickle(self):
        """The RPC frame path: a PostEvent pickled the way
        ``repro.cluster.rpc`` frames it must keep its trace intact."""
        tracer = RequestTracer(sample_rate=1.0, seed=5)
        event = PostEvent(
            msg_id=42,
            author_id=3,
            timestamp=1.5,
            message_vec={"term": 1.0},
            text="hello",
            trace=tracer.mint(42),
        )
        clone = pickle.loads(pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.trace == event.trace
        assert clone.trace.sampled is True
        assert clone.trace.trace_id == trace_id_for(42, 5)

    def test_tracer_rebinds_after_crossing_a_process_boundary(self):
        tracer = RequestTracer(seed=1, process="main")
        clone = pickle.loads(pickle.dumps(tracer))
        clone.rebind(process="worker3")
        assert clone.process == "worker3"
        assert clone.seed == tracer.seed
        # Fresh anchor: wall-aligned now, not at original construction.
        assert abs((perf_counter() + clone.wall_anchor) - time.time()) < 1.0


class TestSpanIds:
    def test_span_ids_unique_across_spawned_tracers(self):
        """Workers never coordinate on span ids, so ids drawn from a
        parent and all its spawned children must not collide."""
        parent = RequestTracer(sample_rate=1.0, seed=7)
        tracers = [parent] + [parent.spawn() for _ in range(3)]
        seen: set[int] = set()
        for tracer in tracers:
            for msg_id in range(100):
                segment = tracer.start(tracer.mint(msg_id), "post")
                segment.add_span("work", "stage")
                record = tracer.finish(segment)
                for span_id in [record.span_id] + [s.span_id for s in record.spans]:
                    assert span_id not in seen
                    seen.add(span_id)

    def test_rebind_resalts_span_ids(self):
        a = RequestTracer(seed=3)
        salt_before = a._span_salt
        a.rebind()
        assert a._span_salt != salt_before


class TestRecording:
    def tracer(self, **kwargs) -> RequestTracer:
        kwargs.setdefault("sample_rate", 0.0)  # isolate tail capture
        kwargs.setdefault("tail_latency_s", 10.0)
        return RequestTracer(**kwargs)

    def test_sampled_segments_are_retained(self):
        tracer = RequestTracer(sample_rate=1.0)
        record = tracer.finish(tracer.start(tracer.mint(1), "post"))
        assert record.retained == "sampled"
        assert tracer.retained == [record]
        assert tracer.started == tracer.finished == 1

    def test_unsampled_fast_segments_go_ring_only(self):
        tracer = self.tracer()
        record = tracer.finish(tracer.start(tracer.mint(1), "post"))
        assert record.retained is None
        assert tracer.retained == []
        assert list(tracer.ring) == [record]

    def test_tail_latency_forces_retention(self):
        tracer = self.tracer(tail_latency_s=1e-9)
        segment = tracer.start(tracer.mint(1), "post")
        time.sleep(0.002)
        assert tracer.finish(segment).retained == "tail_latency"

    def test_breach_window_forces_retention(self):
        tracer = self.tracer()
        tracer.set_breach(True)
        assert tracer.finish(tracer.start(tracer.mint(1), "post")).retained == "breach"
        tracer.set_breach(False)
        assert tracer.finish(tracer.start(tracer.mint(2), "post")).retained is None

    def test_flag_forces_retention_first_reason_wins(self):
        tracer = self.tracer()
        segment = tracer.start(tracer.mint(1), "post")
        segment.flag("shed")
        segment.flag("degrade")
        assert tracer.finish(segment).retained == "shed"

    def test_force_reason_overrides_flag(self):
        tracer = self.tracer()
        segment = tracer.start(tracer.mint(1), "post")
        segment.flag("shed")
        assert tracer.finish(segment, force_reason="crash").retained == "crash"

    def test_mark_error_sets_status_span_and_retention(self):
        tracer = self.tracer()
        segment = tracer.start(tracer.mint(1), "post")
        segment.mark_error("ValueError('boom')")
        record = tracer.finish(segment)
        assert record.status == "error"
        assert record.retained == "error"
        (span,) = record.spans
        assert span.kind == "error"
        assert span.attrs["message"] == "ValueError('boom')"

    def test_stage_spans_aggregate_per_name(self):
        """A 3-follower fan-out books one span per stage, not three."""
        tracer = RequestTracer(sample_rate=1.0)
        segment = tracer.start(tracer.mint(1), "post")
        for _ in range(3):
            segment.add_stage("personalize", 0.001)
            segment.add_stage("candidate", 0.002)
        record = tracer.finish(segment)
        by_name = {span.name: span for span in record.spans}
        assert set(by_name) == {"personalize", "candidate"}
        assert by_name["personalize"].count == 3
        assert by_name["personalize"].seconds == pytest.approx(0.003)
        assert all(span.span_id != 0 for span in record.spans)

    def test_ring_is_bounded_and_keeps_the_last_n(self):
        tracer = self.tracer(ring_size=4)
        for msg_id in range(10):
            tracer.finish(tracer.start(tracer.mint(msg_id), "post"))
        assert len(tracer.ring) == 4
        assert tracer.finished == 10

    def test_retained_overflow_increments_dropped(self):
        tracer = RequestTracer(sample_rate=1.0, max_retained=2)
        for msg_id in range(5):
            tracer.finish(tracer.start(tracer.mint(msg_id), "post"))
        assert len(tracer.retained) == 2
        assert tracer.dropped == 3

    def test_record_segment_files_after_the_fact(self):
        tracer = RequestTracer(sample_rate=1.0)
        context = tracer.mint(9)
        record = tracer.record_segment(
            context,
            "route",
            spans=[Span(span_id=0, name="rpc_shard1", kind="rpc")],
            start=123.0,
            duration_s=0.5,
            attrs={"shards": 1},
        )
        assert record.retained == "sampled"
        assert record.start == 123.0
        assert record.spans[0].span_id != 0
        assert tracer.retained == [record]

    def test_record_segment_unsampled_needs_force_reason(self):
        tracer = self.tracer()
        context = tracer.mint(9)
        assert tracer.record_segment(context, "route").retained is None
        assert (
            tracer.record_segment(context, "crash", force_reason="worker_crash")
            .retained
            == "worker_crash"
        )

    def test_flight_traces_dedupes_retained_and_ring(self):
        tracer = RequestTracer(sample_rate=1.0, ring_size=8)
        for msg_id in range(3):
            tracer.finish(tracer.start(tracer.mint(msg_id), "post"))
        # Each record lives in both retained and ring; the black box
        # view must list it once.
        assert len(tracer.flight_traces()) == 3

    def test_validation_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            RequestTracer(sample_rate=1.5)
        with pytest.raises(ConfigError):
            RequestTracer(sample_rate=-0.1)
        with pytest.raises(ConfigError):
            RequestTracer(tail_latency_s=0.0)
        with pytest.raises(ConfigError):
            RequestTracer(ring_size=0)


class TestMerge:
    def test_drain_ships_an_increment_and_clears(self):
        worker = RequestTracer(sample_rate=1.0, process="worker0")
        for msg_id in range(3):
            worker.finish(worker.start(worker.mint(msg_id), "post"))
        payload = worker.drain()
        assert len(payload["retained"]) == 3
        assert payload["started"] == payload["finished"] == 3
        assert worker.retained == [] and len(worker.ring) == 0
        # The counters are shipped once: the next drain carries only what
        # happened since, so a router that absorbs every drain sums to the
        # true totals however often it reads.
        assert worker.started == worker.finished == worker.dropped == 0
        worker.finish(worker.start(worker.mint(3), "post"))
        router = RequestTracer(sample_rate=1.0, process="router")
        for drained in (payload, worker.drain(), worker.drain()):
            router.absorb(drained)
        assert router.started == router.finished == len(router.retained) == 4

    def test_drain_without_clear_leaves_the_counters(self):
        worker = RequestTracer(sample_rate=1.0, process="worker0")
        worker.finish(worker.start(worker.mint(0), "post"))
        assert worker.drain(clear=False)["finished"] == 1
        assert worker.finished == 1 and len(worker.retained) == 1

    def test_absorb_folds_a_drain_payload_in(self):
        router = RequestTracer(sample_rate=1.0, process="router")
        worker = router.spawn()
        worker.process = "worker0"
        worker.finish(worker.start(worker.mint(1), "post"))
        router.absorb(worker.drain())
        assert len(router.retained) == 1
        assert router.retained[0].process == "worker0"
        assert router.finished == 1

    def test_merge_keeps_in_process_child_intact(self):
        router = RequestTracer(sample_rate=1.0)
        shard = router.spawn()
        shard.finish(shard.start(shard.mint(1), "post"))
        router.merge(shard)
        router.merge(NOOP_REQUEST_TRACER)  # no-op, no crash
        assert len(router.retained) == 1
        assert len(shard.retained) == 1, "merge must not clear the child"

    def test_absorb_respects_max_retained(self):
        router = RequestTracer(sample_rate=1.0, max_retained=1)
        worker = RequestTracer(sample_rate=1.0)
        for msg_id in range(3):
            worker.finish(worker.start(worker.mint(msg_id), "post"))
        router.absorb(worker.drain())
        assert len(router.retained) == 1
        assert router.dropped == 2

    def test_pickle_round_trip_of_drain_payload(self):
        """The trace_drain RPC ships this payload between processes."""
        worker = RequestTracer(sample_rate=1.0)
        segment = worker.start(worker.mint(1), "post")
        segment.add_stage("personalize", 0.001)
        worker.finish(segment)
        payload = pickle.loads(pickle.dumps(worker.drain()))
        router = RequestTracer(sample_rate=1.0)
        router.absorb(payload)
        assert router.retained[0].spans[0].name == "personalize"


class TestSerialization:
    def test_segment_dict_round_trip(self):
        tracer = RequestTracer(sample_rate=1.0, process="shard2")
        segment = tracer.start(tracer.mint(17), "post")
        segment.add_stage("candidate", 0.004)
        segment.add_span("qos_shed", "shed", count=2, attrs={"rung": 1})
        segment.set_attrs(msg_id=17)
        record = tracer.finish(segment)
        row = record.to_dict()
        assert row["kind"] == "trace"
        assert row["trace_id"] == record.hex_id()
        clone = TraceSegment.from_dict(row)
        assert clone == record

    def test_span_dict_round_trip_drops_empty_attrs(self):
        span = Span(span_id=5, name="retry", kind="retry", seconds=0.1)
        row = span.to_dict()
        assert "attrs" not in row
        assert Span.from_dict(row) == span

    def test_span_kinds_cover_the_invisible_paths(self):
        for kind in ("retry", "failover", "duplicate", "shed", "degrade", "error"):
            assert kind in SPAN_KINDS


class TestGrouping:
    def test_group_traces_orders_on_wall_aligned_start(self):
        def seg(trace_id, process, start):
            return TraceSegment(
                trace_id=trace_id,
                name="post",
                process=process,
                span_id=splitmix64(trace_id ^ int(start * 10)),
                parent_span_id=0,
                start=start,
                duration_s=0.1,
                sampled=True,
            )

        grouped = group_traces(
            [seg(1, "worker0", 10.5), seg(2, "router", 11.0), seg(1, "router", 10.0)]
        )
        assert set(grouped) == {1, 2}
        assert [part.process for part in grouped[1]] == ["router", "worker0"]


class TestNoopTracer:
    def test_noop_is_inert_and_stateless(self):
        noop = NoopRequestTracer()
        assert noop.enabled is False
        assert noop.mint(1) is None
        assert noop.head_sampled(1) is False
        assert noop.record_segment(None, "x") is None
        assert noop.spawn() is noop
        assert noop.flight_traces() == []
        assert noop.retained == ()
        noop.set_breach(True)
        noop.rebind(process="worker")
        noop.merge(RequestTracer())
        noop.absorb({"retained": [1]})
        payload = noop.drain()
        assert payload["retained"] == [] and payload["started"] == 0
        assert noop.summary()["process"] == "noop"

    def test_shared_singleton_has_no_slots_to_mutate(self):
        assert NOOP_REQUEST_TRACER.enabled is False
        with pytest.raises(AttributeError):
            NOOP_REQUEST_TRACER.extra = 1

"""Distributed request tracing: contexts, spans, two-tier sampling.

The stage tracer (:mod:`repro.obs.tracer`) answers *"how slow is stage X
in aggregate"*; this module answers *"what happened to request Y"*. A
:class:`TraceContext` is minted once per :class:`~repro.core.pipeline.
PostEvent` at the router/engine edge and rides inside the event —
through the delivery pipeline, across the pickle RPC frames of
:mod:`repro.cluster.rpc`, into every worker process that serves part of
the fan-out. Each process records its part of the story as one
:class:`TraceSegment` (a flat list of :class:`Span`\\ s under one root);
the full causal chain router → worker → stages → outcome is reassembled
by grouping segments on ``trace_id`` (see :func:`group_traces`), with
cross-process clock alignment via each tracer's wall anchor.

Sampling is two-tier:

* **head sampling** — a deterministic, seeded hash of the trace id
  (:func:`splitmix64`); the decision is a pure function of
  ``(seed, trace_id)``, so the router and every worker agree without
  coordination, and replays are reproducible.
* **tail capture** — every segment is recorded while tracing is enabled,
  and retention is decided at :meth:`RequestTracer.finish`: segments
  that error, shed, degrade, retry, fail over, cross the tail latency
  threshold, or finish inside a health-breach interval are force-kept
  even when head sampling said no.

Independently of retention, a bounded ring (:attr:`RequestTracer.ring`)
keeps the last N completed segments per process — the flight-recorder
black box :mod:`repro.obs.recorder` dumps on SLO breach or worker crash.

Like the stage tracer and metrics registry, the default everywhere is a
disabled singleton (:data:`NOOP_REQUEST_TRACER`): instrumented call
sites gate on ``enabled``, so the un-traced hot path pays one attribute
check per potential span and is byte-identical in output.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import ConfigError

__all__ = [
    "NOOP_REQUEST_TRACER",
    "SPAN_KINDS",
    "ActiveSegment",
    "NoopRequestTracer",
    "RequestTracer",
    "Span",
    "TraceContext",
    "TraceSegment",
    "group_traces",
    "splitmix64",
    "trace_id_for",
]

_MASK64 = (1 << 64) - 1

#: The request-span taxonomy. ``stage`` spans mirror the pipeline's stage
#: names (aggregated per segment, not per follower); the rest mark the
#: paths aggregate telemetry never sees: dispatch retries, failover
#: redirects, duplicate suppression, QoS shed/degrade decisions, RPC
#: frames, and errors (worker crashes included).
SPAN_KINDS: tuple[str, ...] = (
    "request",
    "stage",
    "retry",
    "failover",
    "duplicate",
    "shed",
    "degrade",
    "rpc",
    "error",
)


def splitmix64(value: int) -> int:
    """The splitmix64 finaliser: a fast, well-mixed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def trace_id_for(msg_id: int, seed: int) -> int:
    """Deterministic message → trace id: a pure function of (msg_id,
    seed), so every process derives the same id without coordination."""
    return splitmix64(splitmix64(msg_id) ^ splitmix64(seed ^ 0x7261636574726163))


@dataclass(frozen=True, slots=True)
class TraceContext:
    """What travels with the event: identity plus the head decision.

    ``sampled`` is minted exactly once at the edge and carried, never
    re-decided downstream — though any process *could* re-derive it,
    since the decision is deterministic in ``(seed, trace_id)``.
    """

    trace_id: int
    parent_span_id: int
    sampled: bool


@dataclass(slots=True)
class Span:
    """One unit of attributed work inside a segment.

    Stage spans are *aggregated*: a 500-follower fan-out books one
    ``personalize`` span with ``count=500``, keeping trace size bounded
    by the span taxonomy, not the fan-out. ``offset_s`` is the span's
    first occurrence relative to the segment start (critical-path
    ordering); ``seconds`` is total attributed time across ``count``.
    """

    span_id: int
    name: str
    kind: str
    offset_s: float = 0.0
    seconds: float = 0.0
    count: int = 1
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        row = {
            "span_id": f"{self.span_id:016x}",
            "name": self.name,
            "kind": self.kind,
            "offset_s": self.offset_s,
            "seconds": self.seconds,
            "count": self.count,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row

    @classmethod
    def from_dict(cls, row: dict) -> "Span":
        return cls(
            span_id=int(row["span_id"], 16),
            name=row["name"],
            kind=row["kind"],
            offset_s=float(row["offset_s"]),
            seconds=float(row["seconds"]),
            count=int(row["count"]),
            attrs=dict(row.get("attrs", {})),
        )


@dataclass(slots=True)
class TraceSegment:
    """One process's completed slice of a trace.

    ``start`` is wall-aligned (the tracer's anchor maps ``perf_counter``
    readings onto the wall clock), so segments from different processes
    order correctly when a trace is reassembled. ``retained`` is ``None``
    for ring-only segments and the retention reason otherwise.
    """

    trace_id: int
    name: str
    process: str
    span_id: int
    parent_span_id: int
    start: float
    duration_s: float
    sampled: bool
    status: str = "ok"
    retained: str | None = None
    spans: list[Span] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    def hex_id(self) -> str:
        return f"{self.trace_id:016x}"

    def to_dict(self) -> dict:
        return {
            "kind": "trace",
            "trace_id": self.hex_id(),
            "name": self.name,
            "process": self.process,
            "span_id": f"{self.span_id:016x}",
            "parent_span_id": f"{self.parent_span_id:016x}",
            "start": self.start,
            "duration_s": self.duration_s,
            "sampled": self.sampled,
            "status": self.status,
            "retained": self.retained,
            "attrs": self.attrs,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, row: dict) -> "TraceSegment":
        return cls(
            trace_id=int(row["trace_id"], 16),
            name=row["name"],
            process=row["process"],
            span_id=int(row["span_id"], 16),
            parent_span_id=int(row["parent_span_id"], 16),
            start=float(row["start"]),
            duration_s=float(row["duration_s"]),
            sampled=bool(row["sampled"]),
            status=row["status"],
            retained=row.get("retained"),
            spans=[Span.from_dict(span) for span in row.get("spans", [])],
            attrs=dict(row.get("attrs", {})),
        )


class ActiveSegment:
    """A segment under construction (execution is synchronous per event
    per process, so one active segment at a time is the whole model)."""

    __slots__ = (
        "context",
        "name",
        "span_id",
        "started_perf",
        "start",
        "spans",
        "attrs",
        "status",
        "_flag",
        "_stage_spans",
    )

    def __init__(
        self,
        context: TraceContext,
        name: str,
        span_id: int,
        started_perf: float,
        start: float,
    ) -> None:
        self.context = context
        self.name = name
        self.span_id = span_id
        self.started_perf = started_perf
        self.start = start
        self.spans: list[Span] = []
        self.attrs: dict = {}
        self.status = "ok"
        self._flag: str | None = None
        self._stage_spans: dict[str, Span] = {}

    def add_stage(self, stage: str, seconds: float, count: int = 1) -> None:
        """Fold ``count`` stage observations of ``seconds`` in total
        (aggregated per stage name)."""
        span = self._stage_spans.get(stage)
        if span is None:
            span = Span(
                span_id=0,  # assigned at finish, one id pass per segment
                name=stage,
                kind="stage",
                offset_s=perf_counter() - self.started_perf,
                seconds=seconds,
                count=count,
            )
            self._stage_spans[stage] = span
            self.spans.append(span)
        else:
            span.seconds += seconds
            span.count += count

    def add_span(
        self,
        name: str,
        kind: str,
        *,
        seconds: float = 0.0,
        count: int = 1,
        attrs: dict | None = None,
    ) -> Span:
        """Record one explicit (non-stage) span — retry, failover, shed…"""
        span = Span(
            span_id=0,
            name=name,
            kind=kind,
            offset_s=perf_counter() - self.started_perf,
            seconds=seconds,
            count=count,
            attrs=attrs or {},
        )
        self.spans.append(span)
        return span

    def flag(self, reason: str) -> None:
        """Force tail retention of this segment (first reason wins)."""
        if self._flag is None:
            self._flag = reason

    def mark_error(self, message: str) -> None:
        self.status = "error"
        self.add_span("error", "error", attrs={"message": message})
        self.flag("error")

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)


# Per-process salt source for span ids: distinct tracer instances in one
# process draw distinct salts, distinct processes differ through the pid.
_INSTANCES = itertools.count()


class RequestTracer:
    """Per-process request tracer: mint, record, sample, retain.

    ``spawn`` produces a same-config child (fresh storage) for a shard or
    worker; children ship back over RPC via :meth:`drain`/:meth:`absorb`
    (the checkpoint-style merge the routers run), or merge directly via
    :meth:`merge` when they live in-process.
    """

    enabled = True

    def __init__(
        self,
        *,
        sample_rate: float = 0.01,
        seed: int = 0,
        tail_latency_s: float = 0.1,
        ring_size: int = 64,
        max_retained: int = 10_000,
        process: str = "main",
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if tail_latency_s <= 0.0:
            raise ConfigError(
                f"tail_latency_s must be positive, got {tail_latency_s}"
            )
        if ring_size < 1:
            raise ConfigError(f"ring_size must be >= 1, got {ring_size}")
        self.sample_rate = sample_rate
        self.seed = seed
        self.tail_latency_s = tail_latency_s
        self.ring_size = ring_size
        self.max_retained = max_retained
        self.process = process
        # Cross-process clock alignment: perf_counter reading + anchor ==
        # wall-clock seconds, so segment starts from different processes
        # share one timeline.
        self.wall_anchor = time.time() - perf_counter()
        # Unique span ids without coordination: salt in the pid (distinct
        # processes) and an instance counter (distinct tracers per pid).
        self._span_salt = splitmix64(
            (os.getpid() << 20) ^ next(_INSTANCES) ^ splitmix64(seed)
        )
        self._span_seq = 0
        self.current: ActiveSegment | None = None
        self.breach = False
        self.ring: deque[TraceSegment] = deque(maxlen=ring_size)
        self.retained: list[TraceSegment] = []
        self.started = 0
        self.finished = 0
        self.dropped = 0  # retained overflow, not ring eviction

    # -- identity -----------------------------------------------------------

    def _next_span_id(self) -> int:
        self._span_seq += 1
        return splitmix64(self._span_salt ^ self._span_seq)

    def head_sampled(self, trace_id: int) -> bool:
        """The deterministic head decision for one trace id."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        draw = splitmix64(trace_id ^ splitmix64(self.seed ^ 0x73616D706C65))
        return draw < int(self.sample_rate * (_MASK64 + 1))

    def mint(self, msg_id: int) -> TraceContext:
        """The edge operation: one context per event, decided here."""
        trace_id = trace_id_for(msg_id, self.seed)
        return TraceContext(
            trace_id=trace_id,
            parent_span_id=0,
            sampled=self.head_sampled(trace_id),
        )

    # -- recording ----------------------------------------------------------

    def start(self, context: TraceContext, name: str) -> ActiveSegment:
        """Open this process's segment of ``context``'s trace."""
        started_perf = perf_counter()
        segment = ActiveSegment(
            context=context,
            name=name,
            span_id=self._next_span_id(),
            started_perf=started_perf,
            start=started_perf + self.wall_anchor,
        )
        self.started += 1
        self.current = segment
        return segment

    def finish(
        self, segment: ActiveSegment, *, force_reason: str | None = None
    ) -> TraceSegment:
        """Close a segment: decide retention, file it, return the record."""
        duration = perf_counter() - segment.started_perf
        if self.current is segment:
            self.current = None
        for span in segment.spans:
            if span.span_id == 0:
                span.span_id = self._next_span_id()
        context = segment.context
        reason = force_reason or segment._flag
        if reason is None:
            if context.sampled:
                reason = "sampled"
            elif duration > self.tail_latency_s:
                reason = "tail_latency"
            elif self.breach:
                reason = "breach"
        record = TraceSegment(
            trace_id=context.trace_id,
            name=segment.name,
            process=self.process,
            span_id=segment.span_id,
            parent_span_id=context.parent_span_id,
            start=segment.start,
            duration_s=duration,
            sampled=context.sampled,
            status=segment.status,
            retained=reason,
            spans=segment.spans,
            attrs=segment.attrs,
        )
        self.finished += 1
        self.ring.append(record)
        if reason is not None:
            if len(self.retained) < self.max_retained:
                self.retained.append(record)
            else:
                self.dropped += 1
        return record

    def record_segment(
        self,
        context: TraceContext,
        name: str,
        *,
        spans: list[Span] | None = None,
        start: float | None = None,
        duration_s: float = 0.0,
        status: str = "ok",
        force_reason: str | None = None,
        attrs: dict | None = None,
    ) -> TraceSegment:
        """File an after-the-fact segment (router dispatch bookkeeping,
        crash markers) whose timing was measured externally."""
        record = TraceSegment(
            trace_id=context.trace_id,
            name=name,
            process=self.process,
            span_id=self._next_span_id(),
            parent_span_id=context.parent_span_id,
            start=start if start is not None else time.time(),
            duration_s=duration_s,
            sampled=context.sampled,
            status=status,
            retained=force_reason
            or ("sampled" if context.sampled else None),
            spans=spans or [],
            attrs=attrs or {},
        )
        for span in record.spans:
            if span.span_id == 0:
                span.span_id = self._next_span_id()
        self.started += 1
        self.finished += 1
        self.ring.append(record)
        if record.retained is not None:
            if len(self.retained) < self.max_retained:
                self.retained.append(record)
            else:
                self.dropped += 1
        return record

    def set_breach(self, active: bool) -> None:
        """Health-breach window flag: segments finishing while set are
        force-retained (the SLO-interval half of tail capture)."""
        self.breach = bool(active)

    def rebind(self, process: str | None = None) -> None:
        """Recompute the process-local anchors after crossing a process
        boundary: pickling ships the config, but ``perf_counter`` origins
        and pids are per-process, so a shipped tracer must re-anchor its
        wall clock and re-salt its span ids before recording anything."""
        self.wall_anchor = time.time() - perf_counter()
        self._span_salt = splitmix64(
            (os.getpid() << 20) ^ next(_INSTANCES) ^ splitmix64(self.seed)
        )
        if process is not None:
            self.process = process

    # -- hierarchy ----------------------------------------------------------

    def spawn(self) -> "RequestTracer":
        """A same-config child with fresh storage (per shard/worker)."""
        return RequestTracer(
            sample_rate=self.sample_rate,
            seed=self.seed,
            tail_latency_s=self.tail_latency_s,
            ring_size=self.ring_size,
            max_retained=self.max_retained,
            process=self.process,
        )

    def merge(self, other: "RequestTracer | NoopRequestTracer") -> None:
        """Fold an in-process child in (retained extends, rings chain)."""
        if not isinstance(other, RequestTracer):
            return
        self.absorb(other.drain(clear=False))

    def drain(self, *, clear: bool = True) -> dict:
        """The RPC-portable merge payload: everything recorded so far.

        Workers are drained over the ``trace_drain`` op; ``clear`` resets
        the worker side, counters included, so each drain ships an
        increment for ``absorb`` to add up (checkpoint-style merge).
        """
        payload = {
            "retained": list(self.retained),
            "ring": list(self.ring),
            "started": self.started,
            "finished": self.finished,
            "dropped": self.dropped,
        }
        if clear:
            self.retained.clear()
            self.ring.clear()
            self.started = self.finished = self.dropped = 0
        return payload

    def absorb(self, payload: dict) -> None:
        """Fold one :meth:`drain` payload in."""
        for record in payload["retained"]:
            if len(self.retained) < self.max_retained:
                self.retained.append(record)
            else:
                self.dropped += 1
        self.ring.extend(payload["ring"])
        self.started += payload["started"]
        self.finished += payload["finished"]
        self.dropped += payload["dropped"]

    # -- introspection ------------------------------------------------------

    def flight_traces(self) -> list[TraceSegment]:
        """The black-box view: retained segments plus the ring's last-N,
        deduplicated (a segment can live in both)."""
        seen: set[tuple[int, int]] = set()
        out: list[TraceSegment] = []
        for record in itertools.chain(self.retained, self.ring):
            key = (record.trace_id, record.span_id)
            if key in seen:
                continue
            seen.add(key)
            out.append(record)
        return out

    def summary(self) -> dict:
        return {
            "process": self.process,
            "sample_rate": self.sample_rate,
            "started": self.started,
            "finished": self.finished,
            "retained": len(self.retained),
            "ring": len(self.ring),
            "dropped": self.dropped,
        }


class NoopRequestTracer:
    """The default request tracer: observes nothing, costs one check."""

    enabled = False
    current = None
    breach = False
    __slots__ = ()

    def mint(self, msg_id: int) -> None:
        return None

    def head_sampled(self, trace_id: int) -> bool:
        return False

    def start(self, context, name):  # pragma: no cover - never reached
        raise ConfigError("NoopRequestTracer cannot start segments")

    def finish(self, segment, *, force_reason=None):  # pragma: no cover
        return None

    def record_segment(self, *args, **kwargs):
        return None

    def set_breach(self, active: bool) -> None:
        return None

    def rebind(self, process: str | None = None) -> None:
        return None

    def spawn(self) -> "NoopRequestTracer":
        return self

    def merge(self, other) -> None:
        return None

    def drain(self, *, clear: bool = True) -> dict:
        return {
            "retained": [], "ring": [],
            "started": 0, "finished": 0, "dropped": 0,
        }

    def absorb(self, payload: dict) -> None:
        return None

    def flight_traces(self) -> list:
        return []

    @property
    def retained(self) -> tuple:
        return ()

    def summary(self) -> dict:
        return {"process": "noop", "started": 0, "finished": 0,
                "retained": 0, "ring": 0, "dropped": 0}


#: Shared disabled tracer — safe to share because it holds no state.
NOOP_REQUEST_TRACER = NoopRequestTracer()


def group_traces(
    segments: "list[TraceSegment]",
) -> dict[int, list[TraceSegment]]:
    """Reassemble full traces: segments grouped by trace id, each group
    ordered on the wall-aligned start (router before workers)."""
    grouped: dict[int, list[TraceSegment]] = {}
    for segment in segments:
        grouped.setdefault(segment.trace_id, []).append(segment)
    for parts in grouped.values():
        parts.sort(key=lambda part: (part.start, part.process, part.name))
    return grouped

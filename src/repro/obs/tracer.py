"""Stage tracers, and the one seam every span goes through.

The delivery pipeline emits one *span* — a named stage plus an elapsed
wall-clock duration — per stage per event, and one ``delivery`` span per
follower in the fan-out loop (the span taxonomy is :data:`STAGES`), each
once, through its engine's :class:`Seam`. A :class:`StageTracer` is one
of the sinks behind the seam. Two implementations ship:

* :class:`NoopTracer` — the default everywhere. ``enabled`` is ``False``,
  so a seam without another sink skips the ``perf_counter`` reads and
  costs one attribute check per potential span.
* :class:`RecordingTracer` — per-stage span counts and latency
  distributions in :class:`~repro.obs.histogram.QuantileSketch` form, with
  ``spawn``/``merge`` so the sharded router can keep one child tracer per
  shard and roll them up.

The other two sinks are the live registry's ``stage_<name>`` windows
(:class:`~repro.obs.registry.MetricsRegistry`) and the request segment
open at the time (:class:`~repro.obs.trace.RequestTracer`). The replay
driver observes no spans: it reads the sinks after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.obs.histogram import QuantileSketch

__all__ = [
    "STAGES",
    "StageStats",
    "StageTracer",
    "NoopTracer",
    "RecordingTracer",
    "Seam",
]

# The span taxonomy, in pipeline order. "delivery" wraps one whole
# per-follower pass (personalize + charge + feedback) in the fan-out loop.
STAGES: tuple[str, ...] = (
    "vectorize",
    "candidate",
    "personalize",
    "charge",
    "feedback",
    "delivery",
)


@dataclass(frozen=True, slots=True)
class StageStats:
    """One stage's roll-up: span count plus latency distribution summary."""

    stage: str
    spans: int
    total_seconds: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def row(self) -> list[object]:
        """One table row (matches :func:`repro.obs.export.stage_table`)."""
        return [
            self.stage,
            self.spans,
            round(self.mean_ms, 4),
            round(self.p50_ms, 4),
            round(self.p95_ms, 4),
            round(self.p99_ms, 4),
            round(self.max_ms, 4),
        ]


@runtime_checkable
class StageTracer(Protocol):
    """What the pipeline needs from an observability backend.

    ``enabled`` gates the timing reads at every instrumented call site:
    when ``False`` the caller must not pay for ``perf_counter`` at all, so
    a disabled tracer costs one attribute check per potential span.
    """

    enabled: bool

    def record(self, stage: str, seconds: float) -> None:
        """Consume one span."""

    def spawn(self) -> "StageTracer":
        """A compatible child tracer (per-shard recording)."""

    def merge(self, other: "StageTracer") -> None:
        """Fold a child's spans into this tracer."""

    def snapshot(self) -> dict[str, StageStats]:
        """Immutable per-stage roll-up, keyed by stage name."""


class NoopTracer:
    """The default tracer: observes nothing, costs (almost) nothing."""

    enabled = False
    __slots__ = ()

    def record(self, stage: str, seconds: float) -> None:
        return None

    def spawn(self) -> "NoopTracer":
        return self

    def merge(self, other: StageTracer) -> None:
        return None

    def snapshot(self) -> dict[str, StageStats]:
        return {}


class RecordingTracer:
    """In-memory tracer: one :class:`QuantileSketch` per stage name."""

    enabled = True
    __slots__ = ("_relative_error", "_sketches")

    def __init__(self, relative_error: float = 0.01) -> None:
        self._relative_error = relative_error
        self._sketches: dict[str, QuantileSketch] = {}

    def record(self, stage: str, seconds: float) -> None:
        sketch = self._sketches.get(stage)
        if sketch is None:
            sketch = QuantileSketch(self._relative_error)
            self._sketches[stage] = sketch
        sketch.record(seconds)

    # -- hierarchy ----------------------------------------------------------

    def spawn(self) -> "RecordingTracer":
        return RecordingTracer(self._relative_error)

    def merge(self, other: StageTracer) -> None:
        if not isinstance(other, RecordingTracer):
            return  # nothing to fold in from a noop
        if other._relative_error != self._relative_error:
            # Eager check: sketch.merge would catch overlapping stages, but
            # a child with no common stages (or no spans yet) would fold in
            # silently and poison later merges with misaligned buckets.
            raise ConfigError(
                "cannot merge tracers with different relative_error: "
                f"{self._relative_error} vs {other._relative_error}"
            )
        for stage, sketch in other._sketches.items():
            mine = self._sketches.get(stage)
            if mine is None:
                mine = QuantileSketch(self._relative_error)
                self._sketches[stage] = mine
            mine.merge(sketch)

    # -- introspection ------------------------------------------------------

    def stages(self) -> list[str]:
        """Observed stage names, pipeline-order first, extras alphabetical."""
        known = [stage for stage in STAGES if stage in self._sketches]
        extras = sorted(set(self._sketches) - set(STAGES))
        return known + extras

    def spans(self, stage: str) -> int:
        sketch = self._sketches.get(stage)
        return 0 if sketch is None else sketch.count

    def sketch(self, stage: str) -> QuantileSketch | None:
        return self._sketches.get(stage)

    def snapshot(self) -> dict[str, StageStats]:
        report: dict[str, StageStats] = {}
        for stage in self.stages():
            sketch = self._sketches[stage]
            report[stage] = StageStats(
                stage=stage,
                spans=sketch.count,
                total_seconds=sketch.sum(),
                mean_ms=sketch.mean() * 1e3,
                p50_ms=sketch.p50() * 1e3,
                p95_ms=sketch.p95() * 1e3,
                p99_ms=sketch.p99() * 1e3,
                max_ms=sketch.max() * 1e3,
            )
        return report


class Seam:
    """The one instrumentation seam, built once per engine (and once for
    a router's own vectorize) from whichever sinks are attached. A call
    site checks ``enabled`` and makes one :meth:`emit` per span; the
    stage tracer, the registry's ``stage_<name>`` window and the current
    request segment each take it from there.

    The granularity rule: per-follower spans and the kind-attributed
    twins are timed only when ``fine`` — a stage tracer or a registry
    listens. A request tracer alone gets ``candidate`` and one coarse
    ``delivery`` span per fan-out, so its cost stays O(1) in the fan-out.
    """

    __slots__ = ("enabled", "fine", "_tracer", "_metrics", "_requests")

    def __init__(self, tracer=None, metrics=None, request_tracer=None) -> None:
        self._tracer, self._metrics, self._requests = (
            sink if getattr(sink, "enabled", False) else None
            for sink in (tracer, metrics, request_tracer)
        )
        self.fine = self._tracer is not None or self._metrics is not None
        self.enabled = self.fine or self._requests is not None

    def emit(self, stage: str, seconds: float, at: float, count: int = 1) -> None:
        """One ``stage`` span of ``seconds``, at stream time ``at`` (the
        registry window's bucket). ``count`` > 1 is the coarse span that
        stands for a whole fan-out, which only a request segment gets."""
        if self._tracer is not None:
            self._tracer.record(stage, seconds)
        if self._metrics is not None:
            self._metrics.observe_stage(stage, seconds, at)
        if self._requests is not None:
            segment = self._requests.current
            if segment is not None:
                segment.add_stage(stage, seconds, count)


#: The seam with no sink behind it.
NO_SEAM = Seam()

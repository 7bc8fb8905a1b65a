"""Stage tracers: per-stage counters and latency sketches for the pipeline.

The delivery pipeline emits one *span* — a named stage plus an elapsed
wall-clock duration — per stage per event, and one ``delivery`` span per
follower in the fan-out loop (the span taxonomy is :data:`STAGES`). A
:class:`StageTracer` consumes those spans. Two implementations ship:

* :class:`NoopTracer` — the default everywhere. ``enabled`` is ``False``,
  so instrumented call sites skip the ``perf_counter`` reads entirely and
  the hot-path cost is one attribute check per potential span.
* :class:`RecordingTracer` — per-stage span counts and latency
  distributions in :class:`~repro.obs.histogram.QuantileSketch` form, with
  ``spawn``/``merge`` so the sharded router can keep one child tracer per
  shard and roll them up.

Everything shares one tracer instance via
:class:`~repro.core.services.EngineServices`, so the engine facade, the
sharded router and the replay driver all observe the same stream of
spans without extra wiring.
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

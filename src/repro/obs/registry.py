"""The live metrics registry: named counters, gauges, windowed histograms.

Where :class:`~repro.obs.tracer.RecordingTracer` accumulates whole-run
latency sketches for post-mortem tables, :class:`MetricsRegistry` is the
*live* side of the observability layer: monotone counters (deliveries,
impressions, revenue), point-in-time gauges, and
:class:`~repro.obs.window.WindowedSketch` histograms that answer "what is
the stage p99 over the trailing window of stream time". It mirrors the
tracer's contract on purpose:

* ``enabled`` gates every instrumented call site, and the default on
  :class:`~repro.core.services.EngineServices` is the shared
  :data:`NULL_METRICS` singleton — the un-metered hot path pays one
  attribute check, exactly like the noop tracer;
* ``spawn``/``merge`` give the sharded router one child registry per
  shard and a lossless cluster-wide roll-up (counters add, gauges add,
  windowed histograms merge bucket-by-bucket).

``snapshot(now)`` freezes everything into a :class:`RegistrySnapshot`,
the unit the health monitor evaluates and the Prometheus/JSONL exporters
render.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.errors import ConfigError
from repro.obs.window import WindowedSketch

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "RegistrySnapshot",
    "WindowStats",
]


@dataclass(frozen=True, slots=True)
class WindowStats:
    """One windowed histogram's merge-on-read summary at snapshot time."""

    name: str
    count: int
    total_count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max_value: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_count": self.total_count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max_value,
        }


@dataclass(frozen=True, slots=True)
class RegistrySnapshot:
    """Immutable view of a registry at one stream time (``at``)."""

    at: float
    counters: Mapping[str, float]
    gauges: Mapping[str, float]
    windows: Mapping[str, WindowStats]

    def to_dict(self) -> dict:
        """JSON-ready form (the timeseries sink's wire format)."""
        return {
            "at": self.at,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "windows": {
                name: stats.to_dict() for name, stats in self.windows.items()
            },
        }


class MetricsRegistry:
    """Named live metrics with a ``spawn``/``merge`` shard hierarchy."""

    enabled = True
    __slots__ = (
        "_window_s",
        "_num_buckets",
        "_relative_error",
        "_counters",
        "_gauges",
        "_histograms",
    )

    def __init__(
        self,
        *,
        window_s: float = 60.0,
        num_buckets: int = 6,
        relative_error: float = 0.01,
    ) -> None:
        if window_s <= 0.0:
            raise ConfigError(f"window_s must be positive, got {window_s}")
        self._window_s = float(window_s)
        self._num_buckets = num_buckets
        self._relative_error = relative_error
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, WindowedSketch] = {}

    # -- configuration -------------------------------------------------------

    @property
    def window_s(self) -> float:
        return self._window_s

    @property
    def relative_error(self) -> float:
        return self._relative_error

    # -- counters ------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Bump a monotone counter (negative increments are driver bugs)."""
        if amount < 0.0:
            raise ConfigError(f"counter increments must be >= 0, got {amount}")
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    # -- gauges --------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    # -- windowed histograms -------------------------------------------------

    def histogram(self, name: str) -> WindowedSketch:
        """The named windowed histogram, created with registry geometry."""
        sketch = self._histograms.get(name)
        if sketch is None:
            sketch = WindowedSketch(
                self._window_s,
                num_buckets=self._num_buckets,
                relative_error=self._relative_error,
            )
            self._histograms[name] = sketch
        return sketch

    def observe(self, name: str, value: float, at: float) -> None:
        """Record one sample into the named histogram at stream time ``at``."""
        self.histogram(name).record(value, at)

    def observe_stage(self, stage: str, seconds: float, at: float) -> None:
        """Pipeline convenience: spans land as ``stage_<name>`` histograms."""
        self.histogram("stage_" + stage).record(seconds, at)

    # -- hierarchy -----------------------------------------------------------

    def spawn(self) -> "MetricsRegistry":
        """A compatible (same-geometry) child registry, e.g. per shard."""
        return MetricsRegistry(
            window_s=self._window_s,
            num_buckets=self._num_buckets,
            relative_error=self._relative_error,
        )

    def merge(
        self,
        other: "MetricsRegistry | NullMetrics",
        *,
        except_counters: tuple[str, ...] = (),
    ) -> None:
        """Fold a child registry in: counters and gauges add, histograms
        merge bucket-by-bucket (lossless for aligned geometry).
        ``except_counters`` names counters that do not partition across
        children (every child counted the same events) and are left for
        the caller to set."""
        if not isinstance(other, MetricsRegistry):
            return  # nothing to fold in from the null registry
        for name, value in other._counters.items():
            if name not in except_counters:
                self._counters[name] = self._counters.get(name, 0.0) + value
        for name, value in other._gauges.items():
            self._gauges[name] = self._gauges.get(name, 0.0) + value
        for name, sketch in other._histograms.items():
            self.histogram(name).merge(sketch)

    # -- snapshots -----------------------------------------------------------

    def histogram_names(self) -> list[str]:
        return sorted(self._histograms)

    def snapshot(self, now: float | None = None) -> RegistrySnapshot:
        """Freeze the registry at stream time ``now`` (default: the latest
        sample time across histograms)."""
        if now is None:
            latest = [
                sketch.latest_at
                for sketch in self._histograms.values()
                if sketch.total_count
            ]
            now = max(latest) if latest else 0.0
        windows: dict[str, WindowStats] = {}
        for name in sorted(self._histograms):
            sketch = self._histograms[name]
            merged = sketch.merged(now)
            windows[name] = WindowStats(
                name=name,
                count=merged.count,
                total_count=sketch.total_count,
                mean=merged.mean(),
                p50=merged.p50(),
                p95=merged.p95(),
                p99=merged.p99(),
                max_value=merged.max(),
            )
        return RegistrySnapshot(
            at=now,
            counters=MappingProxyType(dict(self._counters)),
            gauges=MappingProxyType(dict(self._gauges)),
            windows=MappingProxyType(windows),
        )


class NullMetrics:
    """The default registry: observes nothing, costs (almost) nothing.

    Mirrors :class:`~repro.obs.tracer.NoopTracer`: ``enabled`` is
    ``False`` and every instrumented call site is gated on it, so the
    un-metered path never reaches these methods.
    """

    enabled = False
    __slots__ = ()

    def inc(self, name: str, amount: float = 1.0) -> None:
        return None

    def counter(self, name: str) -> float:
        return 0.0

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def gauge(self, name: str, default: float = 0.0) -> float:
        return default

    def observe(self, name: str, value: float, at: float) -> None:
        return None

    def observe_stage(self, stage: str, seconds: float, at: float) -> None:
        return None

    def spawn(self) -> "NullMetrics":
        return self

    def merge(self, other: object, *, except_counters: tuple = ()) -> None:
        return None

    def snapshot(self, now: float | None = None) -> RegistrySnapshot:
        return RegistrySnapshot(
            at=now if now is not None else 0.0,
            counters=MappingProxyType({}),
            gauges=MappingProxyType({}),
            windows=MappingProxyType({}),
        )


#: Shared disabled registry — safe to share because it holds no state.
NULL_METRICS = NullMetrics()

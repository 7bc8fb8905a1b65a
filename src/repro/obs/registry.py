"""The live metrics registry: windowed histograms, counters, gauges.

Where :class:`~repro.obs.tracer.RecordingTracer` accumulates whole-run
latency sketches for post-mortem tables, :class:`MetricsRegistry` is the
*live* side of the observability layer. Its
:class:`~repro.obs.window.WindowedSketch` histograms answer "what is the
stage p99 over the trailing window of stream time": the engine's
:class:`~repro.obs.tracer.Seam` feeds them as ``stage_<name>``. Counters
and gauges are not kept here at all: they are read from their owner —
the engine's :class:`~repro.core.services.EngineStats` and learner, or a
router's cluster roll-up — each time they are read, so each is kept once.

* ``enabled`` gates the seam, and the default on
  :class:`~repro.core.services.EngineServices` is the shared
  :data:`NULL_METRICS` singleton, which the seam never feeds;
* ``spawn``/``merge`` give the sharded router one child registry per
  shard and a lossless cluster-wide roll-up of the windowed histograms
  (bucket-by-bucket).

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
    "STATS_COUNTERS",
    "WindowStats",
    "counted",
]

#: The :class:`~repro.core.services.EngineStats` fields a registry
#: reports as counters.
STATS_COUNTERS = (
    "posts", "deliveries", "impressions", "revenue", "deliveries_shed",
    "deliveries_degraded", "revenue_shed_upper_bound", "probe_depth_total",
)


def counted(stats, learned=None) -> tuple[dict[str, float], dict[str, float]]:
    """A registry's ``(counters, gauges)``: the :data:`STATS_COUNTERS` of
    an engine's (or a cluster's) stats, plus a learner's own pair
    (``learned``, from :meth:`~repro.learn.linucb.LinUcbLearner.telemetry`)."""
    counters = {name: float(getattr(stats, name)) for name in STATS_COUNTERS}
    if learned is None:
        return counters, {}
    return {**counters, **learned[0]}, learned[1]


def _nothing_counted() -> tuple[dict, dict]:
    return {}, {}


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
        "_counts",
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
        self._counts = _nothing_counted
        self._histograms: dict[str, WindowedSketch] = {}

    # -- counters and gauges -------------------------------------------------

    def read_from(self, source) -> None:
        """Read counters and gauges from ``source()`` — a ``(counters,
        gauges)`` pair, see :func:`counted` — each time they are read:
        an engine binds its stats, a router's view its cluster roll-up."""
        self._counts = source

    def counter(self, name: str) -> float:
        return self._counts()[0].get(name, 0.0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._counts()[1].get(name, default)

    def __getstate__(self):
        # A registry shipped from a worker leaves its source (the live
        # engine) behind: the receiver counts from its own roll-up.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_counts"] = _nothing_counted
        return None, state

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

    def merge(self, other: "MetricsRegistry | NullMetrics") -> None:
        """Fold a child registry's histograms in, bucket-by-bucket
        (lossless for aligned geometry); a roll-up reads its counters and
        gauges from its own source."""
        if not isinstance(other, MetricsRegistry):
            return  # nothing to fold in from the null registry
        for name, sketch in other._histograms.items():
            self.histogram(name).merge(sketch)

    # -- snapshots -----------------------------------------------------------

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
        counters, gauges = self._counts()
        return RegistrySnapshot(
            at=now,
            counters=MappingProxyType(dict(counters)),
            gauges=MappingProxyType(dict(gauges)),
            windows=MappingProxyType(windows),
        )


class NullMetrics:
    """The default registry: ``enabled`` is ``False``, so no seam feeds
    it; a roll-up of it is empty."""

    enabled = False
    __slots__ = ()

    def read_from(self, source) -> None:
        return None

    def counter(self, name: str) -> float:
        return 0.0

    def spawn(self) -> "NullMetrics":
        return self

    def merge(self, other: object) -> None:
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

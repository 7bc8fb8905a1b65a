"""Performance harness: run an engine configuration over a workload and
report throughput, latency and engine instrumentation in one flat record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import Workload
from repro.obs.export import stage_table
from repro.stream.simulator import FeedSimulator, IntervalHook

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import RequestTracer
    from repro.obs.tracer import StageStats, StageTracer
    from repro.qos.controller import QosController


@dataclass(frozen=True, slots=True)
class PerfResult:
    """One performance measurement (one row of an efficiency figure)."""

    label: str
    posts: int
    deliveries: int
    wall_seconds: float
    deliveries_per_s: float
    post_latency_p50_ms: float
    post_latency_p99_ms: float
    fallback_rate: float
    refresh_rate: float
    impressions: int
    revenue: float = 0.0
    # QoS accounting (zero unless run_perf got a controller).
    deliveries_shed: int = 0
    deliveries_degraded: int = 0
    revenue_shed_upper_bound: float = 0.0
    # Per-stage breakdown; populated only when run_perf got a recording
    # tracer, so untraced benchmark rows carry no observability weight.
    stages: "dict[str, StageStats]" = field(default_factory=dict)

    def row(self) -> list[object]:
        return [
            self.label,
            self.deliveries,
            self.deliveries_per_s,
            self.post_latency_p50_ms,
            self.post_latency_p99_ms,
            self.fallback_rate,
        ]

    def stage_breakdown(self) -> str:
        """Per-stage latency table for this row (see benchmarks/results/)."""
        return stage_table(
            self.stages, title=f"per-stage latency — {self.label}"
        )


def run_perf(
    workload: Workload,
    config: EngineConfig,
    *,
    label: str,
    limit_posts: int | None = None,
    with_checkins: bool = False,
    batch_size: int | None = None,
    tracer: "StageTracer | None" = None,
    metrics_registry: "MetricsRegistry | None" = None,
    interval_s: float | None = None,
    on_interval: IntervalHook | None = None,
    qos: "QosController | None" = None,
    request_tracer: "RequestTracer | None" = None,
) -> PerfResult:
    """Build a fresh engine for ``config``, replay the stream, measure.

    Each call takes a fresh corpus so budget-driven retirements in one run
    never leak into another. ``batch_size`` drives the engine through its
    batch entry point (latency is then per batch, not per post).
    ``tracer`` (a recording :class:`~repro.obs.tracer.StageTracer`) adds a
    per-stage latency breakdown to the result. ``metrics_registry`` opts
    the engine into live windowed telemetry; with ``interval_s`` and
    ``on_interval`` the simulator fires the sampling hook at every stream
    interval boundary (see :meth:`~repro.stream.simulator.FeedSimulator.run`).
    ``qos`` attaches a QoS controller; the row then reports what admission
    shed and how many deliveries were served degraded. ``request_tracer``
    attaches distributed request tracing (the retained traces stay on the
    tracer the caller passed in).
    """
    recommender = ContextAwareRecommender.from_workload(
        workload,
        config,
        tracer=tracer,
        metrics=metrics_registry,
        qos=qos,
        request_tracer=request_tracer,
    )
    posts = workload.posts if limit_posts is None else workload.posts[:limit_posts]
    simulator = FeedSimulator(recommender.engine)
    metrics = simulator.run(
        posts,
        checkins=workload.checkins if with_checkins else (),
        batch_size=batch_size,
        interval_s=interval_s,
        on_interval=on_interval,
    )
    stats = recommender.stats
    return PerfResult(
        label=label,
        posts=metrics.posts,
        deliveries=metrics.deliveries,
        wall_seconds=metrics.wall_seconds,
        deliveries_per_s=metrics.deliveries_per_second(),
        post_latency_p50_ms=metrics.post_latency.p50() * 1e3,
        post_latency_p99_ms=metrics.post_latency.p99() * 1e3,
        fallback_rate=stats.fallback_rate(),
        refresh_rate=stats.refresh_rate(),
        impressions=metrics.impressions,
        revenue=stats.revenue,
        deliveries_shed=stats.deliveries_shed,
        deliveries_degraded=stats.deliveries_degraded,
        revenue_shed_upper_bound=stats.revenue_shed_upper_bound,
        stages=metrics.stages,
    )

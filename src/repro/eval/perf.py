"""Performance harness: run an engine configuration over a workload and
report throughput, latency and engine instrumentation in one flat record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import Workload
from repro.obs.export import stage_table
from repro.stream.simulator import FeedSimulator

if TYPE_CHECKING:
    from repro.obs.tracer import StageStats, StageTracer


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
) -> PerfResult:
    """Build a fresh engine for ``config``, replay the stream, measure.

    Each call takes a fresh corpus so budget-driven retirements in one run
    never leak into another. ``batch_size`` drives the engine through its
    batch entry point (latency is then per batch, not per post).
    ``tracer`` (a recording :class:`~repro.obs.tracer.StageTracer`) adds a
    per-stage latency breakdown to the result.
    """
    recommender = ContextAwareRecommender.from_workload(
        workload, config, tracer=tracer
    )
    posts = workload.posts if limit_posts is None else workload.posts[:limit_posts]
    simulator = FeedSimulator(recommender.engine)
    metrics = simulator.run(
        posts,
        checkins=workload.checkins if with_checkins else (),
        batch_size=batch_size,
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
        stages=metrics.stages,
    )

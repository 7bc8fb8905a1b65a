"""Canary A/B rollout harness over scripted scenario streams.

A deterministic hash assigns a fraction of users to the *canary cohort*.
The harness then drives **two** engines — control config and treatment
config — with the *same* scripted stream and compares the cohort's
outcomes on each arm. This is a paired counterfactual, not a split
population: every canary user's deliveries exist on both engines, so
with identical configs the diff is exactly zero (the differential suite
pins that down), and with a genuinely different treatment the diff
isolates the config change rather than cohort sampling noise.

The control engine sees the full stream untouched, which gives the
second invariant the differential suite checks: a canary run's control
arm is byte-identical to a plain no-canary run.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.errors import ConfigError
from repro.scenarios.driver import ScenarioDriver, ScenarioTotals
from repro.util.timers import LatencyRecorder

if TYPE_CHECKING:
    from repro.cluster.router import Router
    from repro.datagen.workload import Workload


def _splitmix64(value: int) -> int:
    """SplitMix64 finalizer — a strong, dependency-free 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def canary_arm(user_id: int, *, fraction: float, seed: int = 0) -> str:
    """Deterministically assign one user to ``"treatment"`` or
    ``"control"``. Stable across processes, Python versions and call
    order — the property the differential suite depends on."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"canary fraction must be in [0, 1], got {fraction}")
    bucket = _splitmix64(user_id * 0x1000193 ^ _splitmix64(seed)) % 1_000_000
    return "treatment" if bucket < fraction * 1_000_000 else "control"


def split_users(
    user_ids, *, fraction: float, seed: int = 0
) -> tuple[frozenset[int], frozenset[int]]:
    """Partition user ids into (control, treatment) cohorts."""
    everyone = frozenset(user_ids)
    treatment = frozenset(
        user_id
        for user_id in everyone
        if canary_arm(user_id, fraction=fraction, seed=seed) == "treatment"
    )
    return everyone - treatment, treatment


@dataclass
class ArmMetrics:
    """The canary cohort's outcomes on one engine arm."""

    deliveries: int = 0
    impressions: int = 0
    revenue: float = 0.0
    clicks: int = 0
    shed_posts: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "deliveries": self.deliveries,
            "impressions": self.impressions,
            "revenue": self.revenue,
            "clicks": self.clicks,
            "shed_posts": self.shed_posts,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


@dataclass
class CanaryReport:
    """The rollout verdict and everything behind it."""

    shards: int
    workers: int
    fraction: float
    seed: int
    cohort_size: int
    total_users: int
    control: ArmMetrics
    treatment: ArmMetrics
    control_totals: ScenarioTotals
    treatment_totals: ScenarioTotals
    max_revenue_drop: float
    max_p99_ratio: float | None
    reasons: list[str] = field(default_factory=list)

    @property
    def revenue_diff(self) -> float:
        return self.treatment.revenue - self.control.revenue

    @property
    def revenue_drop_fraction(self) -> float:
        if self.control.revenue <= 0.0:
            return 0.0
        return max(0.0, -self.revenue_diff) / self.control.revenue

    @property
    def p99_ratio(self) -> float | None:
        if self.control.p99_ms <= 0.0:
            return None
        return self.treatment.p99_ms / self.control.p99_ms

    @property
    def verdict(self) -> str:
        return "fail" if self.reasons else "pass"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "shards": self.shards,
            "workers": self.workers,
            "fraction": self.fraction,
            "seed": self.seed,
            "cohort_size": self.cohort_size,
            "total_users": self.total_users,
            "revenue_diff": self.revenue_diff,
            "revenue_drop_fraction": self.revenue_drop_fraction,
            "p99_ratio": self.p99_ratio,
            "max_revenue_drop": self.max_revenue_drop,
            "max_p99_ratio": self.max_p99_ratio,
            "control": self.control.to_dict(),
            "treatment": self.treatment.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_backend(
    workload: "Workload",
    config: EngineConfig,
    *,
    shards: int = 1,
    workers: int = 0,
    stack: ExitStack | None = None,
    **router_options,
) -> "Router":
    """The backend every driver drives: a cluster router.

    ``workers=N`` puts N shards in worker processes (``stack``, which
    reaps them, is then required); otherwise ``shards`` shard hosts live
    in this process — one by default, which *is* the single engine.
    ``router_options`` go to the router's constructor (``metrics``,
    ``qos``, ``request_tracer``, …); ``flight_path`` arms the crash
    dump, which only worker processes can need.
    """
    if workers:
        from repro.cluster.procpool import ProcessShardedEngine

        if stack is None:
            raise ConfigError("worker processes need an ExitStack to reap them")
        return stack.enter_context(
            ProcessShardedEngine(
                workload, workers, config=config, **router_options
            )
        )
    from repro.cluster.sharded import ShardedEngine

    router_options.pop("flight_path", None)
    return ShardedEngine(workload, shards, config=config, **router_options)


class _ArmObserver:
    """Accumulates the canary cohort's outcomes from driver hooks."""

    def __init__(self, cohort: frozenset[int]) -> None:
        self.cohort = cohort
        self.metrics = ArmMetrics()

    def on_result(self, msg_id: int, results) -> None:
        for part in results:
            if part.num_shed:
                self.metrics.shed_posts += 1
            for delivery in part.deliveries:
                if delivery.user_id in self.cohort:
                    self.metrics.deliveries += 1
                    self.metrics.impressions += len(delivery.slate)
                    self.metrics.revenue += delivery.revenue

    def on_click(self, user_id: int, ad_id: int, slot_index: int) -> None:
        if user_id in self.cohort:
            self.metrics.clicks += 1


def run_canary(
    workload: "Workload",
    events,
    *,
    control_config: EngineConfig,
    treatment_config: EngineConfig,
    fraction: float = 0.1,
    seed: int = 0,
    shards: int = 1,
    workers: int = 0,
    max_revenue_drop: float = 0.02,
    max_p99_ratio: float | None = None,
) -> CanaryReport:
    """Drive control and treatment engines with the same scripted stream
    and judge the treatment on the canary cohort's paired outcomes.

    ``max_revenue_drop`` fails the rollout when the cohort's revenue on
    the treatment arm falls more than that fraction below its revenue on
    the control arm. ``max_p99_ratio`` (opt-in: wall-clock is noisy)
    fails it when the treatment's post p99 exceeds the control's by more
    than that factor.
    """
    if fraction <= 0.0:
        raise ConfigError("canary fraction must be positive (no cohort)")
    events = list(events)
    if not events:
        raise ConfigError("cannot canary an empty event stream")
    # Attribution needs per-delivery outcomes on both arms.
    control_config = replace(control_config, collect_deliveries=True)
    treatment_config = replace(treatment_config, collect_deliveries=True)
    _, cohort = split_users(
        (user.user_id for user in workload.users), fraction=fraction, seed=seed
    )
    arms: dict[str, _ArmObserver] = {}
    totals: dict[str, ScenarioTotals] = {}
    latencies: dict[str, list[float]] = {}
    with ExitStack() as stack:
        for arm_name, config in (
            ("control", control_config),
            ("treatment", treatment_config),
        ):
            engine = build_backend(
                workload, config, shards=shards, workers=workers, stack=stack
            )
            observer = _ArmObserver(cohort)
            driver = ScenarioDriver(
                engine,
                workload,
                on_result=observer.on_result,
                on_click=observer.on_click,
            )
            totals[arm_name] = driver.run(events)
            latencies[arm_name] = driver.post_latencies
            arms[arm_name] = observer
    for arm_name, observer in arms.items():
        recorder = LatencyRecorder(samples=latencies[arm_name])
        observer.metrics.p50_ms = recorder.p50() * 1000.0
        observer.metrics.p99_ms = recorder.p99() * 1000.0
    report = CanaryReport(
        shards=shards,
        workers=workers,
        fraction=fraction,
        seed=seed,
        cohort_size=len(cohort),
        total_users=len(workload.users),
        control=arms["control"].metrics,
        treatment=arms["treatment"].metrics,
        control_totals=totals["control"],
        treatment_totals=totals["treatment"],
        max_revenue_drop=max_revenue_drop,
        max_p99_ratio=max_p99_ratio,
    )
    if not cohort:
        report.reasons.append(
            f"canary cohort is empty at fraction={fraction} over "
            f"{len(workload.users)} users — raise the fraction"
        )
    if report.revenue_drop_fraction > max_revenue_drop:
        report.reasons.append(
            f"treatment revenue dropped {report.revenue_drop_fraction:.2%} "
            f"on the canary cohort (limit {max_revenue_drop:.2%}): "
            f"{report.treatment.revenue:.4f} vs {report.control.revenue:.4f}"
        )
    ratio = report.p99_ratio
    if max_p99_ratio is not None and ratio is not None and ratio > max_p99_ratio:
        report.reasons.append(
            f"treatment post p99 is {ratio:.2f}x control "
            f"(limit {max_p99_ratio:.2f}x)"
        )
    return report

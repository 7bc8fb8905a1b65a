"""SLO specification and the interval health monitor.

Production feed-serving stacks watch two things live: are tail latencies
inside their targets, and is throughput holding the floor. This module
evaluates both against a :class:`~repro.obs.registry.MetricsRegistry`
each sampling interval and classifies the system OK / DEGRADED /
OVERLOADED:

* **DEGRADED** — some per-stage windowed p99 exceeds its target, or the
  delivery rate dipped under the floor, or shard busy-time skew (via
  :meth:`repro.cluster.router.Router.load_imbalance`) exceeds its
  bound — the system is serving but out of SLO.
* **OVERLOADED** — a *hard* breach: p99 beyond ``overload_factor`` times
  its target or the delivery rate under ``floor / overload_factor`` — the
  regime where a real deployment sheds load.

Transitions are damped with hysteresis (a grade must persist for
``hysteresis`` consecutive intervals before the reported state moves), so
one bursty interval cannot flap the state. Every *raw* interval grade
still feeds the error budget: with a compliance target of e.g. 95%, the
burn rate is ``(violating intervals / intervals) / (1 - target)`` — the
standard SRE construction, >1 meaning the budget is burning faster than
the SLO allows over the run.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry, RegistrySnapshot
from repro.obs.tracer import STAGES

__all__ = ["HealthMonitor", "HealthReport", "HealthState", "SloSpec"]


class HealthState(Enum):
    """Interval health verdict, ordered by severity."""

    OK = "ok"
    DEGRADED = "degraded"
    OVERLOADED = "overloaded"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]


_SEVERITY = {
    HealthState.OK: 0,
    HealthState.DEGRADED: 1,
    HealthState.OVERLOADED: 2,
}


@dataclass(frozen=True)
class SloSpec:
    """Service-level objectives for the delivery stream.

    ``stage_p99_ms`` maps stage names (``repro.obs.STAGES``) to windowed
    p99 latency targets in milliseconds; ``min_deliveries_per_s`` is the
    wall-clock throughput floor (0 disables it). ``compliance_target`` is
    the fraction of intervals that must grade OK for the error budget.
    """

    stage_p99_ms: Mapping[str, float] = field(default_factory=dict)
    min_deliveries_per_s: float = 0.0
    max_shard_skew: float | None = None
    compliance_target: float = 0.95
    overload_factor: float = 2.0

    def __post_init__(self) -> None:
        for stage, target in self.stage_p99_ms.items():
            # A window that never exists grades as "no traffic", so a
            # misspelt stage would pass every interval: refuse it here.
            # ``candidate[vector]``-style kind suffixes name real windows.
            if stage.partition("[")[0] not in STAGES:
                raise ConfigError(
                    f"unknown SLO stage {stage!r}; stages are {', '.join(STAGES)}"
                )
            if target <= 0.0:
                raise ConfigError(
                    f"p99 target for stage {stage!r} must be positive, got {target}"
                )
        if self.min_deliveries_per_s < 0.0:
            raise ConfigError(
                f"min_deliveries_per_s must be >= 0, got {self.min_deliveries_per_s}"
            )
        if self.max_shard_skew is not None and self.max_shard_skew < 1.0:
            raise ConfigError(
                f"max_shard_skew must be >= 1, got {self.max_shard_skew}"
            )
        if not 0.0 < self.compliance_target < 1.0:
            raise ConfigError(
                f"compliance_target must be in (0, 1), got {self.compliance_target}"
            )
        if self.overload_factor <= 1.0:
            raise ConfigError(
                f"overload_factor must be > 1, got {self.overload_factor}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed fraction of violating intervals (1 − compliance target)."""
        return 1.0 - self.compliance_target


@dataclass(frozen=True, slots=True)
class HealthReport:
    """One interval's evaluation: raw grade, damped state, and evidence."""

    at: float
    state: HealthState
    grade: HealthState
    breaches: tuple[str, ...]
    deliveries_per_s: float
    burn_rate: float
    shard_skew: float | None
    stage_p99_ms: Mapping[str, float]
    intervals: int
    violating_intervals: int

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "state": self.state.value,
            "grade": self.grade.value,
            "breaches": list(self.breaches),
            "deliveries_per_s": self.deliveries_per_s,
            "burn_rate": self.burn_rate,
            "shard_skew": self.shard_skew,
            "stage_p99_ms": dict(self.stage_p99_ms),
            "intervals": self.intervals,
            "violating_intervals": self.violating_intervals,
        }


class HealthMonitor:
    """Evaluates a registry against an :class:`SloSpec` each interval.

    ``registry`` may be a :class:`MetricsRegistry` or a zero-argument
    callable returning one — the latter is how the sharded router plugs
    in, whose cluster-wide view is merged fresh on every access
    (``monitor = HealthMonitor(lambda: sharded.metrics, slo)``).

    ``imbalance`` is an optional zero-argument callable returning the
    current shard skew (pass ``sharded.load_imbalance``); it is only
    consulted when the spec bounds it.

    ``on_breach`` is called with the freshly built :class:`HealthReport`
    whenever an interval's *raw* grade is not OK — raw, not damped,
    because the flight recorder wants the first bad interval, not the
    hysteresis-confirmed third. The callback must not raise.
    """

    def __init__(
        self,
        registry: MetricsRegistry | Callable[[], MetricsRegistry],
        slo: SloSpec,
        *,
        hysteresis: int = 2,
        imbalance: Callable[[], float] | None = None,
        on_breach: "Callable[[HealthReport], None] | None" = None,
    ) -> None:
        if hysteresis < 1:
            raise ConfigError(f"hysteresis must be >= 1, got {hysteresis}")
        self._registry = registry
        self._slo = slo
        self._hysteresis = hysteresis
        self._imbalance = imbalance
        self._on_breach = on_breach
        self._state = HealthState.OK
        self._pending_grade = HealthState.OK
        self._pending_streak = 0
        self._intervals = 0
        self._violations = 0
        self._prev_deliveries = 0.0
        self._prev_wall: float | None = None
        self._reports: list[HealthReport] = []

    # -- introspection -------------------------------------------------------

    @property
    def slo(self) -> SloSpec:
        return self._slo

    @property
    def state(self) -> HealthState:
        """The current damped (hysteresis-applied) state."""
        return self._state

    @property
    def reports(self) -> tuple[HealthReport, ...]:
        return tuple(self._reports)

    @property
    def intervals(self) -> int:
        return self._intervals

    @property
    def violating_intervals(self) -> int:
        return self._violations

    def compliance(self) -> float:
        """Fraction of intervals whose raw grade was OK (1.0 before any)."""
        if self._intervals == 0:
            return 1.0
        return 1.0 - self._violations / self._intervals

    def burn_rate(self) -> float:
        """Error-budget burn rate over the run so far (>1 = over budget)."""
        if self._intervals == 0:
            return 0.0
        return (self._violations / self._intervals) / self._slo.error_budget

    def verdict(self) -> HealthState:
        """The run's final verdict: OK only if the whole run stayed inside
        the error budget; the worst damped state reached otherwise."""
        worst = HealthState.OK
        for report in self._reports:
            if report.state.severity > worst.severity:
                worst = report.state
        if worst is HealthState.OK and self.burn_rate() > 1.0:
            return HealthState.DEGRADED
        return worst

    # -- evaluation ----------------------------------------------------------

    def _grade_interval(
        self,
        snapshot: RegistrySnapshot,
        deliveries_per_s: float,
        shard_skew: float | None,
        rate_known: bool,
    ) -> tuple[HealthState, tuple[str, ...], dict[str, float]]:
        slo = self._slo
        grade = HealthState.OK
        breaches: list[str] = []
        stage_p99: dict[str, float] = {}

        def escalate(to: HealthState, message: str) -> None:
            nonlocal grade
            breaches.append(message)
            if to.severity > grade.severity:
                grade = to

        for stage, target_ms in slo.stage_p99_ms.items():
            window = snapshot.windows.get("stage_" + stage)
            if window is None or window.count == 0:
                continue  # no traffic in the window — nothing to judge
            p99_ms = window.p99 * 1e3
            stage_p99[stage] = p99_ms
            if p99_ms > target_ms * slo.overload_factor:
                escalate(
                    HealthState.OVERLOADED,
                    f"stage {stage} p99 {p99_ms:.3f}ms > "
                    f"{slo.overload_factor:g}x target {target_ms:g}ms",
                )
            elif p99_ms > target_ms:
                escalate(
                    HealthState.DEGRADED,
                    f"stage {stage} p99 {p99_ms:.3f}ms > target {target_ms:g}ms",
                )
        if slo.min_deliveries_per_s > 0.0 and rate_known:
            floor = slo.min_deliveries_per_s
            if deliveries_per_s < floor / slo.overload_factor:
                escalate(
                    HealthState.OVERLOADED,
                    f"deliveries/s {deliveries_per_s:.1f} < "
                    f"floor/{slo.overload_factor:g} ({floor / slo.overload_factor:.1f})",
                )
            elif deliveries_per_s < floor:
                escalate(
                    HealthState.DEGRADED,
                    f"deliveries/s {deliveries_per_s:.1f} < floor {floor:g}",
                )
        if (
            slo.max_shard_skew is not None
            and shard_skew is not None
            and shard_skew > slo.max_shard_skew
        ):
            escalate(
                HealthState.DEGRADED,
                f"shard skew {shard_skew:.2f} > bound {slo.max_shard_skew:g}",
            )
        return grade, tuple(breaches), stage_p99

    def evaluate(
        self, now: float, *, wall_seconds: float | None = None
    ) -> HealthReport:
        """Grade one interval ending at stream time ``now``.

        ``wall_seconds`` is the wall-clock time elapsed since the previous
        evaluation (the sampling hook provides it); without it the monitor
        measures its own inter-call wall time, so rates stay meaningful in
        ad-hoc use.
        """
        registry = self._registry() if callable(self._registry) else self._registry
        snapshot = registry.snapshot(now)
        wall_now = time.perf_counter()
        if wall_seconds is None:
            wall_seconds = (
                wall_now - self._prev_wall if self._prev_wall is not None else 0.0
            )
        self._prev_wall = wall_now
        deliveries = snapshot.counters.get("deliveries", 0.0)
        delta = deliveries - self._prev_deliveries
        self._prev_deliveries = deliveries
        rate_known = wall_seconds > 0.0
        deliveries_per_s = delta / wall_seconds if rate_known else 0.0

        shard_skew: float | None = None
        if self._imbalance is not None:
            shard_skew = float(self._imbalance())

        grade, breaches, stage_p99 = self._grade_interval(
            snapshot, deliveries_per_s, shard_skew, rate_known
        )
        self._intervals += 1
        if grade is not HealthState.OK:
            self._violations += 1

        # Hysteresis: a grade becomes the reported state only after it has
        # held for `hysteresis` consecutive intervals.
        if grade is self._pending_grade:
            self._pending_streak += 1
        else:
            self._pending_grade = grade
            self._pending_streak = 1
        if (
            self._pending_grade is not self._state
            and self._pending_streak >= self._hysteresis
        ):
            self._state = self._pending_grade

        report = HealthReport(
            at=now,
            state=self._state,
            grade=grade,
            breaches=breaches,
            deliveries_per_s=deliveries_per_s,
            burn_rate=self.burn_rate(),
            shard_skew=shard_skew,
            stage_p99_ms=stage_p99,
            intervals=self._intervals,
            violating_intervals=self._violations,
        )
        self._reports.append(report)
        if self._on_breach is not None and grade is not HealthState.OK:
            self._on_breach(report)
        return report

    def summary(self) -> dict:
        """Run-level roll-up for tables and the timeseries sink."""
        return {
            "verdict": self.verdict().value,
            "intervals": self._intervals,
            "violating_intervals": self._violations,
            "compliance": self.compliance(),
            "compliance_target": self._slo.compliance_target,
            "burn_rate": self.burn_rate(),
        }

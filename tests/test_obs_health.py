"""Tests for the SLO spec and the hysteresis health monitor."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.obs.health import HealthMonitor, HealthState, SloSpec
from repro.core.services import EngineStats
from repro.obs.registry import MetricsRegistry, counted

WINDOW = 60.0


def registry_with_stage(p99_s: float, *, at: float, samples: int = 50):
    registry = MetricsRegistry(window_s=WINDOW)
    for _ in range(samples):
        registry.observe_stage("delivery", p99_s, at=at)
    return registry


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SloSpec(stage_p99_ms={"delivery": 0.0})
        with pytest.raises(ConfigError):
            SloSpec(min_deliveries_per_s=-1.0)
        with pytest.raises(ConfigError):
            SloSpec(max_shard_skew=0.5)
        with pytest.raises(ConfigError):
            SloSpec(compliance_target=1.0)
        with pytest.raises(ConfigError):
            SloSpec(overload_factor=1.0)

    def test_unknown_stage_is_rejected(self):
        # An absent window grades as "no traffic": a misspelt stage would
        # pass every interval instead of being judged.
        with pytest.raises(ConfigError, match="unknown SLO stage 'delivry'"):
            SloSpec(stage_p99_ms={"delivry": 0.0001})
        for stage in ("vectorize", "candidate[vector]", "personalize[linucb]"):
            assert SloSpec(stage_p99_ms={stage: 1.0}).stage_p99_ms == {stage: 1.0}

    def test_error_budget(self):
        assert SloSpec(compliance_target=0.95).error_budget == pytest.approx(0.05)


class TestGrading:
    def test_ok_when_inside_targets(self):
        registry = registry_with_stage(0.001, at=10.0)  # 1ms
        monitor = HealthMonitor(registry, SloSpec(stage_p99_ms={"delivery": 5.0}))
        report = monitor.evaluate(10.0, wall_seconds=1.0)
        assert report.grade is HealthState.OK
        assert report.breaches == ()
        assert report.stage_p99_ms["delivery"] == pytest.approx(1.0, rel=0.05)

    def test_degraded_on_soft_p99_breach(self):
        registry = registry_with_stage(0.008, at=10.0)  # 8ms vs 5ms target
        monitor = HealthMonitor(registry, SloSpec(stage_p99_ms={"delivery": 5.0}))
        report = monitor.evaluate(10.0, wall_seconds=1.0)
        assert report.grade is HealthState.DEGRADED
        assert any("p99" in breach for breach in report.breaches)

    def test_overloaded_on_hard_p99_breach(self):
        registry = registry_with_stage(0.020, at=10.0)  # 20ms > 2x 5ms
        monitor = HealthMonitor(registry, SloSpec(stage_p99_ms={"delivery": 5.0}))
        assert monitor.evaluate(10.0, wall_seconds=1.0).grade is HealthState.OVERLOADED

    def test_empty_window_is_not_judged(self):
        registry = registry_with_stage(0.050, at=10.0)
        monitor = HealthMonitor(registry, SloSpec(stage_p99_ms={"delivery": 1.0}))
        # Far in the future the window has drained: no samples, no verdict.
        report = monitor.evaluate(10.0 + 100 * WINDOW, wall_seconds=1.0)
        assert report.grade is HealthState.OK
        assert "delivery" not in report.stage_p99_ms

    def test_rate_floor(self):
        registry = MetricsRegistry(window_s=WINDOW)
        slo = SloSpec(min_deliveries_per_s=100.0)
        monitor = HealthMonitor(registry, slo, hysteresis=1)
        stats = EngineStats()
        registry.read_from(lambda: counted(stats))
        stats.deliveries += 80
        report = monitor.evaluate(1.0, wall_seconds=1.0)  # 80/s < 100/s
        assert report.grade is HealthState.DEGRADED
        stats.deliveries += 10
        report = monitor.evaluate(2.0, wall_seconds=1.0)  # 10/s < 100/2
        assert report.grade is HealthState.OVERLOADED
        assert report.deliveries_per_s == pytest.approx(10.0)

    def test_unknown_rate_is_not_judged(self):
        # wall_seconds=0 (or an unmeasured first call) → no rate verdict.
        registry = MetricsRegistry(window_s=WINDOW)
        monitor = HealthMonitor(registry, SloSpec(min_deliveries_per_s=100.0))
        assert monitor.evaluate(1.0, wall_seconds=0.0).grade is HealthState.OK

    def test_shard_skew_breach(self):
        registry = MetricsRegistry(window_s=WINDOW)
        monitor = HealthMonitor(
            registry,
            SloSpec(max_shard_skew=1.5),
            imbalance=lambda: 2.4,
        )
        report = monitor.evaluate(1.0, wall_seconds=1.0)
        assert report.grade is HealthState.DEGRADED
        assert report.shard_skew == pytest.approx(2.4)

    def test_callable_registry_resolved_each_evaluation(self):
        registries = [registry_with_stage(0.001, at=1.0), registry_with_stage(0.5, at=1.0)]
        monitor = HealthMonitor(
            lambda: registries.pop(0), SloSpec(stage_p99_ms={"delivery": 5.0})
        )
        assert monitor.evaluate(1.0, wall_seconds=1.0).grade is HealthState.OK
        assert monitor.evaluate(1.0, wall_seconds=1.0).grade is HealthState.OVERLOADED


class TestHysteresisAndBudget:
    def test_state_moves_only_after_streak(self):
        breach = HealthMonitor(
            registry_with_stage(0.050, at=1.0),
            SloSpec(stage_p99_ms={"delivery": 1.0}, overload_factor=1000.0),
            hysteresis=2,
        )
        first = breach.evaluate(1.0, wall_seconds=1.0)
        assert first.grade is HealthState.DEGRADED
        assert first.state is HealthState.OK  # one bad interval cannot flap
        second = breach.evaluate(2.0, wall_seconds=1.0)
        assert second.state is HealthState.DEGRADED  # streak reached

    def test_flapping_grade_never_moves_state(self):
        good = registry_with_stage(0.0001, at=1.0)
        bad = registry_with_stage(0.050, at=1.0)
        sequence = [bad, good, bad, good, bad, good]
        monitor = HealthMonitor(
            lambda: sequence.pop(0),
            SloSpec(stage_p99_ms={"delivery": 1.0}, overload_factor=1000.0),
            hysteresis=2,
        )
        states = [
            monitor.evaluate(float(i), wall_seconds=1.0).state for i in range(6)
        ]
        assert all(state is HealthState.OK for state in states)
        # ...but every raw violation still burned budget:
        assert monitor.violating_intervals == 3
        assert monitor.compliance() == pytest.approx(0.5)

    def test_burn_rate_and_verdict(self):
        bad = registry_with_stage(0.050, at=1.0)
        monitor = HealthMonitor(
            bad,
            SloSpec(stage_p99_ms={"delivery": 1.0}, overload_factor=1000.0),
            hysteresis=100,  # state never moves — verdict must still degrade
        )
        for i in range(10):
            monitor.evaluate(float(i), wall_seconds=1.0)
        # 10/10 violating with a 5% budget → burn rate 20x.
        assert monitor.burn_rate() == pytest.approx(20.0)
        assert monitor.verdict() is HealthState.DEGRADED
        summary = monitor.summary()
        assert summary["verdict"] == "degraded"
        assert summary["violating_intervals"] == 10

    def test_verdict_ok_run(self):
        monitor = HealthMonitor(
            registry_with_stage(0.0001, at=1.0),
            SloSpec(stage_p99_ms={"delivery": 5.0}),
        )
        for i in range(5):
            monitor.evaluate(float(i), wall_seconds=1.0)
        assert monitor.verdict() is HealthState.OK
        assert monitor.compliance() == 1.0
        assert monitor.burn_rate() == 0.0

    def test_invalid_hysteresis(self):
        with pytest.raises(ConfigError):
            HealthMonitor(MetricsRegistry(), SloSpec(), hysteresis=0)

    def test_report_round_trips_to_dict(self):
        monitor = HealthMonitor(
            registry_with_stage(0.001, at=1.0), SloSpec(stage_p99_ms={"delivery": 5.0})
        )
        payload = monitor.evaluate(1.0, wall_seconds=1.0).to_dict()
        assert payload["state"] == "ok"
        assert payload["intervals"] == 1
        assert isinstance(payload["stage_p99_ms"], dict)


class TestBreachHook:
    def test_on_breach_fires_on_raw_grade_not_damped_state(self):
        """The flight recorder wants the *first* bad interval: the hook
        must fire even while hysteresis still reports OK."""
        fired: list = []
        monitor = HealthMonitor(
            registry_with_stage(0.050, at=1.0),
            SloSpec(stage_p99_ms={"delivery": 1.0}, overload_factor=1000.0),
            hysteresis=3,
            on_breach=fired.append,
        )
        report = monitor.evaluate(1.0, wall_seconds=1.0)
        assert monitor.state is HealthState.OK, "hysteresis still damping"
        assert fired == [report]
        assert fired[0].grade is not HealthState.OK

    def test_on_breach_silent_while_healthy(self):
        fired: list = []
        monitor = HealthMonitor(
            registry_with_stage(0.0001, at=1.0),
            SloSpec(stage_p99_ms={"delivery": 5.0}),
            on_breach=fired.append,
        )
        for i in range(3):
            monitor.evaluate(float(i), wall_seconds=1.0)
        assert fired == []

"""The closed-loop QoS controller: health grades in, ladder steps out.

:class:`QosController` is the piece the pipeline consults on every
delivery batch and the sampling hook feeds every interval. It combines

* a :class:`~repro.qos.degrade.DegradationLadder` stepped by interval
  health grades with its own hysteresis (``degrade_after`` consecutive
  OVERLOADED intervals to step down, ``recover_after`` consecutive OK
  intervals to step back up — DEGRADED holds position and resets the
  recovery streak);
* an optional :class:`~repro.qos.admission.AdmissionController` in front
  of the fan-out, whose shed decisions are additionally tightened by the
  current rung's ``shed_fraction``.

The controller is deliberately passive between intervals: the data
plane only *reads* the current rung, so attaching a controller that
never observes a grade (or whose ladder never moves) leaves delivery
results byte-identical to an uncontrolled engine.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs.health import HealthState
from repro.qos.admission import AdmissionController, AdmissionDecision
from repro.qos.degrade import DegradationLadder, Rung

__all__ = ["QosController"]


class QosController:
    """Steps a degradation ladder from health grades; gates admission."""

    def __init__(
        self,
        *,
        ladder: DegradationLadder | None = None,
        admission: AdmissionController | None = None,
        degrade_after: int = 1,
        recover_after: int = 2,
        default_value: float = 0.0,
    ) -> None:
        if degrade_after < 1:
            raise ConfigError(f"degrade_after must be >= 1, got {degrade_after}")
        if recover_after < 1:
            raise ConfigError(f"recover_after must be >= 1, got {recover_after}")
        if default_value < 0.0:
            raise ConfigError(
                f"default_value must be >= 0, got {default_value}"
            )
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self.admission = admission
        self._degrade_after = degrade_after
        self._recover_after = recover_after
        self._default_value = default_value
        self._over_streak = 0
        self._ok_streak = 0
        self.intervals = 0

    # -- what the data plane reads -------------------------------------------

    @property
    def rung(self) -> Rung:
        return self.ladder.rung

    @property
    def rung_index(self) -> int:
        return self.ladder.index

    @property
    def degrading(self) -> bool:
        """Whether the current rung loses fidelity."""
        return self.ladder.degraded

    @property
    def active(self) -> bool:
        """Whether the pipeline must consult QoS on this batch at all."""
        return self.admission is not None or self.ladder.degraded

    def slate_k(self, base_k: int) -> int:
        return max(1, int(base_k * self.rung.k_scale))

    @property
    def candidates_only(self) -> bool:
        return self.rung.candidates_only

    def delivery_value(self, value_bound: float) -> float:
        """The per-delivery value admission should use (the configured
        default when the candidate-derived bound is unavailable)."""
        return value_bound if value_bound > 0.0 else self._default_value

    def admit(
        self, now: float, count: int, value_per_delivery: float
    ) -> AdmissionDecision:
        """Admission for one batch: the token bucket first, then the
        rung's shed fraction on whatever the bucket admitted."""
        if self.admission is not None:
            decision = self.admission.admit(now, count, value_per_delivery)
        else:
            decision = AdmissionDecision(
                attempted=count,
                admitted=count,
                shed=0,
                value_per_delivery=value_per_delivery,
            )
        fraction = self.rung.shed_fraction
        if fraction > 0.0 and decision.admitted > 0:
            keep = max(1, int(decision.admitted * (1.0 - fraction)))
            extra = decision.admitted - keep
            if extra > 0:
                if self.admission is not None:
                    self.admission.shed_admitted(extra, value_per_delivery)
                decision = AdmissionDecision(
                    attempted=decision.attempted,
                    admitted=keep,
                    shed=decision.shed + extra,
                    value_per_delivery=value_per_delivery,
                )
        return decision

    # -- what the control loop feeds -----------------------------------------

    def observe(self, grade: HealthState) -> int:
        """Consume one interval's raw health grade; returns the ladder
        movement this interval (-1 recovered, 0 held, +1 degraded)."""
        self.intervals += 1
        if grade is HealthState.OVERLOADED:
            self._ok_streak = 0
            self._over_streak += 1
            if self._over_streak >= self._degrade_after:
                self._over_streak = 0
                if self.ladder.degrade():
                    return 1
            return 0
        self._over_streak = 0
        if grade is HealthState.OK:
            self._ok_streak += 1
            if self._ok_streak >= self._recover_after:
                self._ok_streak = 0
                if self.ladder.recover():
                    return -1
            return 0
        # DEGRADED: hold position, restart the recovery streak.
        self._ok_streak = 0
        return 0

    def summary(self) -> dict:
        """Run-level roll-up for tables and the CLI."""
        admission = self.admission
        return {
            "rung": self.ladder.index,
            "rung_name": self.rung.name,
            "floor": self.ladder.floor,
            "intervals": self.intervals,
            "degrade_steps": self.ladder.degrade_steps,
            "recover_steps": self.ladder.recover_steps,
            "attempted": admission.attempted if admission else 0,
            "admitted": admission.admitted if admission else 0,
            "shed": admission.shed if admission else 0,
            "revenue_shed_upper_bound": (
                admission.revenue_shed_upper_bound if admission else 0.0
            ),
        }

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "ladder": self.ladder.state_dict(),
            "admission": (
                self.admission.state_dict() if self.admission is not None else None
            ),
            "over_streak": self._over_streak,
            "ok_streak": self._ok_streak,
            "intervals": self.intervals,
        }

    def load_state(self, state: dict) -> None:
        self.ladder.load_state(state["ladder"])
        if state["admission"] is not None:
            if self.admission is None:
                raise ConfigError(
                    "checkpoint carries admission state but this controller "
                    "has no admission controller"
                )
            self.admission.load_state(state["admission"])
        self._over_streak = int(state["over_streak"])
        self._ok_streak = int(state["ok_streak"])
        self.intervals = int(state["intervals"])

"""Ladder and controller tests, including a hypothesis state machine.

The machine drives a :class:`QosController` with arbitrary grade
sequences and checks the control-plane invariants after every step:
at most one rung of movement per interval, the floor is never crossed,
sustained OK always climbs back to rung 0, and the full controller
state round-trips through ``state_dict``/``load_state``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.errors import ConfigError
from repro.obs.health import HealthState
from repro.qos.degrade import DEFAULT_LADDER, DegradationLadder, Rung
from repro.qos.controller import QosController


class TestRung:
    def test_rung_zero_of_default_ladder_is_full_fidelity(self):
        assert not DEFAULT_LADDER[0].degraded
        assert all(rung.degraded for rung in DEFAULT_LADDER[1:])

    def test_default_ladder_monotonically_loses_fidelity(self):
        for shallower, deeper in zip(DEFAULT_LADDER, DEFAULT_LADDER[1:]):
            assert deeper.k_scale <= shallower.k_scale
            assert deeper.candidates_only or not shallower.candidates_only
            assert deeper.shed_fraction >= shallower.shed_fraction

    def test_validation(self):
        with pytest.raises(ConfigError):
            Rung("bad", k_scale=0.0)
        with pytest.raises(ConfigError):
            Rung("bad", k_scale=1.5)
        with pytest.raises(ConfigError):
            Rung("bad", shed_fraction=1.0)


class TestLadder:
    def test_moves_one_rung_at_a_time(self):
        ladder = DegradationLadder()
        assert ladder.index == 0
        assert not ladder.recover()  # already at full fidelity
        assert ladder.degrade()
        assert ladder.index == 1
        assert ladder.recover()
        assert ladder.index == 0

    def test_floor_is_respected(self):
        ladder = DegradationLadder(floor=2)
        assert ladder.degrade() and ladder.degrade()
        assert ladder.at_floor
        assert not ladder.degrade()
        assert ladder.index == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            DegradationLadder(())
        with pytest.raises(ConfigError):
            DegradationLadder((Rung("deep", k_scale=0.5),))  # rung 0 degraded
        with pytest.raises(ConfigError):
            DegradationLadder(floor=len(DEFAULT_LADDER))

    @pytest.mark.parametrize("index", range(len(DEFAULT_LADDER)))
    def test_every_rung_round_trips(self, index):
        ladder = DegradationLadder()
        for _ in range(index):
            ladder.degrade()
        state = ladder.state_dict()
        assert state["rung"] == DEFAULT_LADDER[index].name
        restored = DegradationLadder()
        restored.load_state(state)
        assert restored.rung == ladder.rung
        assert restored.state_dict() == state

    def test_checkpoint_without_a_rung_name_restores_only_at_rung_zero(self):
        """A state recorded before rungs were named: index 1 was the
        since-removed ``overfetch-half``, and must not come back as
        whatever rung 1 is now."""
        parent_shaped = {"index": 1, "degrade_steps": 1, "recover_steps": 0}
        with pytest.raises(ConfigError, match="carries no name"):
            DegradationLadder().load_state(parent_shaped)
        ladder = DegradationLadder()
        ladder.load_state({"index": 0, "degrade_steps": 1, "recover_steps": 1})
        assert ladder.index == 0

    def test_checkpoint_rejects_a_rung_name_that_does_not_match(self):
        state = {
            "index": 1,
            "rung": "overfetch-half",
            "degrade_steps": 1,
            "recover_steps": 0,
        }
        with pytest.raises(ConfigError, match="'slate-half'"):
            DegradationLadder().load_state(state)

    def test_checkpoint_rejects_index_beyond_floor(self):
        deep = DegradationLadder()
        deep.degrade()
        deep.degrade()
        deep.degrade()
        shallow = DegradationLadder(floor=1)
        with pytest.raises(ConfigError):
            shallow.load_state(deep.state_dict())


class TestControllerHysteresis:
    def test_degrade_after_consecutive_overloads(self):
        controller = QosController(degrade_after=2, recover_after=2)
        assert controller.observe(HealthState.OVERLOADED) == 0
        assert controller.observe(HealthState.OVERLOADED) == 1
        assert controller.rung_index == 1

    def test_degraded_holds_and_resets_recovery_streak(self):
        controller = QosController(degrade_after=1, recover_after=2)
        controller.observe(HealthState.OVERLOADED)
        assert controller.rung_index == 1
        assert controller.observe(HealthState.OK) == 0
        assert controller.observe(HealthState.DEGRADED) == 0  # streak resets
        assert controller.observe(HealthState.OK) == 0
        assert controller.rung_index == 1
        assert controller.observe(HealthState.OK) == -1
        assert controller.rung_index == 0

    def test_slate_k_floors(self):
        controller = QosController(degrade_after=1)
        for _ in range(4):
            controller.observe(HealthState.OVERLOADED)
        # the deepest rung: k 0.5, never below one ad
        assert controller.slate_k(10) == 5
        assert controller.slate_k(1) == 1


GRADES = st.sampled_from(list(HealthState))


class QosControlPlaneMachine(RuleBasedStateMachine):
    """Random grade sequences against the one-step/floor/recovery rules."""

    @initialize(
        floor=st.integers(min_value=0, max_value=len(DEFAULT_LADDER) - 1),
        degrade_after=st.integers(min_value=1, max_value=3),
        recover_after=st.integers(min_value=1, max_value=3),
    )
    def setup(self, floor, degrade_after, recover_after):
        self.controller = QosController(
            ladder=DegradationLadder(floor=floor),
            degrade_after=degrade_after,
            recover_after=recover_after,
        )
        self.floor = floor
        self.recover_after = recover_after

    @rule(grade=GRADES)
    def observe_one_interval(self, grade):
        before = self.controller.rung_index
        moved = self.controller.observe(grade)
        after = self.controller.rung_index
        # one step per interval, and the report matches the movement
        assert after - before == moved
        assert moved in (-1, 0, 1)

    @rule(n=st.integers(min_value=1, max_value=4))
    def sustained_ok_recovers_to_rung_zero(self, n):
        # recover_after consecutive OKs per rung climbs all the way back.
        for _ in range(self.controller.rung_index * self.recover_after + n):
            self.controller.observe(HealthState.OK)
        assert self.controller.rung_index == 0

    @rule()
    def state_round_trips(self):
        clone = QosController(
            ladder=DegradationLadder(floor=self.floor),
            degrade_after=self.controller._degrade_after,
            recover_after=self.recover_after,
        )
        clone.load_state(self.controller.state_dict())
        assert clone.state_dict() == self.controller.state_dict()
        assert clone.rung_index == self.controller.rung_index
        # the clone keeps stepping identically
        for grade in (HealthState.OVERLOADED, HealthState.OK, HealthState.OK):
            assert clone.observe(grade) == self.controller.observe(grade)

    @invariant()
    def never_below_floor_never_above_full(self):
        if not hasattr(self, "controller"):
            return
        assert 0 <= self.controller.rung_index <= self.floor

    @invariant()
    def rung_zero_is_never_degrading(self):
        if not hasattr(self, "controller"):
            return
        if self.controller.rung_index == 0:
            assert not self.controller.degrading


QosControlPlaneMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestQosControlPlane = QosControlPlaneMachine.TestCase


class TestControllerCheckpointGuards:
    def test_admission_state_needs_admission_controller(self):
        from repro.qos.admission import AdmissionController

        with_admission = QosController(
            admission=AdmissionController(rate_per_s=10.0)
        )
        with_admission.admission.admit(0.0, 5, 1.0)
        bare = QosController()
        with pytest.raises(ConfigError):
            bare.load_state(with_admission.state_dict())

"""Differential tests for the canary A/B rollout harness.

Two invariants make the canary trustworthy:

* the user->arm hash is a pure deterministic function (same seed, same
  partition — across processes, call order and fractions), and
* the harness itself is observationally free: a canary run's control arm
  is byte-identical to a plain no-canary run of the same stream, and an
  A/A canary (identical configs) reports an *exactly* zero revenue diff
  — on every backend, mode and charging cell of
  ``tests/test_conformance.py``.

What stays here: the split's properties, the regression gate, and the
cohort's attribution.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.errors import ConfigError
from repro.scenarios import (
    build_scenario_stream,
    canary_arm,
    run_canary,
    split_users,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

CONFIG = EngineConfig(pacing_enabled=False, collect_deliveries=True)


@pytest.fixture(scope="module")
def stream(request):
    tiny_workload = request.getfixturevalue("tiny_workload")
    return build_scenario_stream(
        tiny_workload,
        ["flash-crowd", "click-flood"],
        seed=5,
        limit_posts=25,
    )


@settings(max_examples=50, deadline=None)
@given(
    user_id=st.integers(min_value=0, max_value=2**32),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_arm_assignment_is_a_pure_function(user_id, seed, fraction):
    first = canary_arm(user_id, fraction=fraction, seed=seed)
    assert canary_arm(user_id, fraction=fraction, seed=seed) == first
    assert first in ("control", "treatment")
    # Edges behave: nobody at 0, everybody at 1.
    assert canary_arm(user_id, fraction=0.0, seed=seed) == "control"
    assert canary_arm(user_id, fraction=1.0, seed=seed) == "treatment"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    low=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    high=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_cohorts_grow_monotonically_with_fraction(seed, low, high):
    """Raising the rollout fraction only *adds* users to the cohort —
    the property that makes a staged rollout meaningful."""
    if low > high:
        low, high = high, low
    users = range(200)
    _, small = split_users(users, fraction=low, seed=seed)
    _, large = split_users(users, fraction=high, seed=seed)
    assert small <= large


def test_split_is_deterministic_and_ordering_free():
    users = list(range(500))
    control, treatment = split_users(users, fraction=0.2, seed=9)
    again_control, again_treatment = split_users(
        reversed(users), fraction=0.2, seed=9
    )
    assert (control, treatment) == (again_control, again_treatment)
    assert control | treatment == set(users)
    assert not control & treatment
    # A different salt rotates the cohort.
    _, rotated = split_users(users, fraction=0.2, seed=10)
    assert rotated != treatment


def test_fraction_is_validated():
    with pytest.raises(ConfigError, match="fraction"):
        canary_arm(1, fraction=1.5)


class TestCanaryDifferential:
    def test_a_real_regression_fails_the_rollout(self, tiny_workload, stream):
        """A treatment that stops charging impressions zeroes the
        cohort's revenue — the gate must catch it."""
        from dataclasses import replace

        report = run_canary(
            tiny_workload,
            stream.events,
            control_config=CONFIG,
            treatment_config=replace(CONFIG, charge_impressions=False),
            fraction=0.25,
            seed=7,
        )
        assert report.verdict == "fail"
        assert report.revenue_drop_fraction > 0.02
        assert any("revenue dropped" in reason for reason in report.reasons)

    def test_cohort_metrics_are_attributed_to_cohort_users_only(
        self, tiny_workload, stream
    ):
        """The cohort's deliveries are a strict subset of the run's."""
        report = run_canary(
            tiny_workload,
            stream.events,
            control_config=CONFIG,
            treatment_config=CONFIG,
            fraction=0.25,
            seed=7,
        )
        assert 0 < report.cohort_size < report.total_users
        assert 0 < report.control.deliveries < report.control_totals.deliveries
        assert report.control.revenue < report.control_totals.revenue

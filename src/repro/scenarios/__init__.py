"""Adversarial workload scenarios, record/replay traces and the canary
A/B rollout harness."""

from repro.scenarios.base import (
    SCENARIO_AD_BASE,
    SCENARIO_AD_BLOCK,
    SCENARIO_MSG_BASE,
    SCENARIO_MSG_BLOCK,
    TRACE_VERSION,
    ScenarioContext,
    ScenarioEvent,
    ScenarioStream,
    ScriptedCheckin,
    ScriptedClick,
    ScriptedEnd,
    ScriptedLaunch,
    ScriptedPost,
    build_scenario_stream,
    check_stream,
    merge_events,
    workload_fingerprint,
)
from repro.scenarios.canary import (
    ArmMetrics,
    CanaryReport,
    build_backend,
    canary_arm,
    run_canary,
    split_users,
)
from repro.scenarios.driver import ScenarioDriver, ScenarioTotals
from repro.scenarios.generators import SCENARIO_NAMES, SCENARIOS
from repro.scenarios.trace import read_trace, render_trace, write_trace

__all__ = [
    "ArmMetrics",
    "CanaryReport",
    "SCENARIOS",
    "SCENARIO_AD_BASE",
    "SCENARIO_AD_BLOCK",
    "SCENARIO_MSG_BASE",
    "SCENARIO_MSG_BLOCK",
    "SCENARIO_NAMES",
    "ScenarioContext",
    "ScenarioDriver",
    "ScenarioEvent",
    "ScenarioStream",
    "ScenarioTotals",
    "ScriptedCheckin",
    "ScriptedClick",
    "ScriptedEnd",
    "ScriptedLaunch",
    "ScriptedPost",
    "TRACE_VERSION",
    "build_backend",
    "build_scenario_stream",
    "canary_arm",
    "check_stream",
    "merge_events",
    "read_trace",
    "render_trace",
    "run_canary",
    "split_users",
    "workload_fingerprint",
    "write_trace",
]

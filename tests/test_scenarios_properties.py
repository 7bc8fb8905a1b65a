"""Hypothesis property tests for the adversarial scenario suite.

Three invariants the record/replay story stands on:

* every composed stream is time-monotone with unique scripted ids,
* composition is a pure function of ``(workload, names, seed)``, and
* ``record -> replay`` round-trips byte-identically.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, StreamError, TraceError
from repro.scenarios import (
    SCENARIO_NAMES,
    ScenarioStream,
    ScriptedLaunch,
    ScriptedPost,
    build_scenario_stream,
    check_stream,
    read_trace,
    render_trace,
    write_trace,
)

scenario_subsets = st.lists(
    st.sampled_from(SCENARIO_NAMES), unique=True, max_size=len(SCENARIO_NAMES)
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: One workload per session (the fixture is session-scoped), many
#: hypothesis examples over it — suppress the fixture health check.
relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@relaxed
@given(names=scenario_subsets, seed=seeds)
def test_streams_are_monotone_with_unique_ids(tiny_workload, names, seed):
    stream = build_scenario_stream(tiny_workload, names, seed=seed)
    timestamps = [event.timestamp for event in stream.events]
    assert timestamps == sorted(timestamps)
    msg_ids = [
        event.msg_id
        for event in stream.events
        if isinstance(event, ScriptedPost)
    ]
    assert len(msg_ids) == len(set(msg_ids))
    launch_ids = [
        event.ad_id
        for event in stream.events
        if isinstance(event, ScriptedLaunch)
    ]
    assert len(launch_ids) == len(set(launch_ids))
    # The structural checker agrees (it raises on violation).
    check_stream(stream.events)


@relaxed
@given(names=scenario_subsets, seed=seeds)
def test_composition_is_seed_deterministic(tiny_workload, names, seed):
    first = build_scenario_stream(tiny_workload, names, seed=seed)
    second = build_scenario_stream(tiny_workload, names, seed=seed)
    assert first.events == second.events
    assert render_trace(first) == render_trace(second)


@relaxed
@given(names=scenario_subsets, seed=seeds)
def test_record_replay_round_trips_byte_identically(
    tiny_workload, tmp_path_factory, names, seed
):
    stream = build_scenario_stream(
        tiny_workload, names, seed=seed, limit_posts=30
    )
    path = tmp_path_factory.mktemp("traces") / "stream.jsonl"
    write_trace(path, stream)
    loaded = read_trace(path)
    assert loaded == stream
    assert render_trace(loaded) == render_trace(stream)
    # Re-recording the loaded stream reproduces the original bytes.
    second = tmp_path_factory.mktemp("traces") / "again.jsonl"
    write_trace(second, loaded)
    assert second.read_bytes() == path.read_bytes()


def test_different_seeds_move_the_generators(tiny_workload):
    one = build_scenario_stream(tiny_workload, SCENARIO_NAMES, seed=1)
    two = build_scenario_stream(tiny_workload, SCENARIO_NAMES, seed=2)
    assert one.events != two.events


def test_unknown_scenario_is_rejected(tiny_workload):
    with pytest.raises(ConfigError, match="unknown scenario"):
        build_scenario_stream(tiny_workload, ["flash-crowd", "nope"])


def test_zero_base_posts_is_rejected(tiny_workload):
    with pytest.raises(ConfigError, match="limit_posts must be >= 1, got 0"):
        build_scenario_stream(tiny_workload, [], limit_posts=0)
    with pytest.raises(ConfigError, match="zero base posts"):
        build_scenario_stream(SimpleNamespace(posts=[]), [])


def test_negative_limit_is_rejected_not_sliced(tiny_workload):
    """``posts[:-5]`` would silently drop the tail; a limit counts posts."""
    with pytest.raises(ConfigError, match="limit_posts must be >= 1, got -5"):
        build_scenario_stream(tiny_workload, [], limit_posts=-5)


def test_check_stream_rejects_time_travel():
    events = (
        ScriptedPost(10.0, 1, 0, "a"),
        ScriptedPost(5.0, 2, 0, "b"),
    )
    with pytest.raises(StreamError, match="monotone"):
        check_stream(events)


def test_check_stream_rejects_duplicate_msg_ids():
    events = (
        ScriptedPost(1.0, 7, 0, "a"),
        ScriptedPost(2.0, 7, 0, "b"),
    )
    with pytest.raises(StreamError, match="duplicate scripted msg_id"):
        check_stream(events)


class TestTraceErrors:
    def _stream(self, tiny_workload) -> ScenarioStream:
        return build_scenario_stream(
            tiny_workload, ["flash-crowd"], seed=9, limit_posts=10
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="no trace file"):
            read_trace(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceError, match="empty trace"):
            read_trace(path)

    def test_header_must_come_first(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text(
            '{"record":"event","kind":"end","t":1.0,"ad":5}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceError, match="first line must be the trace header"):
            read_trace(path)

    def test_version_mismatch(self, tiny_workload, tmp_path):
        path = tmp_path / "old.jsonl"
        write_trace(path, self._stream(tiny_workload))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = 999
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceError, match="unsupported trace version"):
            read_trace(path)

    def test_truncation_is_detected(self, tiny_workload, tmp_path):
        path = tmp_path / "cut.jsonl"
        write_trace(path, self._stream(tiny_workload))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)

    def test_garbage_line(self, tiny_workload, tmp_path):
        path = tmp_path / "garbage.jsonl"
        write_trace(path, self._stream(tiny_workload))
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(TraceError, match="not valid JSON"):
            read_trace(path)

    def test_unknown_event_kind(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text(
            '{"record":"header","version":1,"seed":0,"scenarios":[],'
            '"workload":{},"events":1}\n'
            '{"record":"event","kind":"teleport","t":1.0}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceError, match="unknown trace event kind"):
            read_trace(path)

"""The one stream loop: ``ScenarioDriver``'s books, batching and tick rule,
driven against a recording test double."""

from __future__ import annotations

import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.engine import PostResult
from repro.errors import ConfigError
from repro.geo.point import GeoPoint
from repro.stream.events import Checkin
from repro.scenarios import ScenarioDriver, ScriptedCheckin, ScriptedPost, merge_events
from tests.conftest import workload_events


class RecordingEngine:
    """Speaks the driver's engine surface and logs every call. Each post
    delivers to two followers with four impressions and earns 1.5."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float]] = []
        self.batches: list[int] = []

    def post(self, author_id, text, timestamp):
        self.events.append(("post", timestamp))
        return PostResult(
            msg_id=0,
            author_id=author_id,
            timestamp=timestamp,
            num_deliveries=2,
            num_impressions=4,
            revenue=1.5,
            deliveries=(),
        )

    def post_batch(self, posts):
        self.batches.append(len(posts))
        return [self.post(p.author_id, p.text, p.timestamp) for p in posts]

    def checkin(self, user_id, point, timestamp):
        self.events.append(("checkin", timestamp))


def posts_at(*timestamps: float) -> list[ScriptedPost]:
    return [
        ScriptedPost(timestamp, msg_id, msg_id, "x")
        for msg_id, timestamp in enumerate(timestamps)
    ]


def driver_for(engine: RecordingEngine, *, batch_size: int = 1) -> ScenarioDriver:
    return ScenarioDriver(engine, SimpleNamespace(ads=[]), batch_size=batch_size)


class TestOneStreamLoop:
    def test_books_and_one_latency_per_post(self):
        engine = RecordingEngine()
        driver = driver_for(engine)
        totals = driver.run(posts_at(1.0, 5.0))
        assert (totals.posts, totals.deliveries, totals.impressions) == (2, 4, 8)
        assert totals.revenue == 3.0
        assert totals.wall_seconds > 0.0
        assert len(driver.post_latencies) == 2

    def test_checkin_merged_ahead_lands_before_a_post_at_its_time(self):
        engine = RecordingEngine()
        checkin = ScriptedCheckin(5.0, 0, 0.0, 0.0)
        driver_for(engine).run(merge_events([checkin], posts_at(1.0, 5.0)))
        assert engine.events == [("post", 1.0), ("checkin", 5.0), ("post", 5.0)]

    def test_workload_events_put_checkins_ahead_at_equal_time(self, tiny_workload):
        at = tiny_workload.posts[3].timestamp
        tied = replace(
            tiny_workload,
            checkins=[*tiny_workload.checkins, Checkin(0, GeoPoint(1.0, 2.0), at)],
        )
        events = workload_events(tied)
        kinds = [type(event) for event in events]
        assert kinds.count(ScriptedPost) == len(tied.posts)
        assert kinds.count(ScriptedCheckin) == len(tied.checkins)
        assert [e.timestamp for e in events] == sorted(e.timestamp for e in events)
        at_tie = [type(event) for event in events if event.timestamp == at]
        assert at_tie == [ScriptedCheckin, ScriptedPost]

    def test_batches_chunk_consecutive_posts(self):
        engine = RecordingEngine()
        driver = driver_for(engine, batch_size=2)
        totals = driver.run(posts_at(0.0, 1.0, 2.0, 3.0, 4.0))
        assert engine.batches == [2, 2, 1]
        assert (totals.posts, totals.deliveries) == (5, 10)
        assert len(driver.post_latencies) == 3  # one sample per dispatch

    def test_non_post_event_flushes_the_waiting_batch(self):
        """A check-in is a barrier: posts before it are delivered before the
        location moves, exactly as in the unbatched replay."""
        engine = RecordingEngine()
        checkin = ScriptedCheckin(2.5, 0, 0.0, 0.0)
        events = merge_events([checkin], posts_at(0.0, 1.0, 2.0, 3.0, 4.0))
        driver_for(engine, batch_size=4).run(events)
        assert engine.batches == [3, 2]
        assert engine.events.index(("checkin", 2.5)) == 3

    def test_batched_totals_equal_unbatched(self):
        events = posts_at(*map(float, range(7)))
        batched = driver_for(RecordingEngine(), batch_size=3).run(events)
        plain = driver_for(RecordingEngine()).run(events)
        assert batched.canonical() == plain.canonical()

    def test_hook_fires_at_stream_boundaries(self):
        engine = RecordingEngine()
        ticks: list[tuple[float, int]] = []
        driver_for(engine).run(
            posts_at(0.0, 5.0, 10.0, 25.0),
            interval_s=10.0,
            on_interval=lambda now, wall: ticks.append((now, len(engine.events))),
        )
        # Boundaries at first_event + k*10; a tick fires before the event
        # that crosses it, and the tail tick at the next boundary after the
        # last event.
        assert ticks == [(10.0, 2), (20.0, 3), (30.0, 4)]

    def test_wall_seconds_are_non_negative_deltas(self):
        walls: list[float] = []
        driver_for(RecordingEngine()).run(
            posts_at(0.0, 30.0),
            interval_s=10.0,
            on_interval=lambda now, wall: walls.append(wall),
        )
        assert len(walls) == 4  # boundaries 10, 20, 30 + the tail at 40
        assert all(wall >= 0.0 for wall in walls)

    def test_waiting_posts_are_flushed_before_a_tick(self):
        engine = RecordingEngine()
        ticks: list[tuple[float, list[int]]] = []
        driver_for(engine, batch_size=10).run(
            posts_at(0.0, 5.0, 10.0, 25.0),
            interval_s=10.0,
            on_interval=lambda now, wall: ticks.append((now, list(engine.batches))),
        )
        # Every tick sees all events before its boundary already sent,
        # never waiting on the batch to fill.
        assert ticks == [(10.0, [2]), (20.0, [2, 1]), (30.0, [2, 1, 1])]

    def test_tail_tick_lands_at_the_next_boundary_after_the_last_event(self):
        ticks: list[float] = []
        driver_for(RecordingEngine()).run(
            posts_at(3.0, 13.0),
            interval_s=10.0,
            on_interval=lambda now, wall: ticks.append(now),
        )
        # The last event sits on the boundary at 13: that tick fires before
        # it, and the tail tick lands one interval later.
        assert ticks == [13.0, 23.0]

    def test_empty_stream_never_ticks(self):
        ticks: list[float] = []
        totals = driver_for(RecordingEngine()).run(
            [], interval_s=10.0, on_interval=lambda now, wall: ticks.append(now)
        )
        assert ticks == []
        assert totals.posts == 0

    def test_interval_needs_a_hook(self):
        with pytest.raises(ConfigError):
            driver_for(RecordingEngine()).run(posts_at(0.0), interval_s=10.0)

    def test_a_hook_without_an_interval_never_ticks(self):
        # The CLI always passes its hook and sets the interval only for a
        # live replay.
        ticks: list[float] = []
        totals = driver_for(RecordingEngine()).run(
            posts_at(0.0, 30.0), on_interval=lambda now, wall: ticks.append(now)
        )
        assert ticks == []
        assert totals.posts == 2

    @pytest.mark.parametrize("interval_s", [0.0, -5.0])
    def test_non_positive_interval_is_refused_not_spun_on(self, interval_s):
        # A tick that never advances never passes the next event. Run in a
        # daemon thread so a regression fails here instead of hanging.
        raised: list[BaseException] = []

        def replay() -> None:
            try:
                driver_for(RecordingEngine()).run(
                    posts_at(0.0, 1.0),
                    interval_s=interval_s,
                    on_interval=lambda now, wall: None,
                )
            except ConfigError as error:
                raised.append(error)

        worker = threading.Thread(target=replay, daemon=True)
        worker.start()
        worker.join(5)
        assert not worker.is_alive(), "the driver spun on a non-positive interval"
        assert len(raised) == 1

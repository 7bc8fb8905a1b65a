"""Drive a scripted scenario stream through any engine backend.

The driver is backend-agnostic: it speaks only the surface a
:class:`~repro.cluster.router.Router` on either transport and a bare
:class:`~repro.core.engine.AdEngine` share — ``post`` / ``post_batch`` /
``checkin`` / ``launch_campaign`` / ``end_campaign`` /
``record_click``. Click intents resolve against the slates the engine
actually served (collected from each post's result), so a shed or
degraded delivery deterministically suppresses its bot clicks, and
byte-identical slates across backends imply byte-identical click
streams.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError, StreamError
from repro.geo.point import GeoPoint
from repro.scenarios.base import (
    ScenarioEvent,
    ScriptedCheckin,
    ScriptedClick,
    ScriptedEnd,
    ScriptedLaunch,
    ScriptedPost,
)

if TYPE_CHECKING:
    from repro.datagen.workload import Workload

#: ``on_interval(stream_now, wall_seconds_since_last_tick)``.
IntervalHook = Callable[[float, float], None]


@dataclass
class ScenarioTotals:
    """The books of one driven stream.

    ``posts``/``deliveries``/``impressions``/``revenue`` are the delivery
    totals the replay contract is stated over: a recorded trace replayed
    on the same backend must reproduce them byte-identically.
    """

    posts: int = 0
    deliveries: int = 0
    impressions: int = 0
    revenue: float = 0.0
    shed: int = 0
    degraded: int = 0
    clicks: int = 0
    clicks_skipped: int = 0
    launches: int = 0
    ends: int = 0
    checkins: int = 0
    wall_seconds: float = 0.0

    def canonical(self) -> str:
        """One parseable line of the replay-contract totals. ``revenue``
        uses full repr so equality is bit-exact, not display-rounded."""
        return (
            f"posts={self.posts} deliveries={self.deliveries} "
            f"impressions={self.impressions} revenue={self.revenue!r}"
        )

    def rows(self) -> list[list[object]]:
        """What only the driver counts (the delivery books are the
        backend's own to report)."""
        return [
            ["clicks resolved", self.clicks],
            ["click intents skipped", self.clicks_skipped],
            ["campaign launches", self.launches],
            ["campaign ends", self.ends],
            ["checkins", self.checkins],
        ]


@dataclass
class ScenarioDriver:
    """Replays scripted events against one engine.

    ``on_result(msg_id, results)`` fires after every post with the
    scripted msg id and the backend's (normalised) list of
    :class:`~repro.core.engine.PostResult`; ``on_click(user_id, ad_id,
    slot_index)`` after every resolved click — the canary harness uses
    both for per-arm attribution. ``slate_cache_msgs`` bounds the
    click-join memory: intents arriving more than that many posts after
    their message are counted as skipped (deterministically).

    ``batch_size`` > 1 sends up to that many *consecutive* posts — no
    other event and no interval tick between them — as one
    ``post_batch`` (IPC paid per batch on a process transport); books,
    hooks and click joins are per post either way, and
    ``post_latencies`` holds one sample per dispatch: a post at the
    default 1, a batch above it.
    """

    engine: object
    workload: "Workload"
    slate_cache_msgs: int = 512
    on_result: Callable | None = None
    on_click: Callable | None = None
    post_latencies: list[float] = field(default_factory=list)
    batch_size: int = 1

    def __post_init__(self) -> None:
        self._templates = {ad.ad_id: ad for ad in self.workload.ads}
        self._pending: list[ScriptedPost] = []

    def run(
        self,
        events,
        *,
        interval_s: float | None = None,
        on_interval: IntervalHook | None = None,
    ) -> ScenarioTotals:
        """Replay ``events`` in order; return the books.

        With ``interval_s``, ``on_interval(boundary, wall_seconds)`` ticks
        on the stream clock under one rule:

        - the first boundary is the first event's time plus ``interval_s``;
        - a tick fires before the event that crosses a boundary, once per
          boundary crossed;
        - posts still waiting to be sent are flushed first;
        - one tail tick fires at the next boundary after the last event.

        An empty stream never ticks.
        """
        if interval_s is not None and on_interval is None:
            raise ConfigError("interval_s needs an on_interval hook")
        if interval_s is not None and interval_s <= 0.0:
            raise ConfigError(f"interval_s must be positive, got {interval_s}")
        totals = ScenarioTotals()
        slates: OrderedDict[int, dict[int, tuple]] = OrderedDict()
        dispatch = self._dispatch if self.batch_size <= 1 else self._buffer
        next_tick: float | None = None
        tick_wall = perf_counter()
        started = tick_wall
        for event in events:
            if interval_s is not None and on_interval is not None:
                if next_tick is None:
                    next_tick = event.timestamp + interval_s
                while event.timestamp >= next_tick:
                    self._flush(totals, slates)  # counters current at a tick
                    now_wall = perf_counter()
                    on_interval(next_tick, now_wall - tick_wall)
                    tick_wall = now_wall
                    next_tick += interval_s
            dispatch(event, totals, slates)
        self._flush(totals, slates)
        if next_tick is not None and on_interval is not None:
            # Tail tick: the last partial interval.
            on_interval(next_tick, perf_counter() - tick_wall)
        totals.wall_seconds = perf_counter() - started
        return totals

    def _buffer(
        self,
        event: ScenarioEvent,
        totals: ScenarioTotals,
        slates: OrderedDict,
    ) -> None:
        """The batched path's dispatch: posts wait for a full batch,
        anything else sends what is waiting first."""
        if isinstance(event, ScriptedPost):
            self._pending.append(event)
            if len(self._pending) >= self.batch_size:
                self._flush(totals, slates)
        else:
            self._flush(totals, slates)
            self._dispatch(event, totals, slates)

    def _flush(self, totals: ScenarioTotals, slates: OrderedDict) -> None:
        """Send the waiting posts (if any) as one ``post_batch``."""
        if not self._pending:
            return
        posts, self._pending = self._pending, []
        started = perf_counter()
        batch = self.engine.post_batch(posts)
        self.post_latencies.append(perf_counter() - started)
        for event, result in zip(posts, batch):
            self._book(event, result, totals, slates)

    def _book(
        self,
        event: ScriptedPost,
        result,
        totals: ScenarioTotals,
        slates: OrderedDict,
    ) -> None:
        """Enter one served post in the books and the click-join cache."""
        results = result if isinstance(result, list) else [result]
        totals.posts += 1
        delivered: dict[int, tuple] = {}
        for part in results:
            totals.deliveries += part.num_deliveries
            totals.impressions += part.num_impressions
            totals.revenue += part.revenue
            totals.shed += part.num_shed
            totals.degraded += part.num_degraded
            for delivery in part.deliveries:
                if delivery.slate:
                    delivered[delivery.user_id] = delivery.slate
        slates[event.msg_id] = delivered
        while len(slates) > self.slate_cache_msgs:
            slates.popitem(last=False)
        if self.on_result is not None:
            self.on_result(event.msg_id, results)

    def _dispatch(
        self,
        event: ScenarioEvent,
        totals: ScenarioTotals,
        slates: OrderedDict,
    ) -> None:
        engine = self.engine
        if isinstance(event, ScriptedPost):
            started = perf_counter()
            result = engine.post(event.author_id, event.text, event.timestamp)
            self.post_latencies.append(perf_counter() - started)
            self._book(event, result, totals, slates)
        elif isinstance(event, ScriptedClick):
            slate = slates.get(event.msg_id, {}).get(event.user_id)
            if not slate:
                totals.clicks_skipped += 1
                return
            for slot, scored in enumerate(slate[: event.max_slots]):
                engine.record_click(
                    scored.ad_id, user_id=event.user_id, slot_index=slot
                )
                totals.clicks += 1
                if self.on_click is not None:
                    self.on_click(event.user_id, scored.ad_id, slot)
        elif isinstance(event, ScriptedCheckin):
            engine.checkin(
                event.user_id, GeoPoint(event.lat, event.lon), event.timestamp
            )
            totals.checkins += 1
        elif isinstance(event, ScriptedLaunch):
            template = self._templates.get(event.template_ad_id)
            if template is None:
                raise StreamError(
                    f"launch references unknown template ad "
                    f"{event.template_ad_id}"
                )
            clone = replace(
                template,
                ad_id=event.ad_id,
                bid=event.bid,
                budget=event.budget,
            )
            engine.launch_campaign(clone, event.timestamp)
            totals.launches += 1
        elif isinstance(event, ScriptedEnd):
            engine.end_campaign(event.ad_id, event.timestamp)
            totals.ends += 1
        else:
            raise StreamError(
                f"driver cannot dispatch event type {type(event).__name__}"
            )

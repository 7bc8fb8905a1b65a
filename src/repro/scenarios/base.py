"""Composable adversarial workload scenarios.

The datagen layer emits a well-behaved Zipf + diurnal stream; production
feeds see worse. This module defines the *scripted event* model the
scenario suite is built on: a small union of frozen event records — posts,
check-ins, click intents, campaign launches and endings — that a seeded
generator emits over an existing workload's stream and a driver replays
against any engine backend (single, in-process sharded, multiprocess).

Every event type is plain data, so a generated stream can be captured to
a versioned JSONL trace (:mod:`repro.scenarios.trace`) and replayed
byte-identically later. Click events are *intents* — "this user clicks
the top ``max_slots`` ads of whatever slate message ``msg_id`` delivered
to them" — because the concrete ad ids depend on the engine under test;
since slates are byte-identical across backends (the differential suites
prove it), resolving intents at drive time keeps replays deterministic
without baking one engine's output into the trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from repro.errors import ConfigError, StreamError

if TYPE_CHECKING:
    from repro.datagen.workload import Workload
    from repro.stream.events import Post

#: Version stamp of the scripted-event model; the JSONL trace format
#: carries it so readers can reject streams from a different schema.
TRACE_VERSION = 1

#: Scenario posts get msg ids from per-scenario blocks far above any
#: workload's own stream, so ids never collide under composition.
SCENARIO_MSG_BASE = 1_000_000
SCENARIO_MSG_BLOCK = 100_000

#: Launched campaign clones likewise get per-scenario ad-id blocks
#: (below the soak driver's 900_000 range so the two can coexist).
SCENARIO_AD_BASE = 800_000
SCENARIO_AD_BLOCK = 10_000


@dataclass(frozen=True, slots=True)
class ScriptedPost:
    """A scenario-authored message entering the feed."""

    timestamp: float
    msg_id: int
    author_id: int
    text: str


@dataclass(frozen=True, slots=True)
class ScriptedCheckin:
    """A scenario-scripted location ping."""

    timestamp: float
    user_id: int
    lat: float
    lon: float


@dataclass(frozen=True, slots=True)
class ScriptedClick:
    """A click intent: the user clicks the top ``max_slots`` ads of the
    slate that message ``msg_id`` delivered to them (skipped if the
    delivery never happened — e.g. admission shed it)."""

    timestamp: float
    user_id: int
    msg_id: int
    max_slots: int


@dataclass(frozen=True, slots=True)
class ScriptedLaunch:
    """Launch a clone of an existing workload ad with overridden
    economics. Cloning by ``template_ad_id`` keeps traces compact and
    portable: targeting and term vectors come from the workload."""

    timestamp: float
    ad_id: int
    template_ad_id: int
    bid: float
    budget: float | None


@dataclass(frozen=True, slots=True)
class ScriptedEnd:
    """End a campaign early (idempotent at the engine)."""

    timestamp: float
    ad_id: int


ScenarioEvent = Union[
    ScriptedPost, ScriptedCheckin, ScriptedClick, ScriptedLaunch, ScriptedEnd
]


@dataclass
class ScenarioContext:
    """Everything a generator may draw from, with its private id blocks.

    ``rng`` is derived from the suite seed and the scenario's slot in the
    composition, so two scenarios in one stream never share draws and the
    whole stream regenerates bit-identically from ``(names, seed)``.
    """

    workload: "Workload"
    base_posts: "list[Post]"
    start: float
    end: float
    rng: random.Random
    msg_base: int
    ad_base: int

    @property
    def span(self) -> float:
        return max(self.end - self.start, 1e-6)

    def pick_window(self, fraction: float, *, floor_s: float = 60.0) -> tuple[float, float]:
        """A random (start, length) window covering ``fraction`` of the
        stream span, placed away from the extreme edges."""
        length = max(self.span * fraction, floor_s)
        slack = max(self.span - length, 0.0)
        return self.start + self.rng.uniform(0.05, 0.80) * slack, length


#: A generator takes its context (plus knobs) and returns its events in
#: non-decreasing timestamp order.
ScenarioGenerator = Callable[..., "list[ScenarioEvent]"]


def merge_events(*streams: "list[ScenarioEvent]") -> tuple[ScenarioEvent, ...]:
    """Time-merge scenario streams. ``sorted`` is stable, so ties keep
    the concatenation order (base stream first, then scenario slots) —
    fully deterministic for identical inputs."""
    merged = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=lambda event: event.timestamp)
    return tuple(merged)


def check_stream(events: tuple[ScenarioEvent, ...]) -> None:
    """Structural invariants every composed stream must satisfy."""
    last = float("-inf")
    seen_msgs: set[int] = set()
    seen_launches: set[int] = set()
    for event in events:
        if event.timestamp < last:
            raise StreamError(
                f"scenario stream not time-monotone at t={event.timestamp}"
            )
        last = event.timestamp
        if isinstance(event, ScriptedPost):
            if event.msg_id in seen_msgs:
                raise StreamError(f"duplicate scripted msg_id {event.msg_id}")
            seen_msgs.add(event.msg_id)
        elif isinstance(event, ScriptedLaunch):
            if event.ad_id in seen_launches:
                raise StreamError(f"duplicate scripted launch ad_id {event.ad_id}")
            seen_launches.add(event.ad_id)


def workload_fingerprint(workload: "Workload") -> dict[str, int]:
    """The identity-bearing knobs of the generating workload. Stored in
    every trace header so a replay against a different workload is
    rejected instead of silently producing different totals."""
    config = workload.config
    return {
        "num_users": config.num_users,
        "num_ads": config.num_ads,
        "num_posts": config.num_posts,
        "num_topics": config.num_topics,
        "vocab_size": config.vocab_size,
        "follows_per_user": config.follows_per_user,
        "seed": config.seed,
    }


@dataclass(frozen=True)
class ScenarioStream:
    """One composed, replayable adversarial stream."""

    seed: int
    scenarios: tuple[str, ...]
    workload_fingerprint: dict[str, int]
    events: tuple[ScenarioEvent, ...]
    version: int = TRACE_VERSION

    def counts(self) -> dict[str, int]:
        by_kind: dict[str, int] = {}
        for event in self.events:
            name = type(event).__name__
            by_kind[name] = by_kind.get(name, 0) + 1
        return by_kind


def build_scenario_stream(
    workload: "Workload",
    scenarios,
    *,
    seed: int = 0,
    limit_posts: int | None = None,
    knobs: dict[str, dict] | None = None,
) -> ScenarioStream:
    """Compose the base workload stream with the named adversarial
    scenarios, fully reproducibly from ``seed``.

    ``scenarios`` may be empty (the base stream alone, as scripted
    events). ``knobs`` optionally overrides one scenario's generator
    keyword arguments by name. ``limit_posts`` truncates the *base*
    stream; scenario windows then cover the truncated span.
    """
    from repro.scenarios.generators import SCENARIOS

    names = tuple(scenarios)
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {unknown}; known: {sorted(SCENARIOS)}"
        )
    if limit_posts is not None and limit_posts < 1:
        # A negative slice bound would silently drop the stream's tail.
        raise ConfigError(f"limit_posts must be >= 1, got {limit_posts}")
    base_posts = list(
        workload.posts if limit_posts is None else workload.posts[:limit_posts]
    )
    if not base_posts:
        raise ConfigError("cannot build a scenario stream over zero base posts")
    base_events: list[ScenarioEvent] = [
        ScriptedPost(post.timestamp, post.msg_id, post.author_id, post.text)
        for post in base_posts
    ]
    start = base_events[0].timestamp
    end = max(base_events[-1].timestamp, start + 1.0)
    streams = [base_events]
    for slot, name in enumerate(names):
        context = ScenarioContext(
            workload=workload,
            base_posts=base_posts,
            start=start,
            end=end,
            # Seeding by string is stable across processes and Python
            # versions (unlike hash()-based mixing).
            rng=random.Random(f"{name}#{slot}:{seed}"),
            msg_base=SCENARIO_MSG_BASE + slot * SCENARIO_MSG_BLOCK,
            ad_base=SCENARIO_AD_BASE + slot * SCENARIO_AD_BLOCK,
        )
        overrides = (knobs or {}).get(name, {})
        streams.append(SCENARIOS[name](context, **overrides))
    events = merge_events(*streams)
    check_stream(events)
    return ScenarioStream(
        seed=seed,
        scenarios=names,
        workload_fingerprint=workload_fingerprint(workload),
        events=events,
    )

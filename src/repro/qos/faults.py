"""Seeded fault injection for the cluster router.

The router can rehearse the cluster failure story on either transport: shards crash and recover, shards run slow, and at-least-once
dispatch duplicates events. :class:`FaultInjector` holds a deterministic
fault plan — either written explicitly by a test or drawn from a seeded
RNG via :meth:`FaultInjector.random_plan` — and the router consults it
at every dispatch:

* :meth:`is_down` gates routing (down shards trigger bounded-backoff
  retries and deterministic failover — see
  :class:`~repro.cluster.router.Router`);
* :meth:`slowdown_factor` stretches a shard's dispatch wall time, the
  skew the busy-time imbalance telemetry is meant to expose;
* :meth:`should_duplicate` marks events whose dispatch ack "was lost",
  so the router re-sends and the duplicate-suppression layer must catch
  the replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["FaultInjector", "ShardOutage", "ShardSlowdown"]


@dataclass(frozen=True, slots=True)
class ShardOutage:
    """One shard is unreachable for ``[start, end)`` of stream time."""

    shard: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigError(f"shard must be >= 0, got {self.shard}")
        if self.end <= self.start:
            raise ConfigError(
                f"outage must end after it starts, got [{self.start}, {self.end})"
            )


@dataclass(frozen=True, slots=True)
class ShardSlowdown:
    """One shard serves ``factor``× slower for ``[start, end)``."""

    shard: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigError(f"shard must be >= 0, got {self.shard}")
        if self.end <= self.start:
            raise ConfigError(
                f"slowdown must end after it starts, got [{self.start}, {self.end})"
            )
        if self.factor <= 1.0:
            raise ConfigError(f"slowdown factor must be > 1, got {self.factor}")


class FaultInjector:
    """A deterministic fault plan the cluster router consults."""

    def __init__(
        self,
        *,
        outages: tuple[ShardOutage, ...] = (),
        slowdowns: tuple[ShardSlowdown, ...] = (),
        duplicate_every: int = 0,
    ) -> None:
        if duplicate_every < 0:
            raise ConfigError(
                f"duplicate_every must be >= 0, got {duplicate_every}"
            )
        self.outages = tuple(outages)
        self.slowdowns = tuple(slowdowns)
        self.duplicate_every = duplicate_every

    @classmethod
    def random_plan(
        cls,
        num_shards: int,
        horizon_s: float,
        *,
        seed: int,
        num_outages: int = 1,
        outage_s: float | None = None,
        num_slowdowns: int = 0,
        slowdown_factor: float = 3.0,
        duplicate_every: int = 0,
    ) -> "FaultInjector":
        """Draw a reproducible plan from a seeded RNG: same seed, same
        faults — runs under fault injection stay replayable."""
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if horizon_s <= 0.0:
            raise ConfigError(f"horizon_s must be positive, got {horizon_s}")
        rng = random.Random(seed)
        span = outage_s if outage_s is not None else horizon_s / 4.0
        outages = []
        for _ in range(num_outages):
            start = rng.uniform(0.0, max(horizon_s - span, 0.0))
            outages.append(
                ShardOutage(rng.randrange(num_shards), start, start + span)
            )
        slowdowns = []
        for _ in range(num_slowdowns):
            start = rng.uniform(0.0, max(horizon_s - span, 0.0))
            slowdowns.append(
                ShardSlowdown(
                    rng.randrange(num_shards), start, start + span, slowdown_factor
                )
            )
        return cls(
            outages=tuple(outages),
            slowdowns=tuple(slowdowns),
            duplicate_every=duplicate_every,
        )

    # -- queries -------------------------------------------------------------

    def is_down(self, shard: int, now: float) -> bool:
        return any(
            outage.shard == shard and outage.start <= now < outage.end
            for outage in self.outages
        )

    def slowdown_factor(self, shard: int, now: float) -> float:
        """The multiplicative service slowdown in effect (1.0 = none)."""
        factor = 1.0
        for slowdown in self.slowdowns:
            if slowdown.shard == shard and slowdown.start <= now < slowdown.end:
                factor = max(factor, slowdown.factor)
        return factor

    def should_duplicate(self, msg_id: int) -> bool:
        """Whether this event's dispatch ack is 'lost' (deterministic in
        the message id, so replays duplicate the same events)."""
        if self.duplicate_every <= 0:
            return False
        return msg_id % self.duplicate_every == self.duplicate_every - 1

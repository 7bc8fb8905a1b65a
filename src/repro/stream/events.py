"""Event types of the generated feed stream."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.geo.point import GeoPoint


@dataclass(frozen=True, slots=True)
class Post:
    """A message published by a user at a point in time."""

    msg_id: int
    author_id: int
    text: str
    timestamp: float

    def __post_init__(self) -> None:
        if self.msg_id < 0:
            raise ConfigError(f"msg_id must be non-negative, got {self.msg_id}")


@dataclass(frozen=True, slots=True)
class Delivery:
    """One post landing in one follower's news feed."""

    msg_id: int
    user_id: int
    timestamp: float


@dataclass(frozen=True, slots=True)
class Checkin:
    """A user location update."""

    user_id: int
    point: GeoPoint
    timestamp: float

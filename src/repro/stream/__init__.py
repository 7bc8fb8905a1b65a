"""Stream substrate: event types and the simulated clock."""

from repro.stream.clock import SimClock, diurnal_timestamps
from repro.stream.events import Checkin, Delivery, Post

__all__ = [
    "Checkin",
    "Delivery",
    "Post",
    "SimClock",
    "diurnal_timestamps",
]

"""Stream substrate: event types and the simulated clock."""

from repro.stream.clock import SimClock, diurnal_timestamps
from repro.stream.events import AdImpression, Checkin, Delivery, Post

__all__ = [
    "AdImpression",
    "Checkin",
    "Delivery",
    "Post",
    "SimClock",
    "diurnal_timestamps",
]

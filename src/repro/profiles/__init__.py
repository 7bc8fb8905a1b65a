"""Per-user state: time-decayed interest profiles and feed-context windows."""

from repro.profiles.context import FeedContext
from repro.profiles.profile import UserProfile

__all__ = ["FeedContext", "UserProfile"]

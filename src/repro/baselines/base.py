"""The interface every evaluated recommender implements, plus shared state.

The harness drives recommenders with two calls per post:

* ``slate(user_id, msg_id, message_vec, timestamp, k)`` for each sampled
  delivery — the ranked ad ids to show;
* ``observe_post(author_id, message_vec, timestamp)`` afterwards — fold the
  message into any internal state (profiles), so serving never peeks at the
  message it is being judged on.
"""

from __future__ import annotations

import abc

from repro.ads.corpus import AdCorpus
from repro.core.config import ScoringWeights
from repro.geo.point import GeoPoint
from repro.profiles.profile import UserProfile
from repro.util.sparse import SparseVector


class BaselineState:
    """Read/write state shared by the scan-style baselines: the corpus, the
    users' (home) locations and their own interest profiles."""

    def __init__(
        self,
        corpus: AdCorpus,
        locations: dict[int, GeoPoint | None],
        *,
        weights: ScoringWeights | None = None,
        profile_half_life_s: float | None = 6 * 3600.0,
    ) -> None:
        self.corpus = corpus
        self.locations = dict(locations)
        self.weights = weights or ScoringWeights()
        self.profile_half_life_s = profile_half_life_s
        self._profiles: dict[int, UserProfile] = {}

    def location_of(self, user_id: int) -> GeoPoint | None:
        return self.locations.get(user_id)

    def profile(self, user_id: int) -> UserProfile:
        """The user's profile, created empty on first sight."""
        profile = self._profiles.get(user_id)
        if profile is None:
            profile = self._profiles[user_id] = UserProfile(self.profile_half_life_s)
        return profile

    def eligible(self, ad_id: int, user_id: int, timestamp: float) -> bool:
        """Active + targeting predicate, shared by every baseline."""
        if not self.corpus.is_active(ad_id):
            return False
        ad = self.corpus.get(ad_id)
        return ad.targeting.matches(self.location_of(user_id), timestamp)


class SlateRecommender(abc.ABC):
    """One evaluated method."""

    name: str = "unnamed"

    @abc.abstractmethod
    def slate(
        self,
        user_id: int,
        msg_id: int,
        message_vec: SparseVector,
        timestamp: float,
        k: int,
    ) -> list[int]:
        """Ranked ad ids for one delivery (length <= k)."""

    def observe_post(
        self, author_id: int, message_vec: SparseVector, timestamp: float
    ) -> None:
        """Fold a served post into internal state; default: stateless."""

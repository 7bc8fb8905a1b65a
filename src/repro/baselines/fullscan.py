"""Full-scan baseline: the exact ranking, paid for in full every delivery.

Scores every active ad with the complete ranking function (no index, no
sharing, no pruning). Efficiency-wise this is the floor every indexed
method is compared against; effectiveness-wise it *defines* the system's
ranking, so the engine's shared/fallback paths are tested for equality
against it.
"""

from __future__ import annotations

from repro.baselines.base import BaselineState, SlateRecommender
from repro.util.heap import BoundedTopK
from repro.util.sparse import SparseVector, dot


class FullScanRecommender(SlateRecommender):
    """Exact combined scoring by corpus scan."""

    name = "full-scan"

    def __init__(self, state: BaselineState) -> None:
        self._state = state

    def slate(
        self,
        user_id: int,
        msg_id: int,
        message_vec: SparseVector,
        timestamp: float,
        k: int,
    ) -> list[int]:
        state = self._state
        weights = state.weights
        location = state.location_of(user_id)
        profile_vec = state.profile(user_id).unit
        heap = BoundedTopK(k)
        for ad in state.corpus.active_ads():
            content = dot(message_vec, ad.terms)
            profile_affinity = dot(profile_vec, ad.terms)
            if content <= 0.0 and (weights.beta <= 0.0 or profile_affinity <= 0.0):
                continue  # relevance floor: no term shared with the combined query
            if not ad.targeting.matches(location, timestamp):
                continue
            score = (
                weights.alpha * content
                + weights.beta * profile_affinity
                + weights.gamma * ad.targeting.proximity(location)
                + weights.delta * state.corpus.normalized_bid(ad.ad_id)
            )
            heap.push(score, ad.ad_id)
        return [entry.item for entry in heap.results()]

    def observe_post(
        self, author_id: int, message_vec: SparseVector, timestamp: float
    ) -> None:
        self._state.profile(author_id).update(message_vec, timestamp)

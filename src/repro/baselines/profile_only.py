"""Profile-only baseline: what interest-targeted advertising without
context does — the original paper's motivating strawman (user interests
evolve slowly, so ads repeat and ignore what the user is reading now)."""

from __future__ import annotations

from repro.baselines.base import BaselineState, SlateRecommender
from repro.util.heap import BoundedTopK
from repro.util.sparse import SparseVector, dot


class ProfileOnlyRecommender(SlateRecommender):
    """beta-only ranking over the user's decayed interest vector."""

    name = "profile-only"

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
        profile_vec = state.profile(user_id).unit
        if not profile_vec:
            return []
        heap = BoundedTopK(k)
        for ad in state.corpus.active_ads():
            affinity = dot(profile_vec, ad.terms)
            if affinity <= 0.0:
                continue
            if not state.eligible(ad.ad_id, user_id, timestamp):
                continue
            heap.push(affinity, ad.ad_id)
        return [entry.item for entry in heap.results()]

    def observe_post(
        self, author_id: int, message_vec: SparseVector, timestamp: float
    ) -> None:
        self._state.profile(author_id).update(message_vec, timestamp)

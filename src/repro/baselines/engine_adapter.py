"""Adapter exposing the engine's shared-candidate pipeline through the
baseline interface, so the *system* sits in the same effectiveness tables
as its baselines and is driven by the same harness. The system is the
serving kernel: the ``ta`` reference is its oracle, not a baseline."""

from __future__ import annotations

from repro.baselines.base import BaselineState, SlateRecommender
from repro.core.candidates import CandidateSet, SharedCandidateGenerator
from repro.core.config import EngineConfig
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoringModel
from repro.core.services import EngineServices
from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.util.sparse import SparseVector


class SystemRecommender(SlateRecommender):
    """The context-aware system (shared candidates + personalisation)."""

    name = "system"

    def __init__(self, state: BaselineState, config: EngineConfig | None = None) -> None:
        self._state = state
        self._config = config or EngineConfig(weights=state.weights)
        if self._config.searcher != "vector":
            raise ConfigError("the system recommender serves the vector kernel")
        self._index = CompactIndex(state.corpus)
        self._scoring = ScoringModel(state.corpus, self._config.weights)
        self._candidate_gen = SharedCandidateGenerator(
            self._index, self._config.overfetch
        )
        # A ranking-only services slice: no graph, budgets or clock — the
        # baseline harness owns profile/location state itself.
        self._personalizer = Personalizer(
            EngineServices(
                config=self._config,
                corpus=state.corpus,
                index=self._index,
                scoring=self._scoring,
            )
        )
        self._cached_msg: int | None = None
        self._cached_candidates: CandidateSet | None = None

    def _candidates_for(self, msg_id: int, message_vec: SparseVector) -> CandidateSet:
        """One shared probe per message, reused across its deliveries."""
        if self._cached_msg != msg_id or self._cached_candidates is None:
            self._cached_candidates = self._candidate_gen.generate(message_vec)
            self._cached_msg = msg_id
        return self._cached_candidates

    def slate(
        self,
        user_id: int,
        msg_id: int,
        message_vec: SparseVector,
        timestamp: float,
        k: int,
    ) -> list[int]:
        state = self._state
        profile = state.profile(user_id)
        (slate,) = self._personalizer.slate_batch(
            self._candidates_for(msg_id, message_vec),
            message_vec,
            [(user_id, profile.unit, profile.epoch, state.location_of(user_id))],
            timestamp,
            k,
        )
        return slate.ad_ids.tolist()

    def observe_post(
        self, author_id: int, message_vec: SparseVector, timestamp: float
    ) -> None:
        self._state.profile(author_id).update(message_vec, timestamp)

"""The paper's contribution layer: context-aware ad matching at feed speed.

* :mod:`repro.core.scoring` — the ranking function and its upper bounds;
* :mod:`repro.core.candidates` — per-message shared candidate generation;
* :mod:`repro.core.rerank` — the personalize kernel: every follower's
  exact top-k in one call per event;
* :mod:`repro.core.services` — the shared :class:`EngineServices` context
  every stage draws from;
* :mod:`repro.core.pipeline` — the staged delivery pipeline (vectorize →
  candidates → personalize → charge → feedback) with batch fan-out;
* :mod:`repro.core.engine` — the stream-facing engine facade;
* :mod:`repro.core.recommender` — the public facade.

The paper's certify-or-fallback and incremental algorithms, the oracle
the kernel is held to, are in :mod:`repro.reference`.
"""

from repro.core.candidates import CandidateSet, SharedCandidateGenerator
from repro.core.config import EngineConfig, EngineMode, ScoringWeights
from repro.core.engine import AdEngine, DeliveryResult, PostResult
from repro.core.pipeline import (
    CandidateStage,
    ChargeStage,
    DeliveryPipeline,
    FeedbackStage,
    PersonalizeStage,
    PostEvent,
    VectorizeStage,
)
from repro.core.recommender import ContextAwareRecommender
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoredAd, ScoringModel, Slate
from repro.core.services import EngineServices, EngineStats

__all__ = [
    "AdEngine",
    "CandidateSet",
    "CandidateStage",
    "ChargeStage",
    "ContextAwareRecommender",
    "DeliveryPipeline",
    "DeliveryResult",
    "EngineConfig",
    "EngineMode",
    "EngineServices",
    "EngineStats",
    "FeedbackStage",
    "Personalizer",
    "PersonalizeStage",
    "PostEvent",
    "PostResult",
    "ScoredAd",
    "ScoringModel",
    "SharedCandidateGenerator",
    "ScoringWeights",
    "Slate",
    "VectorizeStage",
]

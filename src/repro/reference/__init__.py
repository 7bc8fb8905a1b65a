"""The paper's algorithms — TA over impact-ordered postings, the CAR-share
certificate, the INCREMENTAL shadow set — as the numpy kernel's oracle.
``ta`` and INCREMENTAL serve from here; SHARED and EXACT on ``vector``
never load it (only :mod:`repro.core.engine` and :mod:`repro.index.factory`
import it, inside functions).
"""

from repro.reference.brute import exact_topk
from repro.reference.incremental import IncrementalPersonalizeStage, IncrementalTopK
from repro.reference.inverted import AdInvertedIndex
from repro.reference.postings import PostingList
from repro.reference.rerank import (
    CandidateSources,
    ExactPersonalizeStage,
    ReferencePersonalizer,
    SharedPersonalizeStage,
    ThresholdCandidateGenerator,
)
from repro.reference.static_list import GlobalStaticTopList
from repro.reference.threshold import ThresholdSearcher

__all__ = [
    "AdInvertedIndex",
    "CandidateSources",
    "ExactPersonalizeStage",
    "GlobalStaticTopList",
    "IncrementalPersonalizeStage",
    "IncrementalTopK",
    "PostingList",
    "ReferencePersonalizer",
    "SharedPersonalizeStage",
    "ThresholdCandidateGenerator",
    "ThresholdSearcher",
    "exact_topk",
]

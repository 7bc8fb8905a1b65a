"""Top-k ad retrieval: inverted index, TA reference and compact numpy index."""

from repro.index.brute import exact_topk
from repro.index.compact import CompactIndex, IdInterner
from repro.index.inverted import AdInvertedIndex
from repro.index.postings import PostingList
from repro.index.threshold import ThresholdSearcher
from repro.index.vector import VectorSearcher

__all__ = [
    "AdInvertedIndex",
    "CompactIndex",
    "IdInterner",
    "PostingList",
    "ThresholdSearcher",
    "VectorSearcher",
    "exact_topk",
]

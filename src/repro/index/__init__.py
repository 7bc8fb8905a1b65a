"""Top-k ad retrieval on the serving path: the compact numpy index and
its content probe (the ``ta`` reference's index is in :mod:`repro.reference`)."""

from repro.index.compact import CompactIndex, IdInterner
from repro.index.vector import VectorSearcher

__all__ = [
    "CompactIndex",
    "IdInterner",
    "VectorSearcher",
]

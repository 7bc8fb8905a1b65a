"""Searcher factory: one switch selects the index and the probe
engine-wide.

Two kinds, a reference and a kernel, each over its own index
(:func:`make_index`). ``vector``, the engine default, is the content
probe over the compact numpy arrays
(:class:`~repro.index.compact.CompactIndex`, built from the corpus): it
evaluates every match with fused array arithmetic instead of pruning with
per-posting Python (B1: ≈ 3× ``ta``'s queries/s). ``ta`` is the
pure-Python threshold algorithm over the dict-of-postings
:class:`~repro.reference.inverted.AdInvertedIndex`, pruning with the TA
bound: the oracle every array path is replayed against, from
:mod:`repro.reference`, imported only when a ``ta`` index or searcher is
asked for.
"""

from __future__ import annotations

from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.index.vector import VectorSearcher

SEARCHER_KINDS = ("ta", "vector")


def _check_kind(kind: str) -> None:
    if kind not in SEARCHER_KINDS:
        raise ConfigError(
            f"unknown searcher kind {kind!r}; expected one of {SEARCHER_KINDS}"
        )


def make_index(kind: str, corpus: AdCorpus):
    """The one index a ``kind`` searcher reads, built over ``corpus``'s
    active ads and subscribed to its launches and retirements: the
    posting-list dict for ``ta``, the compact arrays for ``vector``."""
    _check_kind(kind)
    if kind == "ta":
        from repro.reference.inverted import AdInvertedIndex

        return AdInvertedIndex.from_corpus(corpus)
    return CompactIndex(corpus)


def make_searcher(kind: str, index):
    """A content top-k searcher of the requested kind over ``index``, the
    kind's own (:func:`make_index`): a
    :class:`~repro.reference.threshold.ThresholdSearcher` or a
    :class:`~repro.index.vector.VectorSearcher`. The static-boosted exact
    top-k is not a searcher's: the kernel's cut on ``vector``, the
    reference's own TA probe on ``ta``."""
    _check_kind(kind)
    if kind == "ta":
        from repro.reference.threshold import ThresholdSearcher

        return ThresholdSearcher(index)
    return VectorSearcher(index)

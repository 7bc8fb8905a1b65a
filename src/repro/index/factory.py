"""Searcher factory: one switch selects the index and the probe
engine-wide.

Two kinds, a reference and a kernel, each over its own index
(:func:`make_index`). ``ta`` is the pure-Python threshold algorithm over
the dict-of-postings :class:`~repro.index.inverted.AdInvertedIndex`: it
takes a static score and a targeting filter, prunes with the TA bound,
and is the oracle every array path is replayed against. ``vector`` is the
content probe over the compact numpy arrays
(:class:`~repro.index.compact.CompactIndex`, built from the corpus): it
evaluates every match with fused array arithmetic instead of pruning with
per-posting Python (B1: ≈ 3× ``ta``'s queries/s), and takes no callables
— the static-boosted exact top-k on the arrays is the personalize
kernel's cut, not a searcher's. ``ta`` remains the engine default;
``EngineConfig(searcher="vector")`` opts the whole engine onto the
compact hot path, and the equivalence suite holds it to ``ta``'s rankings.
"""

from __future__ import annotations

from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.index.inverted import AdInvertedIndex
from repro.index.threshold import FilterFn, StaticScoreFn, ThresholdSearcher
from repro.index.vector import VectorSearcher

SEARCHER_KINDS = ("ta", "vector")

TopKSearcher = ThresholdSearcher | VectorSearcher
SearchIndex = AdInvertedIndex | CompactIndex


def _check_kind(kind: str) -> None:
    if kind not in SEARCHER_KINDS:
        raise ConfigError(
            f"unknown searcher kind {kind!r}; expected one of {SEARCHER_KINDS}"
        )


def make_index(kind: str, corpus: AdCorpus) -> SearchIndex:
    """The one index a ``kind`` searcher reads, built over ``corpus``'s
    active ads and subscribed to its launches and retirements: the
    posting-list dict for ``ta``, the compact arrays for ``vector``."""
    _check_kind(kind)
    if kind == "ta":
        return AdInvertedIndex.from_corpus(corpus)
    return CompactIndex(corpus)


def make_searcher(
    kind: str,
    index: SearchIndex,
    *,
    static_score: StaticScoreFn | None = None,
    max_static: float = 0.0,
    filter_fn: FilterFn | None = None,
) -> TopKSearcher:
    """Build a top-k searcher of the requested kind over ``index``, the
    kind's own (:func:`make_index`)."""
    _check_kind(kind)
    if kind == "ta":
        return ThresholdSearcher(
            index,
            static_score=static_score,
            max_static=max_static,
            filter_fn=filter_fn,
        )
    if static_score is not None or filter_fn is not None or max_static:
        raise ConfigError(
            "the 'vector' searcher is a content probe and takes no static "
            "score or filter; of the searcher kinds "
            f"{SEARCHER_KINDS} only 'ta' does"
        )
    return VectorSearcher(index)

"""Searcher factory: one switch selects the probe engine-wide.

Two kinds, a reference and a kernel. ``ta`` is the pure-Python threshold
algorithm: it takes a static score and a targeting filter, prunes with
the TA bound, and is the oracle every array path is replayed against.
``vector`` is the content probe over the compact numpy mirror: it
evaluates every match with fused array arithmetic instead of pruning with
per-posting Python (B1: ≈ 3× ``ta``'s queries/s), and takes no callables
— the static-boosted exact top-k on the mirror is the personalize
kernel's cut, not a searcher's. ``ta`` remains the engine default;
``EngineConfig(searcher="vector")`` opts the whole engine onto the
compact hot path, and the equivalence suite holds it to ``ta``'s rankings.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.index.inverted import AdInvertedIndex
from repro.index.threshold import FilterFn, StaticScoreFn, ThresholdSearcher
from repro.index.vector import VectorSearcher

SEARCHER_KINDS = ("ta", "vector")

TopKSearcher = ThresholdSearcher | VectorSearcher


def make_searcher(
    kind: str,
    index: AdInvertedIndex,
    *,
    static_score: StaticScoreFn | None = None,
    max_static: float = 0.0,
    filter_fn: FilterFn | None = None,
) -> TopKSearcher:
    """Build a top-k searcher of the requested kind over ``index``."""
    if kind not in SEARCHER_KINDS:
        raise ConfigError(
            f"unknown searcher kind {kind!r}; expected one of {SEARCHER_KINDS}"
        )
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

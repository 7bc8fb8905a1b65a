"""Brute-force top-k: the correctness reference and full-scan baseline.

Same scoring and matching semantics as the searchers
(:mod:`repro.reference.threshold`) — only ads sharing at least one term with
the query are candidates — so the property tests can assert that neither
pruning nor the array path changes the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.ads.ad import Ad
from repro.reference.threshold import FilterFn, StaticScoreFn
from repro.util.heap import BoundedTopK, TopKEntry
from repro.util.sparse import dot


def exact_topk(
    ads: Iterable[Ad],
    query: Mapping[str, float],
    k: int,
    *,
    static_score: StaticScoreFn | None = None,
    filter_fn: FilterFn | None = None,
) -> list[TopKEntry]:
    """Scan every ad and return the exact top-k by content + static score."""
    heap = BoundedTopK(k)
    for ad in ads:
        content = dot(query, ad.terms)
        if content <= 0.0:
            continue  # relevance floor: no shared term, never a candidate
        if filter_fn is not None and not filter_fn(ad.ad_id):
            continue
        total = content
        if static_score is not None:
            total += static_score(ad.ad_id)
        heap.push(total, ad.ad_id)
    return heap.results()

"""Fagin-style threshold algorithm (TA) over impact-ordered postings.

The pure-Python reference probe. Given a sparse query vector it finds the
k ads maximising::

    score(a) = dot(query, a.terms) + static_score(a)

by term-at-a-time traversal of weight-descending lists with random access
to the forward index for full scores, stopping once the frontier bound
drops below the current k-th score. ``static_score`` carries the per-ad,
query-independent part of the ranking function (bid, geo proximity); its
global upper bound ``max_static`` must be supplied so the stop stays
admissible.

Matching semantics: only ads sharing at least one term with the query are
candidates (a relevance floor — context-aware advertising never serves an
ad with zero content affinity). The brute-force scan in
:mod:`repro.reference.brute` applies the same rule, so both return identical
score multisets, which the property tests assert.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.errors import ConfigError
from repro.reference.inverted import AdInvertedIndex
from repro.util.heap import BoundedTopK, TopKEntry
from repro.util.sparse import dot

StaticScoreFn = Callable[[int], float]
FilterFn = Callable[[int], bool]


class ThresholdSearcher:
    """TA top-k evaluator bound to one inverted index."""

    def __init__(
        self,
        index: AdInvertedIndex,
        *,
        static_score: StaticScoreFn | None = None,
        max_static: float = 0.0,
        filter_fn: FilterFn | None = None,
    ) -> None:
        if max_static < 0.0:
            raise ConfigError(f"max_static must be >= 0, got {max_static}")
        if static_score is None and max_static > 0.0:
            raise ConfigError("max_static > 0 requires a static_score function")
        self._index = index
        self._static_score = static_score
        self._max_static = max_static
        self._filter_fn = filter_fn
        self.last_evaluations = 0

    def search(self, query: Mapping[str, float], k: int) -> list[TopKEntry]:
        """Exact top-k of ``dot(query, ·) + static`` over matching ads."""
        heap = BoundedTopK(k)
        lists: list[tuple[float, list[tuple[float, int]]]] = []
        for term, qweight in query.items():
            if qweight < 0.0:
                raise ConfigError(f"negative query weight for {term!r}")
            if qweight == 0.0:
                continue
            postings = self._index.postings(term)
            if postings is not None and len(postings):
                lists.append((qweight, postings.impact_ordered()))
        self.last_evaluations = 0
        if not lists:
            return []

        seen: set[int] = set()
        query_dict = dict(query)
        depth = 0
        max_depth = max(len(impact) for _, impact in lists)
        while depth < max_depth:
            frontier_bound = self._max_static
            for qweight, impact in lists:
                if depth < len(impact):
                    weight, ad_id = impact[depth]
                    frontier_bound += qweight * weight
                    if ad_id not in seen:
                        seen.add(ad_id)
                        self._score(ad_id, query_dict, heap)
            depth += 1
            # Strict: an unseen ad that could still *tie* the k-th score
            # must be evaluated (smaller ids win ties).
            if len(heap) >= heap.k and heap.threshold() > frontier_bound:
                break
        return heap.results()

    def _score(
        self, ad_id: int, query: Mapping[str, float], heap: BoundedTopK
    ) -> None:
        self.last_evaluations += 1
        if self._filter_fn is not None and not self._filter_fn(ad_id):
            return
        content = dot(query, self._index.ad_terms(ad_id))
        total = content
        if self._static_score is not None:
            total += self._static_score(ad_id)
        heap.push(total, ad_id)

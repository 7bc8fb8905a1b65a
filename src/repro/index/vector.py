"""Vectorized top-k searcher over the compact posting arrays.

Same contract as :class:`~repro.index.threshold.ThresholdSearcher` /
:class:`~repro.index.wand.WandSearcher` — exact ``dot(query, ·) + static``
top-k with the engine-wide tie rule (score desc, ad id asc) — but the
traversal is numpy instead of per-posting Python:

* **content-only probes** (no static, no filter: the shared and profile
  probes) are one :meth:`~repro.index.compact.CompactIndex.gather` plus
  one :func:`topk_order` cut — every matching ad is "evaluated" by a
  fused multiply-add, so there is nothing to prune;
* **static-boosted probes** (the exact fallback) gather content for all
  matches, then either evaluate every candidate's static part in one
  vectorized call (``static_block`` — targeting, proximity and bids as
  array arithmetic) or, with per-ad Python callables
  (``static_score``/``filter_fn``), walk candidates in content-descending
  order in chunks, stopping once even ``content + max_static`` cannot
  reach the current k-th score — the TA admissibility argument, applied
  to a content-sorted array instead of impact-ordered postings.

Construction is cheap (the heavy state lives in the shared
:class:`CompactIndex` mirror), so per-probe instantiation — the way
``exact_slate`` uses searchers — costs nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.index.inverted import AdInvertedIndex
from repro.index.wand import FilterFn, StaticScoreFn
from repro.util.heap import BoundedTopK, TopKEntry

# Vectorized static evaluation over a candidate block: returns a keep mask
# and per-row static scores (undefined where masked out).
StaticBlockFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

# Candidates whose static part is evaluated per bound-check round.
_CHUNK = 64


def topk_order(scores: np.ndarray, ad_ids: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` local indices under the engine-wide tie rule (score
    desc, ad id asc: ``BoundedTopK.results()`` order) — the one place the
    array paths cut it. Large sets are pre-cut at the k-th score with a
    linear partition so the lexsort only touches actual contenders.
    """
    n = scores.shape[0]
    if n > 4 * k:
        kth = np.partition(scores, n - k)[n - k]
        contenders = np.flatnonzero(scores >= kth)
        order = np.lexsort((ad_ids[contenders], -scores[contenders]))[:k]
        return contenders[order]
    return np.lexsort((ad_ids, -scores))[:k]


def _entries(scores: np.ndarray, ad_ids: np.ndarray, k: int) -> list[TopKEntry]:
    chosen = topk_order(scores, ad_ids, k)
    return list(map(TopKEntry, scores[chosen].tolist(), ad_ids[chosen].tolist()))


class VectorSearcher:
    """Exact top-k evaluator over a :class:`CompactIndex` mirror."""

    def __init__(
        self,
        index: AdInvertedIndex,
        *,
        static_score: StaticScoreFn | None = None,
        max_static: float = 0.0,
        filter_fn: FilterFn | None = None,
        static_block: StaticBlockFn | None = None,
        compact: CompactIndex | None = None,
    ) -> None:
        if max_static < 0.0:
            raise ConfigError(f"max_static must be >= 0, got {max_static}")
        if static_score is None and static_block is None and max_static > 0.0:
            raise ConfigError("max_static > 0 requires a static_score function")
        if static_score is not None and static_block is not None:
            raise ConfigError("static_score and static_block are exclusive")
        self._compact = compact if compact is not None else CompactIndex.shared(index)
        self._static_score = static_score
        self._static_block = static_block
        self._max_static = max_static
        self._filter_fn = filter_fn
        self.last_evaluations = 0

    def search(self, query: Mapping[str, float], k: int) -> list[TopKEntry]:
        """Exact top-k of ``dot(query, ·) + static`` over matching ads."""
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}")
        compact = self._compact
        compact.maybe_compact()
        rows, contents = compact.gather(query)
        self.last_evaluations = 0
        if not rows.shape[0]:
            return []
        ad_ids = compact.ad_ids[rows]
        if (
            self._static_score is None
            and self._static_block is None
            and self._filter_fn is None
        ):
            self.last_evaluations = int(rows.shape[0])
            return _entries(contents, ad_ids, k)
        if self._static_block is not None:
            return self._block_topk(rows, ad_ids, contents, k)
        return self._boosted_topk(rows, ad_ids, contents, k)

    def _block_topk(
        self,
        rows: np.ndarray,
        ad_ids: np.ndarray,
        contents: np.ndarray,
        k: int,
    ) -> list[TopKEntry]:
        # With a vectorized static function, evaluating every match is
        # cheaper than any pruning walk: one call covers targeting,
        # proximity and bids for the whole block as array arithmetic.
        keep, statics = self._static_block(rows, ad_ids)
        self.last_evaluations = int(rows.shape[0])
        kept = np.flatnonzero(keep)
        if not kept.shape[0]:
            return []
        return _entries(contents[kept] + statics[kept], ad_ids[kept], k)

    def _boosted_topk(
        self,
        rows: np.ndarray,
        ad_ids: np.ndarray,
        contents: np.ndarray,
        k: int,
    ) -> list[TopKEntry]:
        order = np.lexsort((ad_ids, -contents))
        heap = BoundedTopK(k)
        max_static = self._max_static
        static_score = self._static_score
        filter_fn = self._filter_fn
        evaluations = 0
        position = 0
        total = order.shape[0]
        stopped = False
        while position < total and not stopped:
            selected = order[position : position + _CHUNK]
            chunk_ids = ad_ids[selected]
            chunk_contents = contents[selected]
            for i in range(selected.shape[0]):
                # Strict: a candidate that could still *tie* the k-th
                # score must be evaluated (smaller ids win ties).
                if chunk_contents[i] + max_static < heap.threshold():
                    stopped = True
                    break
                evaluations += 1
                ad_id = int(chunk_ids[i])
                if filter_fn is not None and not filter_fn(ad_id):
                    continue
                score = float(chunk_contents[i])
                if static_score is not None:
                    score += static_score(ad_id)
                heap.push(score, ad_id)
            position += _CHUNK
        self.last_evaluations = evaluations
        return heap.results()

"""Vectorized content probe over the compact posting arrays.

Same contract as :class:`~repro.reference.threshold.ThresholdSearcher` with
no static and no filter — exact ``dot(query, ·)`` top-k under the
engine-wide tie rule (score desc, ad id asc) — but the traversal is numpy
instead of per-posting Python: one
:meth:`~repro.index.compact.CompactIndex.gather` plus one
:func:`topk_order` cut. Every matching ad is "evaluated" by a fused
multiply-add, so there is nothing to prune. Static-boosted, targeted
top-k on the arrays is the personalize kernel's job
(:meth:`repro.core.rerank.Personalizer.slate_batch`), which cuts with the
same :func:`topk_order`.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.util.heap import TopKEntry


def topk_order(scores: np.ndarray, ad_ids: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` local indices under the engine-wide tie rule (score
    desc, ad id asc: ``BoundedTopK.results()`` order) — the one place the
    array paths cut it. Large sets are pre-cut at the k-th score with a
    linear partition so the lexsort only touches actual contenders. (The
    ndarray methods, not ``np.partition`` / ``np.flatnonzero``: a run of
    one cuts once per delivery, and their Python wrappers cost more calls
    than the rest of the cut.)
    """
    n = scores.shape[0]
    if n > 4 * k:
        parted = scores.copy()
        parted.partition(n - k)
        kth = parted[n - k]
        contenders = (scores >= kth).nonzero()[0]
        order = np.lexsort((ad_ids[contenders], -scores[contenders]))[:k]
        return contenders[order]
    return np.lexsort((ad_ids, -scores))[:k]


class VectorSearcher:
    """Exact content top-k over a :class:`CompactIndex`."""

    def __init__(self, compact: CompactIndex) -> None:
        self._compact = compact
        self.last_evaluations = 0

    def search(self, query: Mapping[str, float], k: int) -> list[TopKEntry]:
        """Exact top-k of ``dot(query, ·)`` over matching ads."""
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}")
        compact = self._compact
        compact.maybe_compact()
        rows, contents = compact.gather(query)
        self.last_evaluations = int(rows.shape[0])
        ad_ids = compact.ad_ids[rows]
        chosen = topk_order(contents, ad_ids, k)
        return list(
            map(TopKEntry, contents[chosen].tolist(), ad_ids[chosen].tolist())
        )

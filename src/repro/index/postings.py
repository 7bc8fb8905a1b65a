"""Posting lists for one index term.

Each list keeps its entries in two orders:

* **document order** (ascending ad id) — what membership tests and
  removals read;
* **impact order** (descending weight) — what the term-at-a-time threshold
  algorithm walks; rebuilt lazily after mutations since queries dominate.

Weights are strictly positive.
"""

from __future__ import annotations

import bisect

from repro.errors import IndexError_


class PostingList:
    """Sorted (ad_id, weight) postings for a single term."""

    __slots__ = ("_ids", "_impact", "_impact_dirty", "_weights")

    def __init__(self) -> None:
        self._ids: list[int] = []
        self._weights: list[float] = []
        self._impact: list[tuple[float, int]] = []
        self._impact_dirty = False

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, ad_id: int) -> bool:
        index = bisect.bisect_left(self._ids, ad_id)
        return index < len(self._ids) and self._ids[index] == ad_id

    def add(self, ad_id: int, weight: float) -> None:
        """Insert a posting; duplicate ad ids and bad weights are errors."""
        if weight <= 0.0:
            raise IndexError_(f"posting weight must be positive, got {weight}")
        index = bisect.bisect_left(self._ids, ad_id)
        if index < len(self._ids) and self._ids[index] == ad_id:
            raise IndexError_(f"duplicate posting for ad {ad_id}")
        self._ids.insert(index, ad_id)
        self._weights.insert(index, weight)
        self._impact_dirty = True

    def append_maximal(self, ad_id: int, weight: float) -> None:
        """Append a posting whose ad id exceeds every stored one.

        The bulk-build fast path: corpus iteration is ascending by ad id,
        so each posting lands at the tail without a bisect. Falls back to
        :meth:`add` (with its duplicate check) if the id is not maximal.
        """
        if weight <= 0.0:
            raise IndexError_(f"posting weight must be positive, got {weight}")
        ids = self._ids
        if ids and ids[-1] >= ad_id:
            self.add(ad_id, weight)
            return
        ids.append(ad_id)
        self._weights.append(weight)
        self._impact_dirty = True

    def remove(self, ad_id: int) -> None:
        """Delete a posting; missing ad ids are errors."""
        index = bisect.bisect_left(self._ids, ad_id)
        if index >= len(self._ids) or self._ids[index] != ad_id:
            raise IndexError_(f"no posting for ad {ad_id}")
        del self._ids[index]
        del self._weights[index]
        self._impact_dirty = True

    def weight_of(self, ad_id: int) -> float:
        index = bisect.bisect_left(self._ids, ad_id)
        if index >= len(self._ids) or self._ids[index] != ad_id:
            raise IndexError_(f"no posting for ad {ad_id}")
        return self._weights[index]

    # -- document-order access -------------------------------------------

    def doc_ordered(self) -> list[tuple[int, float]]:
        """All postings as (ad_id, weight), ascending ad id (a copy)."""
        return list(zip(self._ids, self._weights))

    # -- impact-order access (threshold algorithm) ---------------------------

    def impact_ordered(self) -> list[tuple[float, int]]:
        """All postings as (weight, ad_id), heaviest first.

        Rebuilt lazily after mutations; ties broken by ad id ascending so
        traversal order is deterministic.
        """
        if self._impact_dirty:
            self._impact = sorted(
                zip(self._weights, self._ids),
                key=lambda pair: (-pair[0], pair[1]),
            )
            self._impact_dirty = False
        return self._impact

"""Compact numpy mirror of the inverted index: the vectorized hot path.

:class:`AdInvertedIndex` stores postings as Python dicts and per-entry
method calls — ideal for incremental maintenance, hopeless for throughput
(F3 shows a single shard collapsing to a few hundred deliveries/s at 8000
ads). :class:`CompactIndex` mirrors the same logical content into flat
arrays that one numpy gather can traverse:

* **Interned ids** — terms get stable ``int32`` ids from an
  :class:`IdInterner` (never reassigned, so term-space dense vectors stay
  valid across rebuilds); ads get dense *row* numbers.
* **Posting arrays** — per term, parallel ``(int32 row, float32 weight)``
  arrays sorted by row (ascending ad insertion order). New ads always
  receive the current maximal row, so incremental appends keep the sort
  order for free. There is no forward (row → terms) view and no
  per-term bound: every dot product the hot path needs is a
  term-at-a-time :meth:`CompactIndex.gather` over these arrays, which
  evaluates every match.

Synchronisation uses the same subscription idiom the index itself uses
against the corpus: the mirror registers add/remove listeners and applies
adds eagerly (cheap — posting lists are short). Removals are O(1): the
row's ``alive`` bit is cleared and the posting entries are left in place,
masked out at gather time. When the dead fraction crosses
``rebuild_dead_fraction`` the whole mirror is compacted from the source
index — rows are reassigned, ``generation`` is bumped so row-keyed caches
invalidate, and term ids are preserved. Results are exact at every point
in between; the threshold only bounds wasted memory and gather width
under sliding-window churn.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import ConfigError, IndexError_
from repro.index.inverted import AdInvertedIndex


class IdInterner:
    """Stable string → dense ``int`` interning.

    Ids are assigned in first-seen order and never reassigned or recycled
    — a term keeps its id across compactions, which is what lets dense
    term-space vectors and posting arrays survive a rebuild untouched.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        """The name's id, assigning the next dense id on first sight."""
        idx = self._ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._ids[name] = idx
            self._names.append(name)
        return idx

    def lookup(self, name: str) -> int | None:
        """The name's id, or None if it was never interned."""
        return self._ids.get(name)

    def name_of(self, idx: int) -> str:
        """Reverse lookup; raises :class:`IndexError_` for unknown ids."""
        if not 0 <= idx < len(self._names):
            raise IndexError_(f"unknown interned id {idx}")
        return self._names[idx]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity >= needed (doubling, zero-filled)."""
    if array.shape[0] >= needed:
        return array
    capacity = max(needed, 2 * array.shape[0], 16)
    grown = np.zeros(capacity, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class CompactIndex:
    """Array-backed mirror of one :class:`AdInvertedIndex`."""

    def __init__(
        self,
        index: AdInvertedIndex,
        *,
        rebuild_dead_fraction: float = 0.25,
        min_rebuild_dead: int = 64,
    ) -> None:
        if not 0.0 < rebuild_dead_fraction <= 1.0:
            raise ConfigError(
                f"rebuild_dead_fraction must be in (0, 1], "
                f"got {rebuild_dead_fraction}"
            )
        if min_rebuild_dead < 1:
            raise ConfigError(
                f"min_rebuild_dead must be >= 1, got {min_rebuild_dead}"
            )
        self._index = index
        self._rebuild_dead_fraction = rebuild_dead_fraction
        self._min_rebuild_dead = min_rebuild_dead
        self.terms = IdInterner()
        # Monotone counters: generation invalidates row-keyed caches.
        self.generation = 0
        self.rebuilds = 0
        self._num_rows = 0
        self._dead = 0
        self._row_of: dict[int, int] = {}
        self._ad_ids = np.zeros(0, dtype=np.int64)
        self._alive = np.zeros(0, dtype=bool)
        # Per-term posting arrays (indexed by term id).
        self._term_rows: list[np.ndarray] = []
        self._term_weights: list[np.ndarray] = []
        # Score accumulator scratch, zeroed after every gather.
        self._scores = np.zeros(0, dtype=np.float64)
        self._rebuild()
        index.subscribe(on_add=self._on_add, on_remove=self._on_remove)

    @classmethod
    def shared(cls, index: AdInvertedIndex) -> "CompactIndex":
        """The per-index shared mirror (created on first request).

        Every reader of the same index (the probe, the personalize kernel,
        each VectorSearcher) must reuse one mirror. The index owns it, so
        the pair dies together; a module-level registry keyed weakly by
        the index would pin both, because the mirror references its key.
        """
        if index.compact_mirror is None:
            index.compact_mirror = cls(index)
        return index.compact_mirror

    # -- read side -----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Allocated rows, dead ones included."""
        return self._num_rows

    @property
    def num_alive(self) -> int:
        return self._num_rows - self._dead

    @property
    def dead_fraction(self) -> float:
        return self._dead / self._num_rows if self._num_rows else 0.0

    @property
    def ad_ids(self) -> np.ndarray:
        """row → ad id (read-only view)."""
        return self._ad_ids[: self._num_rows]

    @property
    def alive(self) -> np.ndarray:
        """row → liveness (read-only view)."""
        return self._alive[: self._num_rows]

    def row_of(self, ad_id: int) -> int:
        """The ad's current row; raises :class:`IndexError_` if unknown."""
        row = self._row_of.get(ad_id)
        if row is None:
            raise IndexError_(f"ad {ad_id} not indexed")
        return row

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Row-sorted ``(rows, weights)`` posting arrays for one term.

        Empty arrays for unknown terms; dead rows may be present and must
        be masked through :attr:`alive` by the caller.
        """
        tid = self.terms.lookup(term)
        if tid is None:
            return (
                np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=np.float32),
            )
        return self._term_rows[tid], self._term_weights[tid]

    # -- kernels ------------------------------------------------------------

    def gather(self, query: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate ``dot(query, ad)`` over every matching live ad.

        Returns ``(rows, scores)`` — rows ascending, scores float64 — for
        all alive rows sharing at least one positive-weight query term.
        Mirrors the searcher contract: negative weights raise
        :class:`ConfigError`, zero weights are skipped.
        """
        scores = self._scores
        touched: list[np.ndarray] = []
        lookup = self.terms.lookup
        for term, qweight in query.items():
            if qweight < 0.0:
                raise ConfigError(f"negative query weight for {term!r}")
            if qweight == 0.0:
                continue
            tid = lookup(term)
            if tid is None:
                continue
            rows = self._term_rows[tid]
            if not rows.shape[0]:
                continue
            # Rows are unique within one term's postings, so a fancy-index
            # add is safe (and much faster than np.add.at). float64
            # accumulation over float32 storage keeps summation error at
            # storage precision (~1e-7).
            scores[rows] += self._term_weights[tid].astype(np.float64) * qweight
            touched.append(rows)
        if not touched:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        candidates = np.unique(np.concatenate(touched)).astype(np.int64)
        gathered = scores[candidates].copy()
        scores[candidates] = 0.0  # restore the scratch invariant
        keep = self._alive[candidates]
        return candidates[keep], gathered[keep]

    # -- synchronisation ------------------------------------------------------

    def maybe_compact(self) -> bool:
        """Compact when the dead fraction crosses the rebuild threshold.

        Returns True when a rebuild happened (rows reassigned,
        ``generation`` bumped). Callers on the delivery path invoke this
        once per delivery *before* caching any row numbers.
        """
        if self._dead < self._min_rebuild_dead:
            return False
        if self.dead_fraction < self._rebuild_dead_fraction:
            return False
        self._rebuild()
        return True

    def _on_add(self, ad_id: int, terms: Mapping[str, float]) -> None:
        if ad_id in self._row_of:
            # The source index rejects duplicate adds before notifying, so
            # a mapped id here means remove+re-add: the old row is dead.
            assert not self._alive[self._row_of[ad_id]]
        row = self._num_rows
        self._num_rows += 1
        self._ad_ids = _grow(self._ad_ids, self._num_rows)
        self._alive = _grow(self._alive, self._num_rows)
        self._scores = _grow(self._scores, self._num_rows)
        self._ad_ids[row] = ad_id
        self._alive[row] = True
        self._row_of[ad_id] = row
        interned = [
            (self.terms.intern(term), weight) for term, weight in terms.items()
        ]
        while len(self._term_rows) < len(self.terms):
            self._term_rows.append(np.zeros(0, dtype=np.int32))
            self._term_weights.append(np.zeros(0, dtype=np.float32))
        for tid, weight in interned:
            # The new row is maximal, so appending preserves row order.
            self._term_rows[tid] = np.append(
                self._term_rows[tid], np.int32(row)
            )
            self._term_weights[tid] = np.append(
                self._term_weights[tid], np.float32(weight)
            )

    def _on_remove(self, ad_id: int, terms: Mapping[str, float]) -> None:
        row = self._row_of.pop(ad_id, None)
        if row is None or not self._alive[row]:
            raise IndexError_(f"ad {ad_id} not mirrored")
        self._alive[row] = False
        self._dead += 1
        # Posting entries stay in place (masked at gather time) until the
        # next compaction.

    def _rebuild(self) -> None:
        """Rebuild every array from the source index, compacting rows.

        Term ids are preserved (the interner is append-only); row numbers
        are reassigned in ascending ad-id order, and ``generation`` is
        bumped so anything keyed by old rows re-derives itself.
        """
        entries = sorted(self._index.items())
        self.generation += 1
        self.rebuilds += 1
        self._num_rows = len(entries)
        self._dead = 0
        self._row_of = {ad_id: row for row, (ad_id, _) in enumerate(entries)}
        self._ad_ids = np.fromiter(
            (ad_id for ad_id, _ in entries), dtype=np.int64, count=len(entries)
        )
        self._alive = np.ones(self._num_rows, dtype=bool)
        self._scores = np.zeros(self._num_rows, dtype=np.float64)

        # One pass per *term* (not per posting): each posting list hands
        # over its ids/weights as arrays, rows come from one searchsorted
        # against the ascending ad-id axis, and the rest is pure array
        # work — the per-term postings are a re-sorted view over the flat
        # triplets.
        intern = self.terms.intern
        tid_list: list[int] = []
        counts: list[int] = []
        chunk_ids: list[np.ndarray] = []
        chunk_weights: list[np.ndarray] = []
        for term, postings in self._index.term_items():
            tid_list.append(intern(term))
            ids, term_weights = postings.doc_arrays()
            counts.append(ids.shape[0])
            chunk_ids.append(ids)
            chunk_weights.append(term_weights)
        if chunk_ids:
            rows = np.searchsorted(self._ad_ids, np.concatenate(chunk_ids))
            tids = np.repeat(
                np.asarray(tid_list, dtype=np.int64),
                np.asarray(counts, dtype=np.int64),
            )
            weights = np.concatenate(chunk_weights)
        else:
            rows = np.zeros(0, dtype=np.int64)
            tids = np.zeros(0, dtype=np.int64)
            weights = np.zeros(0, dtype=np.float64)
        num_terms = len(self.terms)

        # Per-term postings: the triplets sorted by (term id, row),
        # split at term boundaries (views into the flat arrays).
        order = np.lexsort((rows, tids))
        term_rows_flat = rows[order].astype(np.int32)
        term_weights_flat = weights[order].astype(np.float32)
        term_counts = np.bincount(tids, minlength=num_terms)
        bounds = np.zeros(num_terms + 1, dtype=np.int64)
        np.cumsum(term_counts, out=bounds[1:])
        if num_terms:
            self._term_rows = np.split(term_rows_flat, bounds[1:-1])
            self._term_weights = np.split(term_weights_flat, bounds[1:-1])
        else:
            self._term_rows = []
            self._term_weights = []

    # -- invariants (test support) -------------------------------------------

    def check_consistent(self) -> None:
        """Assert the mirror matches the source index exactly.

        Used by the churn property tests after every mutation and rebuild
        trigger; raises AssertionError on any divergence.
        """
        index = self._index
        alive_ids = {
            int(self._ad_ids[row])
            for row in range(self._num_rows)
            if self._alive[row]
        }
        assert alive_ids == {ad_id for ad_id, _ in index.items()}, (
            "alive rows diverge from indexed ads"
        )
        assert self._dead == self._num_rows - len(alive_ids)
        # Postings per row, counted from the per-term arrays: with every
        # expected term verified below, an equal count rules out a stray
        # posting for a term the ad does not have.
        posting_counts = np.zeros(self._num_rows, dtype=np.int64)
        for rows in self._term_rows:
            posting_counts += np.bincount(rows, minlength=self._num_rows)
        for ad_id in alive_ids:
            row = self._row_of[ad_id]
            assert self._alive[row] and int(self._ad_ids[row]) == ad_id
            expected = index.ad_terms(ad_id)
            assert int(posting_counts[row]) == len(expected), (
                f"row {row} has postings for terms ad {ad_id} lacks"
            )
            for term, weight in expected.items():
                rows, weights = self.term_postings(term)
                positions = np.flatnonzero(rows == row)
                assert len(positions) == 1, (
                    f"term {term!r} row {row} multiplicity"
                )
                assert abs(float(weights[positions[0]]) - weight) < 1e-6
        for tid in range(len(self.terms)):
            rows = self._term_rows[tid]
            assert np.all(np.diff(rows) > 0), "posting rows must be sorted"

"""The vector engine's one index: the corpus's active ads as flat numpy
posting arrays.

The ``ta`` reference's :class:`~repro.reference.inverted.AdInvertedIndex`
stores postings as Python dicts and per-entry method calls — hopeless
for throughput (F3 shows a single shard collapsing to a few hundred
deliveries/s at 8000 ads). :class:`CompactIndex` holds every active ad's
term vector in flat arrays that one numpy gather can traverse, built and
kept current from the :class:`~repro.ads.corpus.AdCorpus` itself:

* **Interned ids** — terms get stable ``int32`` ids from an
  :class:`IdInterner` (never reassigned, so term-space dense vectors stay
  valid across rebuilds); ads get dense *row* numbers, ascending by ad id
  at every build.
* **One flat posting block** — every posting as ``(int64 row, float64
  weight)``, sorted by (term id, row), plus a ``(start, length)`` pair per
  term id; the weight is the float32-rounded value, widened once at build
  time. :meth:`CompactIndex.gather` takes the slices of all query terms in
  one pass and accumulates them with one ordered reduction, so a probe
  costs the same handful of numpy calls whatever its term count. There is
  no forward (row → terms) view and no per-term bound: the gather
  evaluates every match.
* **A tail for launches** — a new ad always receives the current maximal
  row; its postings go to a second, small segment of the same layout, so
  a launch costs that segment and copies nothing of the base. A row
  lives in exactly one segment. The tail is folded into the base at
  compaction, or once it passes a fixed fraction of the base.

Synchronisation is the corpus's listener idiom: the index registers
``on_add`` / ``on_retire`` and applies adds eagerly (cheap — the tail is
short). Retirements are O(1): the row's ``alive`` bit is cleared and the
posting entries are left in place, masked out at gather time. When the
dead fraction crosses ``rebuild_dead_fraction`` the arrays are compacted
from the corpus's active ads — rows are reassigned, ``generation`` is
bumped so row-keyed caches invalidate, and term ids are preserved.
Results are exact at every point in between; the threshold only bounds
wasted memory and gather width under sliding-window churn.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError, IndexError_


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


# What a gather matching nothing returns (never written to).
_NO_MATCH = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

# Every add rebuilds the tail (cost: the tail) and a fold rebuilds the
# base with it, so the tail is folded once it passes this fraction of
# the base: geometric, like ``_grow`` — a posting is copied O(1) times
# over any sequence of launches, and an add never costs more than a
# fraction of a fold.
_TAIL_FOLD_FRACTION = 8


class _Postings:
    """One segment of the index: postings as one flat block.

    ``rows`` / ``weights`` are sorted by (term id, row); term ``tid``
    owns ``[starts[tid], starts[tid] + lengths[tid])``. Weights are
    float32-rounded values held as float64, so a gather multiplies the
    doubles a per-call ``astype`` would produce.
    """

    __slots__ = ("rows", "weights", "starts", "lengths")

    def __init__(
        self, tids: np.ndarray, rows: np.ndarray, weights: np.ndarray, num_terms: int
    ) -> None:
        order = np.lexsort((rows, tids))
        self.rows = rows[order]
        self.weights = weights[order].astype(np.float32).astype(np.float64)
        self.lengths = np.bincount(tids, minlength=num_terms)
        self.starts = np.cumsum(self.lengths) - self.lengths

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block as ``(term ids, rows, weights)``: constructor input."""
        term_ids = np.repeat(np.arange(self.lengths.shape[0]), self.lengths)
        return term_ids, self.rows, self.weights

    def cover_terms(self, num_terms: int) -> None:
        """Give term ids interned since the build their empty slice."""
        self.starts = _grow(self.starts, num_terms)
        self.lengths = _grow(self.lengths, num_terms)


class CompactIndex:
    """Flat posting arrays over one corpus's active ads, fed by it."""

    def __init__(
        self,
        corpus: AdCorpus,
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
        self._corpus = corpus
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
        # The postings: ``(base,)``, or ``(base, tail)`` once rows were
        # appended to the base ``_rebuild`` built.
        self._segments: tuple[_Postings, ...]
        self._rebuild()
        corpus.subscribe(on_add=self._on_add, on_retire=self._on_retire)

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
        """Row-sorted ``(rows, weights)`` postings of one term (a copy).

        Empty arrays for unknown terms; dead rows may be present and must
        be masked through :attr:`alive` by the caller.
        """
        rows = [np.zeros(0, dtype=np.int64)]
        weights = [np.zeros(0, dtype=np.float64)]
        tid = self.terms.lookup(term)
        if tid is not None:
            # Tail rows all follow base rows: base-then-tail is row order.
            for segment in self._segments:
                start = segment.starts[tid]
                part = slice(start, start + segment.lengths[tid])
                rows.append(segment.rows[part])
                weights.append(segment.weights[part])
        return np.concatenate(rows), np.concatenate(weights)

    # -- kernels ------------------------------------------------------------

    def gather(self, query: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate ``dot(query, ad)`` over every matching live ad.

        Returns ``(rows, scores)`` — rows ascending, scores float64 — for
        all alive rows sharing at least one positive-weight query term.
        Mirrors the searcher contract: negative weights raise
        :class:`ConfigError`, zero weights are skipped.

        One pass whatever the term count: the query's posting slices are
        addressed together and summed by one ``np.bincount``, which adds
        in input order — per row, query-term order, each product the
        double ``float64(float32 weight) * query weight`` — so every
        score is the double a term-at-a-time ``scores[rows] += …`` loop
        produces (tests/test_index_compact.py keeps that loop as oracle).
        """
        lookup = self.terms.lookup
        tid_list: list[int] = []
        qweight_list: list[float] = []
        for term, qweight in query.items():
            if qweight < 0.0:
                raise ConfigError(f"negative query weight for {term!r}")
            if qweight == 0.0:
                continue
            tid = lookup(term)
            if tid is not None:
                tid_list.append(tid)
                qweight_list.append(qweight)
        if not tid_list:
            return _NO_MATCH
        tids = np.array(tid_list, dtype=np.int64)
        qweights = np.array(qweight_list, dtype=np.float64)
        row_parts: list[np.ndarray] = []
        product_parts: list[np.ndarray] = []
        for segment in self._segments:
            lengths = segment.lengths[tids]
            ends = np.cumsum(lengths)
            # Position i of the concatenated slices sits at block position
            # i + (its slice's start − the slices' lengths before it).
            positions = np.arange(ends[-1])
            positions += np.repeat(segment.starts[tids] - ends + lengths, lengths)
            products = segment.weights[positions]
            products *= np.repeat(qweights, lengths)
            row_parts.append(segment.rows[positions])
            product_parts.append(products)
        # A row lives in one segment, so base-then-tail keeps each row's
        # products in query-term order.
        rows = np.concatenate(row_parts)
        if not rows.shape[0]:
            # Every slice empty (a compaction dropped the terms' ads):
            # ``bincount`` would hand back integer counts.
            return _NO_MATCH
        size = self._num_rows
        scores = np.bincount(rows, weights=np.concatenate(product_parts), minlength=size)
        matched = np.zeros(size, dtype=bool)
        matched[rows] = True
        matched &= self._alive[:size]
        candidates = np.flatnonzero(matched)
        return candidates, scores[candidates]

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

    def _on_add(self, ad: Ad) -> None:
        ad_id, terms = ad.ad_id, ad.terms
        if ad_id in self._row_of:
            # ``_on_retire`` unmaps a retired id, so a mapped id is a live
            # ad added twice (the corpus rejects that before notifying;
            # another notifier may not).
            raise IndexError_(f"ad {ad_id} already indexed")
        row = self._num_rows
        self._num_rows += 1
        self._ad_ids = _grow(self._ad_ids, self._num_rows)
        self._alive = _grow(self._alive, self._num_rows)
        self._ad_ids[row] = ad_id
        self._alive[row] = True
        self._row_of[ad_id] = row
        # The new row is maximal, so it belongs behind every posting the
        # base holds: it joins the tail, and the base is not copied —
        # until the tail has outgrown its share and both become one base.
        intern = self.terms.intern
        base, *tail = self._segments
        columns = [segment.columns() for segment in tail]
        columns.append(
            (
                np.array([intern(term) for term in terms], dtype=np.int64),
                np.full(len(terms), row, dtype=np.int64),
                np.fromiter(terms.values(), dtype=np.float64, count=len(terms)),
            )
        )
        num_terms = len(self.terms)
        tail_size = sum(rows.shape[0] for _, rows, _ in columns)
        if tail_size * _TAIL_FOLD_FRACTION > base.rows.shape[0]:
            columns.append(base.columns())
            kept = ()
        else:
            base.cover_terms(num_terms)
            kept = (base,)
        merged = _Postings(*map(np.concatenate, zip(*columns)), num_terms)
        self._segments = (*kept, merged)

    def _on_retire(self, ad: Ad) -> None:
        row = self._row_of.pop(ad.ad_id, None)
        if row is None or not self._alive[row]:
            raise IndexError_(f"ad {ad.ad_id} not indexed")
        self._alive[row] = False
        self._dead += 1
        # Posting entries stay in place (masked at gather time) until the
        # next compaction.

    def _rebuild(self) -> None:
        """Rebuild every array from the corpus's active ads, compacting rows.

        Term ids are preserved (the interner is append-only; new terms
        are interned in ad-id, then ``ad.terms``, order); row numbers are
        reassigned in ascending ad-id order, and ``generation`` is bumped
        so anything keyed by old rows re-derives itself.
        """
        ads = list(self._corpus.active_ads())
        self.generation += 1
        self.rebuilds += 1
        num_rows = self._num_rows = len(ads)
        self._dead = 0
        ad_ids = [ad.ad_id for ad in ads]
        self._row_of = dict(zip(ad_ids, range(num_rows)))
        self._ad_ids = np.array(ad_ids, dtype=np.int64)
        self._alive = np.ones(num_rows, dtype=bool)
        intern = self.terms.intern
        tids: list[int] = []
        weights: list[float] = []
        counts: list[int] = []
        for ad in ads:
            terms = ad.terms
            counts.append(len(terms))
            tids.extend(map(intern, terms))
            weights.extend(terms.values())
        self._segments = (
            _Postings(
                np.array(tids, dtype=np.int64),
                np.repeat(
                    np.arange(num_rows, dtype=np.int64),
                    np.array(counts, dtype=np.int64),
                ),
                np.array(weights, dtype=np.float64),
                len(self.terms),
            ),
        )

    # -- invariants (test support) -------------------------------------------

    def check_consistent(self) -> None:
        """Assert the arrays hold the corpus's active ads exactly.

        Used by the churn property tests after every mutation and rebuild
        trigger; raises AssertionError on any divergence.
        """
        corpus = self._corpus
        alive_ids = {
            int(self._ad_ids[row])
            for row in range(self._num_rows)
            if self._alive[row]
        }
        assert alive_ids == set(corpus.active_ids()), (
            "alive rows diverge from the corpus's active ads"
        )
        assert self._dead == self._num_rows - len(alive_ids)
        # Every segment is one tiled block, row-sorted inside each term's
        # slice, and a row lives in one segment: the tail's rows all follow
        # the base's.
        posting_counts = np.zeros(self._num_rows, dtype=np.int64)
        first_row = 0
        for segment in self._segments:
            rows, lengths = segment.rows, segment.lengths
            assert lengths.shape[0] >= len(self.terms)
            assert int(lengths.sum()) == rows.shape[0] == segment.weights.shape[0]
            # An empty slice's start is never read (``cover_terms`` pads 0).
            starts = segment.starts[lengths > 0]
            assert np.array_equal(starts, (np.cumsum(lengths) - lengths)[lengths > 0])
            within_term = np.ones(rows.shape[0], dtype=bool)
            within_term[starts] = False
            assert np.all(np.diff(rows)[within_term[1:]] > 0), (
                "posting rows must be sorted"
            )
            if rows.shape[0]:
                assert first_row <= int(rows.min()), "a row in two segments"
                first_row = int(rows.max()) + 1
            assert first_row <= self._num_rows
            assert np.array_equal(
                segment.weights, segment.weights.astype(np.float32)
            ), "weights are float32 values"
            posting_counts += np.bincount(rows, minlength=self._num_rows)
        # With every expected term verified below, an equal count rules
        # out a stray posting for a term the ad does not have.
        for ad_id in alive_ids:
            row = self._row_of[ad_id]
            assert self._alive[row] and int(self._ad_ids[row]) == ad_id
            expected = corpus.get(ad_id).terms
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

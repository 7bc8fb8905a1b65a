"""The ranking function and its pruning-safe upper bounds.

One :class:`ScoringModel` instance is shared by every pipeline variant and
every baseline so comparisons are apples-to-apples. The model exposes three
views of the same additive score:

* component scores (content / profile / geo / bid) for a known candidate;
* a *static score function* over ad ids — the query-independent part an
  index probe adds on top of the content dot product;
* a *combined query vector* ``alpha·message + beta·profile`` that folds the
  profile term into the dot product, which is what makes an exact one-probe
  evaluation possible.

Matching semantics (the "relevance floor"): an ad is a candidate for a
delivery only if it shares at least one term with the combined query, i.e.
has non-zero content affinity or — while ``beta > 0`` keeps the profile in
that query — non-zero profile affinity. Ads with zero affinity are never
served, no matter their bid.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.ads.budget import BudgetManager
from repro.ads.corpus import AdCorpus
from repro.ads.ctr import QUALITY_CAP, CtrEstimator
from repro.ads.targeting import SECONDS_PER_DAY
from repro.core.config import ScoringWeights
from repro.geo.point import EARTH_RADIUS_KM, GeoPoint
from repro.util.sparse import MutableSparseVector, SparseVector, dot

if TYPE_CHECKING:
    from repro.index.compact import CompactIndex


class ScoredAd(NamedTuple):
    """One slate entry: ad id, total score, and its two halves."""

    ad_id: int
    score: float
    content: float
    static: float


class Slate(Sequence):
    """One served slate: four columns, read as an immutable sequence of
    :class:`ScoredAd`.

    ``ad_ids`` (int64) and ``scores`` / ``contents`` / ``statics``
    (float64) are arrays, entry for entry in slate order. A slate is one
    ``[start, stop)`` span of four columns: a block's (:meth:`spans`),
    shared with the block's other slates, or its own — ``Slate(...)``
    over four arrays is the span ``[0, n)`` of them. It makes no array
    of its own: a column is a view made when something reads it, and the
    columns are shared and never written. An
    entry is boxed only when something reads one: iteration and indexing
    box in C (``tuple.__new__`` over the ``tolist()`` columns), while
    ``len``, ``bool`` and slicing stay in arrays. Against a tuple of the
    same entries a slate is ``==``, hashes and prints alike; it pickles
    as four plain lists, its span's.

    It is not a tuple of entries on purpose: CPython stops tracking an
    *exact* tuple of untracked items at its first collection, but a
    tuple subclass such as ``ScoredAd`` stays tracked for life, so every
    entry a caller keeps would be walked again by every full collection.
    A slate is one tracked object over untracked arrays.
    """

    __slots__ = ("_ad_ids", "_scores", "_contents", "_statics", "_start", "_stop")

    def __new__(
        cls,
        ad_ids: np.ndarray,
        scores: np.ndarray,
        contents: np.ndarray,
        statics: np.ndarray,
    ) -> "Slate":
        slate = object.__new__(cls)
        slate._ad_ids = ad_ids
        slate._scores = scores
        slate._contents = contents
        slate._statics = statics
        slate._start = 0
        slate._stop = len(ad_ids)
        return slate

    @staticmethod
    def spans(
        ad_ids: np.ndarray,
        scores: np.ndarray,
        contents: np.ndarray,
        statics: np.ndarray,
        stops: list[int],
    ) -> list["Slate"]:
        """One slate per span of a block's four columns, in order: the
        first from 0 to ``stops[0]``, each next from where the last
        stopped (``stops`` ascending). No array is made per slate."""
        slates = []
        new = object.__new__
        start = 0
        for stop in stops:
            slate = new(Slate)
            slate._ad_ids = ad_ids
            slate._scores = scores
            slate._contents = contents
            slate._statics = statics
            slate._start = start
            slate._stop = start = stop
            slates.append(slate)
        return slates

    @staticmethod
    def of(entries: Iterable[ScoredAd]) -> "Slate":
        """The slate of ``entries``, in order (the per-entry paths: the
        ``ta`` reference, degraded serving, INCREMENTAL)."""
        columns = tuple(zip(*entries))
        return _columns_slate(*columns) if columns else EMPTY_SLATE

    @property
    def ad_ids(self) -> np.ndarray:
        return self._ad_ids[self._start : self._stop]

    @property
    def scores(self) -> np.ndarray:
        return self._scores[self._start : self._stop]

    @property
    def contents(self) -> np.ndarray:
        return self._contents[self._start : self._stop]

    @property
    def statics(self) -> np.ndarray:
        return self._statics[self._start : self._stop]

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[ScoredAd]:
        return map(
            tuple.__new__,
            repeat(ScoredAd),
            zip(
                self.ad_ids.tolist(),
                self.scores.tolist(),
                self.contents.tolist(),
                self.statics.tolist(),
            ),
        )

    def __getitem__(self, index: int | slice) -> "ScoredAd | Slate":
        if isinstance(index, slice):
            return Slate(
                self.ad_ids[index],
                self.scores[index],
                self.contents[index],
                self.statics[index],
            )
        index = operator.index(index)
        return tuple.__new__(
            ScoredAd,
            (
                self.ad_ids.item(index),
                self.scores.item(index),
                self.contents.item(index),
                self.statics.item(index),
            ),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, Slate)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return _columns_slate, (
            self.ad_ids.tolist(),
            self.scores.tolist(),
            self.contents.tolist(),
            self.statics.tolist(),
        )


def _columns_slate(
    ad_ids: Iterable[int],
    scores: Iterable[float],
    contents: Iterable[float],
    statics: Iterable[float],
) -> Slate:
    """A slate from four column sequences (an unpickled slate's lists)."""
    return Slate(
        np.array(ad_ids, dtype=np.int64),
        np.array(scores, dtype=np.float64),
        np.array(contents, dtype=np.float64),
        np.array(statics, dtype=np.float64),
    )


#: The slate with no entries, shared.
EMPTY_SLATE = _columns_slate((), (), (), ())


class StaticRowCache:
    """Query-independent per-row features for the compact hot path.

    Mirrors the static inputs of :meth:`ScoringModel.evaluate` into
    row-indexed arrays: the raw bid (normalised against the live
    ``max_bid`` at evaluation time, matching
    :meth:`~repro.ads.corpus.AdCorpus.normalized_bid`), per-row targeting
    masks, and the targeting geometry itself. Every circle is a flat
    ``(row, centre, radius)`` record, rows ascending, over a table of
    interned centres: the benchmark catalog's 1,183 circles sit on 12
    centres, so a location costs one haversine per centre
    (:meth:`_centre_distances`) and a gather. Every time window is two
    *steps* — its start opens it, its end closes it — in flat arrays
    sorted by hour, so the time mask advances across the ends an event's
    hour crossed instead of being rebuilt. That lets
    :meth:`targeting_full` / :meth:`time_keep_full` evaluate the geo/time
    predicate and the proximity score over every row with a few numpy
    calls instead of per-ad Python calls. Next to the bids it keeps each
    row's slot in the budget manager's and the CTR estimator's dense
    state arrays, so the dynamic half of the bid term is a gather
    (:meth:`ScoringModel._bid_block`) and a served slate's charge and
    feedback are gathers at its rows; a slot belongs to an ad for life,
    so the maps never go stale between syncs.

    Synced lazily, and the state follows the stream: appended rows
    (a launch) extend the arrays by their own records, and every
    targeting result kept so far is extended rather than dropped; a
    compaction (generation bump) renumbers the rows and drops it all.
    """

    def __init__(self, corpus: AdCorpus, compact: "CompactIndex") -> None:
        self._corpus = corpus
        self._compact = compact
        self._generation = -1
        self._clear()

    def _clear(self) -> None:
        """Every row array empty, every targeting result dropped."""
        self._synced_rows = 0
        self.bids = np.zeros(0, dtype=np.float64)
        self.pacing_slots = np.zeros(0, dtype=np.int64)
        self.quality_slots = np.zeros(0, dtype=np.int64)
        self._geo_targeted = np.zeros(0, dtype=bool)
        self._time_targeted = np.zeros(0, dtype=bool)
        # Circle centres, interned by coordinates: latitude and longitude
        # in radians and the latitude's cosine, computed once a centre.
        self._centres: dict[tuple[float, float], int] = {}
        self._centre_lat = np.zeros(0, dtype=np.float64)
        self._centre_lon = np.zeros(0, dtype=np.float64)
        self._centre_cos = np.zeros(0, dtype=np.float64)
        # Circles in row order: row, centre index, radius.
        self._circle_rows = np.zeros(0, dtype=np.int64)
        self._circle_centre = np.zeros(0, dtype=np.int64)
        self._circle_radius = np.zeros(0, dtype=np.float64)
        # Window steps by hour ascending: the hours (a list, for bisect),
        # each step's row and +1 (a start) or -1 (an end); and per row,
        # its windows that wrap past midnight, open at hour 0.
        self._step_hours: list[float] = []
        self._step_rows = np.zeros(0, dtype=np.int64)
        self._step_deltas = np.zeros(0, dtype=np.int64)
        self._wrapping = np.zeros(0, dtype=np.int64)
        # Per location (keyed by coordinates), only what depends on it —
        # the matched geo rows and their best falloff, a few per cent of
        # the rows — over a shared dense base. ``_geo_hits`` covers every
        # circle, so a read is one lookup; a launch with circles moves
        # its entries to ``_geo_behind`` and the next read of each
        # extends it by the circles past ``_geo_covered[key]``.
        self._geo_hits: dict[
            tuple[float, float] | None, tuple[np.ndarray, np.ndarray]
        ] = {}
        self._geo_behind: dict[
            tuple[float, float] | None, tuple[np.ndarray, np.ndarray]
        ] = {}
        self._geo_covered: dict[tuple[float, float] | None, int] = {}
        self._geo_hits_stored = 0
        self._geo_base: tuple[np.ndarray, np.ndarray] | None = None
        # The last time mask: (step position of its hour, the mask, each
        # row's open windows).
        self._full_time: tuple[int, np.ndarray, np.ndarray] | None = None

    def sync(self, budget: BudgetManager | None, ctr: CtrEstimator | None) -> None:
        """Extend the row arrays to the index's row space; new rows look
        their slots up in the scoring model's ``budget`` / ``ctr``."""
        compact = self._compact
        if self._generation != compact.generation:
            self._generation = compact.generation
            self._clear()
        first, num_rows = self._synced_rows, compact.num_rows
        if first >= num_rows:
            return
        self.bids = _grown(self.bids, num_rows, np.float64)
        self.pacing_slots = _grown(self.pacing_slots, num_rows, np.int64)
        self.quality_slots = _grown(self.quality_slots, num_rows, np.int64)
        self._geo_targeted = _grown(self._geo_targeted, num_rows, bool)
        self._time_targeted = _grown(self._time_targeted, num_rows, bool)
        self._wrapping = _grown(self._wrapping, num_rows, np.int64)
        corpus = self._corpus
        ad_ids = compact.ad_ids
        centres = self._centres
        known = len(centres)
        circles: list[tuple[int, int, float]] = []
        steps: list[tuple[float, int, int]] = []
        for row in range(first, num_rows):
            ad = corpus.get(int(ad_ids[row]))
            self.bids[row] = ad.bid
            if budget is not None:
                self.pacing_slots[row] = budget.slot_of(ad.ad_id)
            if ctr is not None:
                self.quality_slots[row] = ctr.slot_of(ad.ad_id)
            spec = ad.targeting
            if spec.circles:
                self._geo_targeted[row] = True
                for center, radius in spec.circles:
                    centre = centres.setdefault(
                        (center.lat, center.lon), len(centres)
                    )
                    circles.append((row, centre, radius))
            if spec.time_windows:
                self._time_targeted[row] = True
                for window in spec.time_windows:
                    steps.append((window.start_hour, row, 1))
                    steps.append((window.end_hour, row, -1))
                    if window.start_hour > window.end_hour:
                        self._wrapping[row] += 1
        self._synced_rows = num_rows
        if len(centres) > known:
            lat, lon = zip(*list(centres)[known:])
            lat = list(map(math.radians, lat))
            self._centre_lat = np.append(self._centre_lat, lat)
            self._centre_lon = np.append(
                self._centre_lon, list(map(math.radians, lon))
            )
            self._centre_cos = np.append(self._centre_cos, list(map(math.cos, lat)))
        if circles:
            rows, centre, radius = zip(*circles)
            self._circle_rows = np.append(self._circle_rows, rows)
            self._circle_centre = np.append(self._circle_centre, centre)
            self._circle_radius = np.append(self._circle_radius, radius)
            # Every kept location now falls behind by these circles.
            self._geo_behind.update(self._geo_hits)
            self._geo_hits = {}
        base = self._geo_base
        if base is not None:
            added = self._geo_targeted[first:]
            self._geo_base = (
                np.concatenate((base[0], ~added)),
                np.concatenate((base[1], np.where(added, 0.0, 1.0))),
            )
        if steps:
            # New ends change the step positions: merged in, and the next
            # read rebuilds the mask.
            hours, rows, deltas = zip(*steps)
            hours = np.append(self._step_hours, hours)
            order = np.argsort(hours, kind="stable")
            self._step_hours = hours[order].tolist()
            self._step_rows = np.append(self._step_rows, rows)[order]
            self._step_deltas = np.append(self._step_deltas, deltas)[order]
            self._full_time = None
        elif self._full_time is not None:
            # Rows without windows: open at every hour, none counted.
            position, keep, open_windows = self._full_time
            added = num_rows - first
            self._full_time = (
                position,
                np.concatenate((keep, np.ones(added, dtype=bool))),
                np.concatenate((open_windows, np.zeros(added, dtype=np.int64))),
            )

    def live(self, rows: np.ndarray) -> np.ndarray:
        """Whether each of ``rows`` still holds an active ad: the index's
        alive bit, which a retirement clears without renumbering."""
        return self._compact.alive[rows]

    def value_bound(self, rows: np.ndarray, k: int) -> float:
        """:func:`~repro.qos.admission.slate_value_bound` over ``rows``
        (index rows, best first, in the current row space): the bids of
        the first ``k`` live ones, added left to right from 0.0 as the
        per-entry loop adds them (a plain loop: ``sum`` over floats is
        compensated on newer Pythons). A row launched since the last
        :meth:`sync` has no bid here yet and reads its ad's."""
        compact = self._compact
        live = rows[compact.alive[rows]][:k].tolist()
        synced = (
            self._synced_rows if self._generation == compact.generation else 0
        )
        bids, corpus, ad_ids = self.bids, self._corpus, compact.ad_ids
        total = 0.0
        for row in live:
            total += (
                float(bids[row]) if row < synced
                else corpus.get(int(ad_ids[row])).bid
            )
        return total

    def geo_hits(
        self, location: GeoPoint | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """What of the geo predicate depends on the location: ``(rows,
        best falloff)`` of the geo-targeted rows with a circle around it,
        rows ascending, read-only. Followers recur across events, so what
        one pass found (:meth:`_geo_matches`) is kept until a compaction;
        a launch's circles extend it at its next read
        (:meth:`_geo_extend`)."""
        key = None if location is None else (location.lat, location.lon)
        hits = self._geo_hits.get(key)
        if hits is None:
            behind = self._geo_behind.pop(key, None)
            if behind is None:
                hits = self._geo_matches(location)
                stored = hits[0].shape[0] + _GEO_ENTRY_PAIRS
            else:
                hits = self._geo_extend(location, behind, self._geo_covered[key])
                stored = hits[0].shape[0] - behind[0].shape[0]
            if self._geo_hits_stored + stored > _GEO_CACHE_PAIRS:
                self._geo_hits.clear()
                self._geo_behind.clear()
                self._geo_covered.clear()
                self._geo_hits_stored = 0
                stored = hits[0].shape[0] + _GEO_ENTRY_PAIRS
            self._geo_hits[key] = hits
            self._geo_covered[key] = self._circle_rows.shape[0]
            self._geo_hits_stored += stored
        return hits

    def geo_base(self) -> tuple[np.ndarray, np.ndarray]:
        """The rest of it, shared by every location and read-only: ``(not
        geo-targeted, proximity with the geo-targeted rows at 0)`` — what
        a user inside no circle sees."""
        base = self._geo_base
        if base is None:
            geo_mask = self._geo_targeted[: self._synced_rows]
            proximity = np.ones(self._synced_rows, dtype=np.float64)
            proximity[geo_mask] = 0.0
            base = self._geo_base = (~geo_mask, proximity)
        return base

    def targeting_full(
        self, location: GeoPoint | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Geo predicate + proximity for one location over *every* row.

        Returns ``(geo_keep, proximity)`` of length ``num_rows``, the
        caller's own to write to, matching the scalar
        ``TargetingSpec.matches`` / ``proximity``: a geo-targeted ad needs
        the user inside at least one circle (an unknown location never
        matches) and scores its best circle's linear falloff, an untargeted
        one the neutral 1.0. The dense pair is two copies of
        :meth:`geo_base` plus two scatters of :meth:`geo_hits`.
        """
        matched_rows, falloff = self.geo_hits(location)
        base_keep, base_proximity = self.geo_base()
        keep = base_keep.copy()
        keep[matched_rows] = True
        proximity = base_proximity.copy()
        proximity[matched_rows] = falloff
        return keep, proximity

    def _geo_matches(
        self, location: GeoPoint | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pass from scratch: ``(rows, best falloff)`` of the
        geo-targeted rows with a circle containing ``location`` (none for
        an unknown location), rows ascending — one distance per centre,
        gathered to the circles."""
        if location is None:
            return _NO_MATCHES
        distance = self._centre_distances(location, slice(None))
        return _best_falloff(
            self._circle_rows, distance[self._circle_centre], self._circle_radius
        )

    def _geo_extend(
        self,
        location: GeoPoint | None,
        hits: tuple[np.ndarray, np.ndarray],
        covered: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``hits``, which saw the first ``covered`` circles, extended by
        the rest — one distance per centre among them. Those circles
        belong to rows launched since, and an appended row is maximal, so
        their matches follow the old ones."""
        if location is None:
            return hits
        centre = self._circle_centre[covered:]
        centres = np.unique(centre)
        distance = self._centre_distances(location, centres)
        rows, falloff = _best_falloff(
            self._circle_rows[covered:],
            distance[np.searchsorted(centres, centre)],
            self._circle_radius[covered:],
        )
        if not rows.shape[0]:
            return hits
        return np.concatenate((hits[0], rows)), np.concatenate((hits[1], falloff))

    def _centre_distances(
        self, location: GeoPoint, centres: slice | np.ndarray
    ) -> np.ndarray:
        """Great-circle km from each of ``centres`` (a slice or index
        array of the interned centres) to ``location``:
        :func:`repro.geo.point.haversine_km`'s arithmetic, with its
        ``math`` functions, centre by centre — numpy's ``arcsin`` can part
        from ``math.asin`` by an ulp, and a proximity with it. A cold
        location pays this once per centre (a dozen on the catalog)."""
        lat2 = math.radians(location.lat)
        lon2 = math.radians(location.lon)
        cos_lat2 = math.cos(lat2)
        halves = []
        for lat1, lon1, cos_lat1 in zip(
            self._centre_lat[centres].tolist(),
            self._centre_lon[centres].tolist(),
            self._centre_cos[centres].tolist(),
        ):
            sin_dlat = math.sin((lat2 - lat1) / 2.0)
            sin_dlon = math.sin((lon2 - lon1) / 2.0)
            h = sin_dlat * sin_dlat + cos_lat1 * cos_lat2 * sin_dlon * sin_dlon
            halves.append(math.asin(math.sqrt(min(1.0, max(0.0, h)))))
        return 2.0 * EARTH_RADIUS_KM * np.array(halves, dtype=np.float64)

    def time_keep_full(self, timestamp: float) -> np.ndarray:
        """Time-window predicate over every row, read-only.

        Every window compares the hour of day against its two ends
        (``start <= hour``, ``hour < end``), so the mask changes only
        where the hour crosses an end. Its *step position* — how many
        ends lie at or before it — names the interval between two ends
        that holds it. The same position reads the last mask; a later
        one advances it across the ends crossed (:meth:`_time_step`) on
        a copy; an earlier one (a step back, or a wrap past midnight),
        the first read and a launch that brings windows rebuild it
        (:meth:`_time_keep`).
        """
        position = bisect_right(
            self._step_hours, (timestamp % SECONDS_PER_DAY) / 3600.0
        )
        last = self._full_time
        if last is not None and last[0] == position:
            return last[1]
        if last is not None and last[0] < position:
            keep, open_windows = self._time_step(*last, position)
        else:
            keep, open_windows = self._time_keep(position)
        self._full_time = (position, keep, open_windows)
        return keep

    def _time_step(
        self, start: int, keep: np.ndarray, open_windows: np.ndarray, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The mask at step position ``start`` advanced to ``stop``: each
        crossed step opens or closes one of its row's windows. The counts
        are advanced in place; the mask, already handed out, is copied."""
        rows = self._step_rows[start:stop]
        np.add.at(open_windows, rows, self._step_deltas[start:stop])
        keep = keep.copy()
        keep[rows] = open_windows[rows] > 0
        return keep, open_windows

    def _time_keep(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """The time-window predicate at step position ``position`` over
        every row, and each row's open windows, computed afresh: at hour
        0 just the windows that wrap past midnight are open, then every
        step up to ``position`` applies."""
        size = self._synced_rows
        open_windows = self._wrapping[:size].copy()
        np.add.at(
            open_windows, self._step_rows[:position], self._step_deltas[:position]
        )
        return (open_windows > 0) | ~self._time_targeted[:size], open_windows


#: Budget of the per-location targeting cache in stored ``(row, falloff)``
#: pairs of 16 bytes — the 18 MB that 512 dense entries took at 4,000 rows;
#: an entry counts its matches plus a fixed share for its own overhead.
_GEO_CACHE_PAIRS = 1 << 20
_GEO_ENTRY_PAIRS = 32
_NO_MATCHES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))


def _best_falloff(
    rows: np.ndarray, distance: np.ndarray, radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, best falloff)`` of the circles with ``distance <=
    radius``, one entry a row. Circles are sorted by row, so matches group
    into runs: one reduceat takes each row's best circle (ufunc.at would
    be an order of magnitude slower)."""
    inside = distance <= radius
    hit_rows = rows[inside]
    if not hit_rows.shape[0]:
        return _NO_MATCHES
    falloff = 1.0 - distance[inside] / radius[inside]
    boundary = np.empty(hit_rows.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(hit_rows[1:], hit_rows[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return hit_rows[starts], np.maximum.reduceat(falloff, starts)


def _grown(array: np.ndarray, size: int, dtype) -> np.ndarray:
    out = np.zeros(size, dtype=dtype)
    out[: array.shape[0]] = array
    return out


class ScoringModel:
    """Evaluates ``alpha·content + beta·profile + gamma·geo + delta·bid``."""

    def __init__(
        self,
        corpus: AdCorpus,
        weights: ScoringWeights,
        *,
        budget_manager: BudgetManager | None = None,
        ctr_estimator: CtrEstimator | None = None,
    ) -> None:
        self._corpus = corpus
        self.weights = weights
        self._budget_manager = budget_manager
        self._ctr_estimator = ctr_estimator

    @property
    def ctr_estimator(self) -> CtrEstimator | None:
        return self._ctr_estimator

    @property
    def corpus(self) -> AdCorpus:
        return self._corpus

    @property
    def max_static(self) -> float:
        return self.weights.max_static

    @property
    def max_probe_static(self) -> float:
        return self.weights.max_probe_static

    # -- component scores ----------------------------------------------------

    def bid_score(self, ad_id: int, timestamp: float) -> float:
        """Pacing- and quality-adjusted normalised bid in [0, 1].

        With a CTR estimator attached the quality multiplier (in
        [0, QUALITY_CAP]) is folded in and renormalised by the cap, so the
        term never exceeds ``normalized_bid`` — every pruning bound built
        from raw bids stays admissible.
        """
        normalized = self._corpus.normalized_bid(ad_id)
        if self._budget_manager is not None:
            normalized *= self._budget_manager.pacing_multiplier(ad_id, timestamp)
        if self._ctr_estimator is not None:
            normalized *= (
                self._ctr_estimator.quality_multiplier(ad_id) / QUALITY_CAP
            )
        return normalized

    def static_score(
        self,
        ad_id: int,
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
    ) -> float | None:
        """The user-dependent, message-independent part of the score.

        Returns None when the ad's targeting predicate rejects this user
        and time — the ad must not be served at all.
        """
        ad = self._corpus.get(ad_id)
        if not ad.targeting.matches(location, timestamp):
            return None
        profile_affinity = dot(profile_vec, ad.terms) if profile_vec else 0.0
        return (
            self.weights.beta * profile_affinity
            + self.weights.gamma * ad.targeting.proximity(location)
            + self.weights.delta * self.bid_score(ad_id, timestamp)
        )

    def probe_static_fn(
        self, location: GeoPoint | None, timestamp: float
    ) -> Callable[[int], float]:
        """Static function for exact index probes (profile folded into the
        query): ``gamma·geo + delta·bid`` for one user and time."""

        def static(ad_id: int) -> float:
            ad = self._corpus.get(ad_id)
            return (
                self.weights.gamma * ad.targeting.proximity(location)
                + self.weights.delta * self.bid_score(ad_id, timestamp)
            )

        return static

    def targeting_filter(
        self, location: GeoPoint | None, timestamp: float
    ) -> Callable[[int], bool]:
        """Hard targeting predicate for one user and time."""

        def accepts(ad_id: int) -> bool:
            return self._corpus.get(ad_id).targeting.matches(location, timestamp)

        return accepts

    def evaluate(
        self,
        ad_id: int,
        content: float,
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
    ) -> ScoredAd | None:
        """Full evaluation of one candidate given its content affinity.

        Returns None when the ad is retired, fails its targeting predicate,
        or falls below the relevance floor: zero content *and* no profile
        affinity that counts (with ``beta = 0`` the combined query drops
        the profile, so an exact probe could never return the ad).
        """
        if not self._corpus.is_active(ad_id):
            return None
        ad = self._corpus.get(ad_id)
        profile_affinity = dot(profile_vec, ad.terms) if profile_vec else 0.0
        if content <= 0.0 and (
            self.weights.beta <= 0.0 or profile_affinity <= 0.0
        ):
            return None
        if not ad.targeting.matches(location, timestamp):
            return None
        static = (
            self.weights.beta * profile_affinity
            + self.weights.gamma * ad.targeting.proximity(location)
            + self.weights.delta * self.bid_score(ad_id, timestamp)
        )
        return self.scored_ad(ad_id, content, static)

    # -- block (vectorized) evaluation ---------------------------------------

    def _bid_block(self, cache: StaticRowCache, timestamp: float) -> np.ndarray:
        """Vectorized :meth:`bid_score` over every synced row (same op
        order)."""
        bid = cache.bids
        max_bid = self._corpus.max_bid
        if max_bid <= 0.0:
            return np.zeros(bid.shape[0], dtype=np.float64)
        bid = bid / max_bid
        if self._budget_manager is not None:
            bid = bid * self._budget_manager.pacing_block(
                cache.pacing_slots, timestamp
            )
        if self._ctr_estimator is not None:
            bid = bid * (
                self._ctr_estimator.quality_block(cache.quality_slots)
                / QUALITY_CAP
            )
        return bid

    def fanout_bid_block(
        self,
        cache: StaticRowCache,
        timestamp: float,
        rows: np.ndarray | None = None,
    ) -> np.ndarray | list[float]:
        """Delta-weighted bid term, shared across a fan-out.

        The bid is the only user-independent static, so one full row
        vector (:meth:`_bid_block`, the array kernel) serves every
        follower of an event. With ``rows`` it is re-read at just those
        rows — a slate's ≤ k, or the few an event names — as a list of
        floats in ``rows`` order: the kernel's operations in its order,
        one element at a time (a Python float is the same IEEE double, so
        each comes out bit for bit), since on a dozen rows numpy's
        per-call cost outweighs the arithmetic. Writing it back over the
        full vector equals rebuilding it. A factor the kernel skips (no
        budget manager, no estimator) is a multiply by 1.0 here, which
        changes no double.
        """
        cache.sync(self._budget_manager, self._ctr_estimator)
        delta = self.weights.delta
        if rows is None:
            return delta * self._bid_block(cache, timestamp)
        bids = cache.bids[rows].tolist()
        max_bid = self._corpus.max_bid
        if max_bid <= 0.0:
            return [delta * 0.0] * len(bids)
        budget, ctr = self._budget_manager, self._ctr_estimator
        pacing = (
            budget.pacing_floats(cache.pacing_slots[rows], timestamp)
            if budget is not None
            else repeat(1.0)
        )
        quality = (
            ctr.quality_floats(cache.quality_slots[rows])
            if ctr is not None
            else repeat(QUALITY_CAP)
        )
        # A loop, not a comprehension: before Python 3.12 a comprehension
        # is a function call of its own, and this runs once a delivery.
        values = []
        for bid, paced, rated in zip(bids, pacing, quality):
            values.append(delta * (bid / max_bid * paced * (rated / QUALITY_CAP)))
        return values

    def paced_rows(
        self,
        cache: StaticRowCache,
        timestamp: float,
        rows: np.ndarray | None = None,
    ) -> list[int]:
        """The rows of ``rows`` (every synced row by default) whose
        :meth:`fanout_bid_block` value can still change after
        ``timestamp`` with nothing written: those paced ahead of schedule
        (:meth:`BudgetManager.ahead_of_schedule`), the bid term's only
        time-dependent factor. Ascending when ``rows`` is; listed rows
        are tested as floats (:meth:`BudgetManager.ahead_flags`)."""
        budget = self._budget_manager
        if budget is None:
            return []
        if rows is None:
            return (
                budget.ahead_of_schedule(cache.pacing_slots, timestamp)
                .nonzero()[0]
                .tolist()
            )
        ahead = budget.ahead_flags(cache.pacing_slots[rows], timestamp)
        return [row for row, paced in zip(rows.tolist(), ahead) if paced]

    def bid_writes(self) -> int:
        """Monotone count of writes to the state behind the bid term
        (budget spend, CTR evidence): unchanged means every value of
        :meth:`fanout_bid_block` still stands."""
        budget, ctr = self._budget_manager, self._ctr_estimator
        return (budget.writes if budget is not None else 0) + (
            ctr.writes if ctr is not None else 0
        )

    def fanout_scores(
        self,
        content: np.ndarray | float,
        affinity: np.ndarray,
        proximity: np.ndarray,
        bid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(static, score)`` of the rows a cut scores — one follower's
        kept rows, or a block's shared message base, its followers'
        corrections or its tail (``content`` and ``affinity`` may be
        scalars).

        ``proximity`` is what :meth:`StaticRowCache.targeting_full`
        gives at those rows, ``bid`` what :meth:`fanout_bid_block` does;
        the arithmetic and its order are :meth:`evaluate`'s, elementwise,
        so every shape gives a row the same doubles and scores agree with
        the scalar path to float32 storage precision.
        """
        weights = self.weights
        static = weights.beta * affinity + weights.gamma * proximity + bid
        return static, weights.alpha * content + static

    # -- query construction --------------------------------------------------

    def combined_query(
        self, message_vec: SparseVector, profile_vec: SparseVector
    ) -> MutableSparseVector:
        """``alpha·message + beta·profile`` as one sparse query vector."""
        query: MutableSparseVector = {
            term: self.weights.alpha * weight for term, weight in message_vec.items()
        }
        beta = self.weights.beta
        if beta > 0.0:
            for term, weight in profile_vec.items():
                query[term] = query.get(term, 0.0) + beta * weight
        return query

    # -- totals ---------------------------------------------------------------

    def total(self, content: float, static: float) -> float:
        """Combine a content cosine/dot with a static part."""
        return self.weights.alpha * content + static

    def scored_ad(self, ad_id: int, content: float, static: float) -> ScoredAd:
        return ScoredAd(
            ad_id=ad_id,
            score=self.total(content, static),
            content=content,
            static=static,
        )

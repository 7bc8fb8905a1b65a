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
    """One served slate: the cut's four columns, read as an immutable
    sequence of :class:`ScoredAd`.

    ``ad_ids`` (int64) and ``scores`` / ``contents`` / ``statics``
    (float64) are arrays, entry for entry in slate order — the kernel's
    own, handed over as cut (a block's slates are slices of the block's
    columns), so they are shared and never written. An entry is boxed
    only when something reads one: iteration and indexing box in C
    (``tuple.__new__`` over the ``tolist()`` columns), while ``len``,
    ``bool`` and slicing stay in arrays. Against a tuple of the same
    entries a slate is ``==``, hashes and prints alike; it pickles as
    four plain lists.

    It is not a tuple of entries on purpose: CPython stops tracking an
    *exact* tuple of untracked items at its first collection, but a
    tuple subclass such as ``ScoredAd`` stays tracked for life, so every
    entry a caller keeps would be walked again by every full collection.
    A slate is one tracked object over untracked arrays.
    """

    __slots__ = ("ad_ids", "scores", "contents", "statics")

    def __new__(
        cls,
        ad_ids: np.ndarray,
        scores: np.ndarray,
        contents: np.ndarray,
        statics: np.ndarray,
    ) -> "Slate":
        slate = object.__new__(cls)
        slate.ad_ids = ad_ids
        slate.scores = scores
        slate.contents = contents
        slate.statics = statics
        return slate

    @staticmethod
    def of(entries: Iterable[ScoredAd]) -> "Slate":
        """The slate of ``entries``, in order (the per-entry paths: the
        ``ta`` reference, degraded serving, INCREMENTAL)."""
        columns = tuple(zip(*entries))
        return _columns_slate(*columns) if columns else EMPTY_SLATE

    def __len__(self) -> int:
        return len(self.ad_ids)

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
    masks, and the targeting geometry itself — every circle as a flat
    ``(row, lat, lon, radius)`` record and every time window as a flat
    ``(row, start, end)`` record, both kept sorted by row so a block's
    circles are one ``searchsorted`` gather away. That lets
    :meth:`targeting_full` / :meth:`time_keep_full` evaluate the geo/time
    predicate and the proximity score over every row with one vectorized
    haversine instead of per-ad Python calls. Next to the bids it keeps
    each row's slot in the budget manager's and the CTR estimator's
    dense state arrays, so the dynamic half of the bid term is a gather
    (:meth:`ScoringModel._bid_block`) and a served slate's charge and
    feedback are gathers at its rows; a slot belongs to an ad for life,
    so the maps never go stale between syncs. Synced lazily: a compaction
    (generation bump) resets the arrays, appended rows extend them.
    """

    def __init__(self, corpus: AdCorpus, compact: "CompactIndex") -> None:
        self._corpus = corpus
        self._compact = compact
        self._generation = -1
        self._synced_rows = 0
        self.bids = np.zeros(0, dtype=np.float64)
        self.pacing_slots = np.zeros(0, dtype=np.int64)
        self.quality_slots = np.zeros(0, dtype=np.int64)
        self._geo_targeted = np.zeros(0, dtype=bool)
        self._time_targeted = np.zeros(0, dtype=bool)
        # Flat targeting geometry, staged in lists (append-friendly) and
        # flattened to arrays on demand. Row tags are ascending because
        # sync always visits rows in order.
        self._geo_stage: list[tuple[int, float, float, float]] = []
        self._time_stage: list[tuple[int, float, float]] = []
        self._flat_dirty = True
        self._geo_rows = np.zeros(0, dtype=np.int64)
        self._geo_lat = np.zeros(0, dtype=np.float64)
        self._geo_lon = np.zeros(0, dtype=np.float64)
        self._geo_cos = np.zeros(0, dtype=np.float64)
        self._geo_radius = np.zeros(0, dtype=np.float64)
        self._time_rows = np.zeros(0, dtype=np.int64)
        self._time_start = np.zeros(0, dtype=np.float64)
        self._time_end = np.zeros(0, dtype=np.float64)
        # Every window end (start or end hour), ascending and distinct.
        self._time_ends: list[float] = []
        # Full-corpus targeting results, all dropped when the row space
        # changes (sync): the time mask of the window-end interval holding
        # the last event's hour, and per
        # location (keyed by coordinates) only what depends on it — the
        # matched geo rows and their best falloff, a few per cent of the
        # rows — over a shared dense base.
        self._geo_hits: dict[
            tuple[float, float] | None, tuple[np.ndarray, np.ndarray]
        ] = {}
        self._geo_hits_stored = 0
        self._geo_base: tuple[np.ndarray, np.ndarray] | None = None
        self._full_time: tuple[float, np.ndarray] | None = None

    def sync(self, budget: BudgetManager | None, ctr: CtrEstimator | None) -> None:
        """Extend the row arrays to the index's row space; new rows look
        their slots up in the scoring model's ``budget`` / ``ctr``."""
        compact = self._compact
        compacted = self._generation != compact.generation
        if compacted:
            self._generation = compact.generation
            self._synced_rows = 0
            self.bids = np.zeros(compact.num_rows, dtype=np.float64)
            self.pacing_slots = np.zeros(compact.num_rows, dtype=np.int64)
            self.quality_slots = np.zeros(compact.num_rows, dtype=np.int64)
            self._geo_targeted = np.zeros(compact.num_rows, dtype=bool)
            self._time_targeted = np.zeros(compact.num_rows, dtype=bool)
            self._geo_stage = []
            self._time_stage = []
            self._flat_dirty = True
        num_rows = compact.num_rows
        if self._synced_rows >= num_rows and not compacted:
            return
        self._geo_hits.clear()
        self._geo_hits_stored = 0
        self._geo_base = self._full_time = None
        if self.bids.shape[0] < num_rows:
            self.bids = _grown(self.bids, num_rows, np.float64)
            self.pacing_slots = _grown(self.pacing_slots, num_rows, np.int64)
            self.quality_slots = _grown(
                self.quality_slots, num_rows, np.int64
            )
            self._geo_targeted = _grown(self._geo_targeted, num_rows, bool)
            self._time_targeted = _grown(self._time_targeted, num_rows, bool)
        corpus = self._corpus
        ad_ids = compact.ad_ids
        for row in range(self._synced_rows, num_rows):
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
                    self._geo_stage.append(
                        (
                            row,
                            math.radians(center.lat),
                            math.radians(center.lon),
                            radius,
                        )
                    )
                self._flat_dirty = True
            if spec.time_windows:
                self._time_targeted[row] = True
                for window in spec.time_windows:
                    self._time_stage.append(
                        (row, window.start_hour, window.end_hour)
                    )
                self._flat_dirty = True
        self._synced_rows = num_rows

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

    def _flatten(self) -> None:
        if not self._flat_dirty:
            return
        geo = self._geo_stage
        self._geo_rows = np.fromiter(
            (rec[0] for rec in geo), dtype=np.int64, count=len(geo)
        )
        self._geo_lat = np.fromiter(
            (rec[1] for rec in geo), dtype=np.float64, count=len(geo)
        )
        self._geo_lon = np.fromiter(
            (rec[2] for rec in geo), dtype=np.float64, count=len(geo)
        )
        self._geo_radius = np.fromiter(
            (rec[3] for rec in geo), dtype=np.float64, count=len(geo)
        )
        self._geo_cos = np.cos(self._geo_lat)
        # Latitude half-band (radians) per circle for the coarse prefilter:
        # haversine distance >= R·|Δlat| exactly, so a circle whose center
        # latitude is further than radius/R (plus 1% slack, orders of
        # magnitude above float error) can never contain the user.
        self._geo_band = self._geo_radius / EARTH_RADIUS_KM * 1.01
        windows = self._time_stage
        self._time_rows = np.fromiter(
            (rec[0] for rec in windows), dtype=np.int64, count=len(windows)
        )
        self._time_start = np.fromiter(
            (rec[1] for rec in windows), dtype=np.float64, count=len(windows)
        )
        self._time_end = np.fromiter(
            (rec[2] for rec in windows), dtype=np.float64, count=len(windows)
        )
        self._time_ends = sorted({hour for _, *ends in windows for hour in ends})
        self._flat_dirty = False

    def geo_hits(
        self, location: GeoPoint | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """What of the geo predicate depends on the location: ``(rows,
        best falloff)`` of the geo-targeted rows with a circle around it,
        rows ascending, read-only. Followers recur across events, so what
        one haversine pass found (:meth:`_geo_matches`) is kept until the
        row space changes."""
        key = None if location is None else (location.lat, location.lon)
        hits = self._geo_hits.get(key)
        if hits is None:
            hits = self._geo_matches(location)
            stored = hits[0].shape[0] + _GEO_ENTRY_PAIRS
            if self._geo_hits_stored + stored > _GEO_CACHE_PAIRS:
                self._geo_hits.clear()
                self._geo_hits_stored = 0
            self._geo_hits[key] = hits
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
        """The haversine pass: ``(rows, best falloff)`` of the geo-targeted
        rows with a circle containing ``location`` (none for an unknown
        location), rows ascending."""
        if location is None:
            return _NO_MATCHES
        self._flatten()
        lat2 = math.radians(location.lat)
        # Coarse prefilter: only circles whose latitude band contains
        # the user can match. The surviving circles go through the
        # exact haversine unchanged (subsetting does not perturb any
        # float value), so results are identical to the full pass.
        near = np.flatnonzero(np.abs(lat2 - self._geo_lat) <= self._geo_band)
        if not near.shape[0]:
            return _NO_MATCHES
        # Same arithmetic, same operation order as
        # repro.geo.point.haversine_km, elementwise.
        lon2 = math.radians(location.lon)
        dlat = lat2 - self._geo_lat[near]
        dlon = lon2 - self._geo_lon[near]
        sin_dlat = np.sin(dlat / 2.0)
        sin_dlon = np.sin(dlon / 2.0)
        h = (
            sin_dlat * sin_dlat
            + self._geo_cos[near] * math.cos(lat2) * sin_dlon * sin_dlon
        )
        h = np.minimum(1.0, np.maximum(0.0, h))
        distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))
        radius = self._geo_radius[near]
        inside = distance <= radius
        hit_rows = self._geo_rows[near][inside]
        if not hit_rows.shape[0]:
            return _NO_MATCHES
        falloff = 1.0 - distance[inside] / radius[inside]
        # Circles are stored sorted by row, so matches group into runs:
        # one reduceat takes each row's best circle (ufunc.at would be
        # an order of magnitude slower).
        boundary = np.empty(hit_rows.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(hit_rows[1:], hit_rows[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        return hit_rows[starts], np.maximum.reduceat(falloff, starts)

    def time_keep_full(self, timestamp: float) -> np.ndarray:
        """Time-window predicate over every row, read-only.

        Every window compares the hour of day against its two ends
        (``start <= hour``, ``hour < end``), so the mask is constant
        between two consecutive window ends: it is cached for the
        interval ``[ends[i - 1], ends[i])`` that holds the hour, and
        rebuilt (:meth:`_time_keep`) only when an event's hour falls in
        another — or when the row space changes (:meth:`sync`).
        """
        self._flatten()
        interval = bisect_right(self._time_ends, (timestamp % SECONDS_PER_DAY) / 3600.0)
        cached = self._full_time
        if cached is not None and cached[0] == interval:
            return cached[1]
        keep = self._time_keep(timestamp)
        self._full_time = (interval, keep)
        return keep

    def _time_keep(self, timestamp: float) -> np.ndarray:
        """The time-window predicate at ``timestamp`` over every row,
        computed afresh."""
        size = self._synced_rows
        time_mask = self._time_targeted[:size]
        if not time_mask.any():
            return np.ones(size, dtype=bool)
        hour = (timestamp % SECONDS_PER_DAY) / 3600.0
        start = self._time_start
        end = self._time_end
        inside = np.where(
            start < end,
            (start <= hour) & (hour < end),
            (hour >= start) | (hour < end),
        )
        matched = np.bincount(self._time_rows[inside], minlength=size) > 0
        return matched | ~time_mask


#: Budget of the per-location targeting cache in stored ``(row, falloff)``
#: pairs of 16 bytes — the 18 MB that 512 dense entries took at 4,000 rows;
#: an entry counts its matches plus a fixed share for its own overhead.
_GEO_CACHE_PAIRS = 1 << 20
_GEO_ENTRY_PAIRS = 32
_NO_MATCHES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))


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

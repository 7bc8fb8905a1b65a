"""Per-delivery personalisation with a TA-style exactness certificate.

The additive score has three sources of mass, and each gets its own
candidate list with a proven cutoff on what any *excluded* ad could carry:

1. **content** — the per-message shared probe (computed once per post,
   reused across the fan-out): excluded ads have content <= ``c1``;
2. **profile** — a per-user probe over the ad index with the user's
   interest vector as the query, cached until the user posts again or ads
   are added: excluded ads have profile affinity <= ``c2``;
3. **geo+bid** — the global prefix of ads by ``gamma + delta·bid_norm``
   (user-independent, maintained incrementally): excluded ads carry at most
   ``c3`` of geo+bid mass.

A delivery exactly scores the union of the three lists (a few dozen ads —
no index probe beyond the amortised/cached ones) and takes the top-k. Any
ad outside the union scores at most ``alpha·c1 + beta·c2 + c3``, so when
the personalised k-th score reaches that bound the slate is provably the
true top-k. Otherwise the engine either falls back to one exact
combined-query WAND probe (``exact_fallback=True``) or serves the
approximate slate, as production systems do; experiment F6 measures the
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.scoring import ScoredAd, StaticRowCache
from repro.core.services import EngineServices
from repro.core.static_list import GlobalStaticTopList
from repro.geo.point import GeoPoint
from repro.index.compact import CompactIndex
from repro.index.factory import make_searcher
from repro.index.vector import VectorSearcher
from repro.util.sparse import SparseVector, dot


@dataclass(frozen=True, slots=True)
class PersonalizedSlate:
    """One user's slate plus how it was produced."""

    slate: tuple[ScoredAd, ...]
    certified: bool
    fell_back: bool


def _exact_topk(scores: np.ndarray, ad_ids: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` local indices under the tie rule (score desc, id asc).

    Large sets are pre-cut at the k-th score with a linear partition so
    the lexsort only touches actual contenders.
    """
    n = scores.shape[0]
    if n > 4 * k:
        kth = np.partition(scores, n - k)[n - k]
        contenders = np.flatnonzero(scores >= kth)
        order = np.lexsort((ad_ids[contenders], -scores[contenders]))[:k]
        return contenders[order]
    return np.lexsort((ad_ids, -scores))[:k]


@dataclass(frozen=True, slots=True)
class _ProfileCandidates:
    """Cached per-user profile-probe results."""

    profile_epoch: int
    corpus_add_epoch: int
    entries: tuple[tuple[int, float], ...]  # (ad_id, profile affinity)
    cutoff: float  # bound on the affinity of any ad not in entries


class Personalizer:
    """Turns shared candidates into per-user slates."""

    def __init__(self, services: EngineServices) -> None:
        scoring = services.scoring
        index = services.index
        config = services.config
        self._scoring = scoring
        self._index = index
        self._config = config
        self._exact_fallback = config.exact_fallback
        self._static_list = GlobalStaticTopList(
            scoring.corpus, scoring.weights, config.static_candidates
        )
        self._profile_searcher = make_searcher(config.searcher, index)
        self._profile_cache: dict[int, _ProfileCandidates] = {}
        # Vector mode: the whole path runs on the compact mirror through
        # one kernel, slate_batch.
        self._vector = config.searcher == "vector"
        if self._vector:
            self._compact = CompactIndex.shared(index)
            self._static_cache = StaticRowCache(scoring.corpus, self._compact)
            # Per-event cache: (candidate set, mirror generation) →
            # candidate rows + the raw message gather, shared across the
            # whole fan-out. The strong reference to the candidate set
            # keeps its id stable for the identity check.
            self._event_cache: tuple | None = None
            # Static-list rows, keyed by (list version, generation).
            self._static_rows_cache: tuple | None = None
            # Per-user raw profile gathers, keyed by (profile epoch,
            # corpus adds, generation).
            self._profile_gather_cache: dict[int, tuple] = {}
            # Compact rows of each user's profile-probe entries, keyed by
            # the probe object's identity (stable while its cache entry
            # is) and the mirror generation.
            self._profile_rows_cache: dict[int, tuple] = {}

    @property
    def batched(self) -> bool:
        """Whether :meth:`slate_batch` is available (vector mode only)."""
        return self._vector

    # -- candidate sources --------------------------------------------------

    def static_candidate_ids(self) -> list[int]:
        """The global geo+bid candidate prefix (third source)."""
        return self._static_list.candidate_ids()

    def static_cutoff(self) -> float:
        """Geo+bid mass bound for ads outside that prefix."""
        return self._static_list.cutoff()

    def profile_candidates(
        self, user_id: int, profile_vec: SparseVector, profile_epoch: int
    ) -> _ProfileCandidates:
        """Per-user profile probe, cached by (profile epoch, corpus adds).

        Retirements do NOT invalidate the cache: affinities never change and
        retired entries are dropped at evaluation time, so the cutoff stays
        an upper bound. Additions do invalidate it (a new ad could beat the
        cutoff).
        """
        corpus_epoch = self._scoring.corpus.add_epoch
        cached = self._profile_cache.get(user_id)
        if (
            cached is not None
            and cached.profile_epoch == profile_epoch
            and cached.corpus_add_epoch == corpus_epoch
        ):
            return cached
        depth = self._config.profile_candidates
        if self._vector:
            # Derive the probe from the cached raw gather instead of a
            # searcher call: same gather, same tie rule, bit-identical
            # entries and cutoff — and the gather is reused for affinity
            # rows and fallbacks. The gather cache key is strictly finer
            # than this cache's, so a miss here is a fresh gather there.
            compact = self._compact
            compact.maybe_compact()
            rows, dots = self._profile_gather(
                user_id, profile_vec, profile_epoch, compact.generation
            )
            ad_ids = compact.ad_ids[rows]
            order = np.lexsort((ad_ids, -dots))[:depth]
            entries = tuple(
                (int(ad_ids[i]), float(dots[i])) for i in order
            )
            cutoff = 0.0 if len(entries) < depth else entries[-1][1]
        else:
            results = self._profile_searcher.search(profile_vec, depth)
            cutoff = 0.0 if len(results) < depth else results[-1].score
            entries = tuple((entry.item, entry.score) for entry in results)
        candidates = _ProfileCandidates(
            profile_epoch=profile_epoch,
            corpus_add_epoch=corpus_epoch,
            entries=entries,
            cutoff=cutoff,
        )
        self._profile_cache[user_id] = candidates
        return candidates

    # -- the delivery path ------------------------------------------------------

    def slate_for(
        self,
        candidates: CandidateSet,
        message_vec: SparseVector,
        user_id: int,
        profile_vec: SparseVector,
        profile_epoch: int,
        location: GeoPoint | None,
        timestamp: float,
        k: int,
        *,
        allow_fallback: bool = True,
    ) -> PersonalizedSlate:
        """Union-score, certify, and fall back if needed.

        ``allow_fallback=False`` suppresses the certificate-fallback
        exact probe for this delivery even when the engine is configured
        with ``exact_fallback`` — the QoS ladder's serve-approximate
        rung — and the slate is served as-is, certified or not.
        """
        if self._vector:
            return self.slate_batch(
                candidates,
                message_vec,
                [(user_id, profile_vec, profile_epoch, location)],
                timestamp,
                k,
                allow_fallback=allow_fallback,
            )[0]
        scoring = self._scoring
        corpus = scoring.corpus
        profile_cands = self.profile_candidates(user_id, profile_vec, profile_epoch)

        content_of: dict[int, float] = dict(candidates.entries)
        union: set[int] = set(content_of)
        union.update(ad_id for ad_id, _ in profile_cands.entries)
        union.update(self._static_list.candidate_ids())

        scored: list[ScoredAd] = []
        for ad_id in union:
            content = content_of.get(ad_id)
            if content is None:
                if not corpus.is_active(ad_id):
                    continue
                content = dot(message_vec, corpus.get(ad_id).terms)
            evaluated = scoring.evaluate(
                ad_id, content, profile_vec, location, timestamp
            )
            if evaluated is not None:
                scored.append(evaluated)
        scored.sort(key=lambda entry: (-entry.score, entry.ad_id))
        slate = tuple(scored[:k])

        weights = scoring.weights
        certificate = (
            weights.alpha * candidates.cutoff
            + weights.beta * profile_cands.cutoff
            + self._static_list.cutoff()
        )
        certified = len(slate) == k and slate[-1].score >= certificate
        if certified or not (self._exact_fallback and allow_fallback):
            return PersonalizedSlate(slate=slate, certified=certified, fell_back=False)
        return PersonalizedSlate(
            slate=self.exact_slate(message_vec, profile_vec, location, timestamp, k),
            certified=True,
            fell_back=True,
        )

    # -- the vector (compact-mirror) delivery path ---------------------------

    def _event_block(
        self, candidates: CandidateSet, message_vec: SparseVector, generation: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(candidate rows, message-gather rows, message-gather dots),
        cached per event.

        Keyed by candidate-set identity (held strongly, so the id cannot
        be recycled mid-cache) and mirror generation — a compaction
        between deliveries of one fan-out re-derives the rows from the
        stable ad ids. The gather is every row sharing a term with the
        message; rows retired after it was taken stay in it, so the
        caller re-masks through ``alive`` at use time.
        """
        cached = self._event_cache
        if (
            cached is not None
            and cached[0] is candidates
            and cached[1] == generation
        ):
            return cached[2], cached[3], cached[4]
        compact = self._compact
        rows = compact.rows_of_present(ad_id for ad_id, _ in candidates.entries)
        message_rows, message_dots = compact.gather(message_vec)
        self._event_cache = (
            candidates, generation, rows, message_rows, message_dots,
        )
        return rows, message_rows, message_dots

    def _static_list_rows(self, generation: int) -> np.ndarray:
        """Compact rows of the global geo+bid prefix, version-cached."""
        version = self._static_list.version
        cached = self._static_rows_cache
        if cached is not None and cached[0] == version and cached[1] == generation:
            return cached[2]
        rows = self._compact.rows_of_present(self._static_list.candidate_ids())
        self._static_rows_cache = (version, generation, rows)
        return rows

    def _profile_gather(
        self,
        user_id: int,
        profile_vec: SparseVector,
        profile_epoch: int,
        generation: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw profile gather ``(rows, dots)`` over the full index.

        Cached until the user posts again, ads are added, or the mirror
        compacts; dead rows are re-masked by the caller at use time, so
        retirements do not invalidate (affinities never change).
        """
        add_epoch = self._scoring.corpus.add_epoch
        cached = self._profile_gather_cache.get(user_id)
        if (
            cached is not None
            and cached[0] == profile_epoch
            and cached[1] == add_epoch
            and cached[2] == generation
        ):
            return cached[3], cached[4]
        rows, dots = self._compact.gather(profile_vec)
        self._profile_gather_cache[user_id] = (
            profile_epoch, add_epoch, generation, rows, dots,
        )
        return rows, dots

    def _alive_only(
        self, rows: np.ndarray, dots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """A cached gather minus the rows retired since it was taken.

        Charging can retire an ad between two followers of one event;
        retirement clears the row's alive bit without recycling the row,
        so one mask keeps a cached gather honest (the oracle path's
        ``corpus.is_active`` check).
        """
        live = self._compact.alive[rows]
        if live.all():
            return rows, dots
        return rows[live], dots[live]

    def _profile_member_rows(
        self, user_id: int, cands: _ProfileCandidates, generation: int
    ) -> np.ndarray:
        """Compact rows of a user's profile-probe entries, cached with
        the probe itself (retired entries drop out via the row lookup)."""
        cached = self._profile_rows_cache.get(user_id)
        if (
            cached is not None
            and cached[0] is cands
            and cached[1] == generation
        ):
            return cached[2]
        rows = self._compact.rows_of_present(
            ad_id for ad_id, _ in cands.entries
        )
        self._profile_rows_cache[user_id] = (cands, generation, rows)
        return rows

    def slate_batch(
        self,
        candidates: CandidateSet,
        message_vec: SparseVector,
        followers: list[tuple[int, SparseVector, int, GeoPoint | None]],
        timestamp: float,
        k: int,
        *,
        allow_fallback: bool = True,
    ) -> list[PersonalizedSlate]:
        """The vector personalize kernel: union-score, certify, fall back
        for any number of followers of one event (vector mode only).

        ``followers`` is ``(user_id, profile_vec, profile_epoch,
        location)`` per follower; ``allow_fallback`` is as in
        :meth:`slate_for`, which is this kernel called on one follower.
        One message gather (cached per event) plus one cached profile
        gather per follower cover every row any slate can contain —
        content, affinity, targeting and bid statics are evaluated over
        the full row space, and the approximate slate *and* the exact
        fallback are both cut from the same arrays, so an uncertified
        delivery costs one extra mask + top-k instead of a fresh probe.
        Engine state is read once per call: a caller that mutates the
        corpus between followers (charging, CTR feedback) calls per
        follower, one that does not may pass the whole fan-out — the
        results are elementwise the same either way.
        """
        scoring = self._scoring
        compact = self._compact
        compact.maybe_compact()
        generation = compact.generation
        # Probes derive from the same cached gathers used below, so they
        # cannot trigger a compaction after the generation snapshot.
        profile_cands = [
            self.profile_candidates(user_id, profile_vec, profile_epoch)
            for user_id, profile_vec, profile_epoch, _ in followers
        ]
        candidate_rows, message_rows, message_dots = self._event_block(
            candidates, message_vec, generation
        )
        message_rows, message_dots = self._alive_only(message_rows, message_dots)
        static_rows = self._static_list_rows(generation)

        weights = scoring.weights
        static_cutoff = self._static_list.cutoff()
        fallback_ok = self._exact_fallback and allow_fallback

        # Alive-masked raw profile gathers: every row with affinity > 0,
        # for the keep floor, the affinity term and the fallback row set.
        profile_gathers = [
            self._alive_only(
                *self._profile_gather(
                    user_id, profile_vec, profile_epoch, generation
                )
            )
            if profile_vec
            else None
            for user_id, profile_vec, profile_epoch, _ in followers
        ]

        # Everything below works in the full row space of the mirror —
        # scatters and mask writes are direct row indexing, no unions or
        # searchsorted. Per call the shared pieces (content, bid, time
        # mask) are row vectors; per follower only 1-D boolean masks plus
        # float math on the kept subset, so no (F × rows) matrices are
        # ever materialised. Dead rows have zero content/affinity (the
        # gathers above are alive-masked) and sit in no fallback
        # membership, so neither the floor nor the probe can select them.
        ad_ids = compact.ad_ids
        size = ad_ids.shape[0]
        results: list[PersonalizedSlate] = []
        cache = self._static_cache
        if size:
            content = np.zeros(size, dtype=np.float64)
            content[message_rows] = message_dots
            content_floor = content > 0.0
            bid = scoring.fanout_bid_block(cache, timestamp)
            time_keep = cache.time_keep_full(timestamp)
            # Membership for the approximate slate: every follower sees
            # the shared candidate and static rows; the profile-probe rows
            # are theirs alone. The fallback row set is the raw message ∪
            # profile matches instead.
            shared = np.zeros(size, dtype=bool)
            shared[candidate_rows] = True
            shared[static_rows] = True
            message_member = np.zeros(size, dtype=bool)
            message_member[message_rows] = True

        for i, (user_id, profile_vec, profile_epoch, location) in enumerate(
            followers
        ):
            slate: tuple[ScoredAd, ...] = ()
            if size:
                gathered = profile_gathers[i]
                affinity = np.zeros(size, dtype=np.float64)
                if gathered is not None:
                    affinity[gathered[0]] = gathered[1]
                targeted = cache.targeting_full(location)[0] & time_keep
                member = shared.copy()
                member[
                    self._profile_member_rows(
                        user_id, profile_cands[i], generation
                    )
                ] = True
                kept = np.flatnonzero(
                    (content_floor | (affinity > 0.0)) & targeted & member
                )
                if kept.shape[0]:
                    static_kept, score_kept = scoring.fanout_scores(
                        cache, location, content, affinity, bid, kept
                    )
                    chosen = _exact_topk(score_kept, ad_ids[kept], k)
                    slate = tuple(
                        ScoredAd(
                            ad_id=int(ad_ids[kept[j]]),
                            score=float(score_kept[j]),
                            content=float(content[kept[j]]),
                            static=float(static_kept[j]),
                        )
                        for j in chosen
                    )
            certificate = (
                weights.alpha * candidates.cutoff
                + weights.beta * profile_cands[i].cutoff
                + static_cutoff
            )
            certified = len(slate) == k and slate[-1].score >= certificate
            if certified or not fallback_ok:
                results.append(
                    PersonalizedSlate(
                        slate=slate, certified=certified, fell_back=False
                    )
                )
                continue
            # Exact fallback from the same arrays: the combined probe's
            # row set is the raw message ∪ profile matches under the
            # targeting mask alone (a probe has no content/affinity
            # floor — any matching row can win on statics).
            exact: tuple[ScoredAd, ...] = ()
            if size:
                member = message_member.copy()
                if weights.beta > 0.0 and gathered is not None:
                    member[gathered[0]] = True
                kept = np.flatnonzero(targeted & member)
                if kept.shape[0]:
                    static_kept, score_kept = scoring.fanout_scores(
                        cache, location, content, affinity, bid, kept
                    )
                    chosen = _exact_topk(score_kept, ad_ids[kept], k)
                    entries = []
                    for j in chosen:
                        row = kept[j]
                        content_j = float(content[row])
                        score_j = float(score_kept[j])
                        entries.append(
                            ScoredAd(
                                ad_id=int(ad_ids[row]),
                                score=score_j,
                                content=content_j,
                                static=score_j - weights.alpha * content_j,
                            )
                        )
                    exact = tuple(entries)
            results.append(
                PersonalizedSlate(slate=exact, certified=True, fell_back=True)
            )
        return results

    def exact_slate(
        self,
        message_vec: SparseVector,
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
        k: int,
    ) -> tuple[ScoredAd, ...]:
        """One guaranteed-exact combined-query probe (also the per-delivery
        baseline: EngineMode.EXACT routes every delivery here)."""
        scoring = self._scoring
        query = scoring.combined_query(message_vec, profile_vec)
        if self._vector:
            # The block form evaluates targeting + statics for a whole
            # chunk of the content-ordered walk at once; the shared
            # mirror makes per-probe construction free.
            searcher = VectorSearcher(
                self._index,
                static_block=scoring.probe_static_block(
                    self._static_cache, location, timestamp
                ),
                max_static=scoring.max_probe_static,
                compact=self._compact,
            )
        else:
            searcher = make_searcher(
                self._config.searcher,
                self._index,
                static_score=scoring.probe_static_fn(location, timestamp),
                max_static=scoring.max_probe_static,
                filter_fn=scoring.targeting_filter(location, timestamp),
            )
        slate: list[ScoredAd] = []
        for entry in searcher.search(query, k):
            ad_terms = self._index.ad_terms(entry.item)
            content = dot(message_vec, ad_terms)
            slate.append(
                ScoredAd(
                    ad_id=entry.item,
                    score=entry.score,
                    content=content,
                    static=entry.score - scoring.weights.alpha * content,
                )
            )
        return tuple(slate)

"""Per-delivery personalisation on the ``ta`` reference: CAR-share. The
additive score has three sources of mass, and each gets its own candidate
list with a proven cutoff on what any *excluded* ad could carry:

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
combined-query TA probe (``exact_fallback=True``) or serves the
approximate slate, as production systems do; experiment F6 measures the
trade-off. The serving kernel (:mod:`repro.core.rerank`) is held to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.candidates import CandidateSet
from repro.core.pipeline import PersonalizedDelivery, PersonalizedFanOut, slate_k
from repro.core.scoring import ScoredAd, Slate
from repro.core.services import EngineServices
from repro.errors import ConfigError
from repro.geo.point import GeoPoint
from repro.reference.static_list import GlobalStaticTopList
from repro.reference.threshold import ThresholdSearcher
from repro.util.sparse import SparseVector, dot


@dataclass(frozen=True, slots=True)
class _ProfileCandidates:
    """Cached per-user profile-probe results."""

    profile_epoch: int
    corpus_add_epoch: int
    entries: tuple[tuple[int, float], ...]  # (ad_id, profile affinity)
    cutoff: float  # bound on the affinity of any ad not in entries


class ThresholdCandidateGenerator:
    """The shared content probe as one TA search per message: the
    ``ta`` twin of :class:`~repro.core.candidates.SharedCandidateGenerator`."""

    kind = "ta"

    def __init__(self, index, overfetch: int) -> None:
        """``index`` is an :class:`~repro.reference.inverted.AdInvertedIndex`."""
        if overfetch < 1:
            raise ConfigError(f"overfetch must be >= 1, got {overfetch}")
        self._searcher = ThresholdSearcher(index)
        self.overfetch = overfetch

    def generate(self, message_vec: SparseVector) -> CandidateSet:
        """Content top-``overfetch`` for one message vector."""
        depth = self.overfetch
        results = self._searcher.search(message_vec, depth)
        entries = tuple((entry.item, entry.score) for entry in results)
        complete = len(entries) < depth
        return CandidateSet(
            entries=entries,
            cutoff=0.0 if complete else entries[-1][1],
            complete=complete,
        )


class CandidateSources:
    """The per-user profile probe and the global geo+bid prefix, each
    with its cutoff. ``searcher`` probes the engine's index: TA on ``ta``,
    the vector probe when INCREMENTAL runs on ``vector``."""

    def __init__(self, services: EngineServices, searcher) -> None:
        self._scoring = services.scoring
        self._config = services.config
        self.searcher = searcher
        self._profile_cache: dict[int, _ProfileCandidates] = {}

    @cached_property
    def _static_list(self) -> GlobalStaticTopList:
        """Built, and subscribed to the corpus, by its first reader."""
        return GlobalStaticTopList(
            self._scoring.corpus, self._scoring.weights, self._config.static_candidates
        )

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
        results = self.searcher.search(profile_vec, depth)
        entries = tuple((entry.item, entry.score) for entry in results)
        candidates = _ProfileCandidates(
            profile_epoch=profile_epoch,
            corpus_add_epoch=corpus_epoch,
            entries=entries,
            cutoff=0.0 if len(entries) < depth else entries[-1][1],
        )
        self._profile_cache[user_id] = candidates
        return candidates


class ReferencePersonalizer(CandidateSources):
    """Turns shared candidates into per-user slates over the TA index."""

    row_cache = None  # the reference's slates carry no index rows

    def __init__(self, services: EngineServices) -> None:
        index = services.index
        super().__init__(services, ThresholdSearcher(index))
        self._index = index
        self._exact_fallback = services.config.exact_fallback

    def clicked(self, ad_id: int, writes_before: int, writes_after: int) -> None:
        """The reference keeps nothing between events that a click moves."""

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
    ) -> PersonalizedDelivery:
        """Union-score, certify, and fall back if needed (when the engine
        is configured with ``exact_fallback``): the slate and how it was
        produced."""
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
        slate = Slate.of(scored[:k])

        weights = scoring.weights
        certificate = (
            weights.alpha * candidates.cutoff
            + weights.beta * profile_cands.cutoff
            + self._static_list.cutoff()
        )
        certified = len(slate) == k and slate[-1].score >= certificate
        if certified or not self._exact_fallback:
            return PersonalizedDelivery(slate, certified, False, False)
        return PersonalizedDelivery(
            self.exact_slate(message_vec, profile_vec, location, timestamp, k),
            True,
            True,
            False,
        )

    def exact_slate(
        self,
        message_vec: SparseVector,
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
        k: int,
    ) -> Slate:
        """One guaranteed-exact top-k for a (message, profile) pair: one
        combined-query TA probe (also the per-delivery baseline: EXACT
        routes every delivery here)."""
        scoring = self._scoring
        query = scoring.combined_query(message_vec, profile_vec)
        searcher = ThresholdSearcher(
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
        return Slate.of(slate)


class _PerFollowerStage:
    """A stage whose fan-out is its scalar ``personalize``, one follower
    at a time."""

    def __init__(
        self, services: EngineServices, personalizer: ReferencePersonalizer
    ) -> None:
        self._services = services
        self._personalizer = personalizer

    def personalize_batch(
        self, event, candidates, resolved, write=None, *, cut=None
    ) -> PersonalizedFanOut:
        slates, flags = [], []
        for position, follower in enumerate(resolved):
            delivery = self.personalize(event, candidates, *follower)
            if cut is not None:
                cut(1)
            if write is not None:
                write(position, delivery.slate, None)
            slates.append(delivery.slate)
            flags.append(delivery[1:])
        return PersonalizedFanOut(slates, flags)


class SharedPersonalizeStage(_PerFollowerStage):
    """SHARED mode on the ``ta`` reference: union-score the three
    candidate sources per follower, certify, and fall back to one exact
    probe when certification fails (the QoS rung may shrink k)."""

    def personalize(
        self, event, candidates, user_id, state
    ) -> PersonalizedDelivery:
        k = slate_k(self._services)
        return self._personalizer.slate_for(
            candidates,
            event.message_vec,
            user_id,
            state.profile.unit,
            state.profile.epoch,
            state.location,
            event.timestamp,
            k,
        )


class ExactPersonalizeStage(_PerFollowerStage):
    """EXACT mode on the ``ta`` reference: one exact combined-query probe
    per delivery (the strong baseline). Deliveries count as ``exact``,
    never as fallbacks."""

    def personalize(
        self, event, candidates, user_id, state
    ) -> PersonalizedDelivery:
        k = slate_k(self._services)
        slate = self._personalizer.exact_slate(
            event.message_vec,
            state.profile.unit,
            state.location,
            event.timestamp,
            k,
        )
        return PersonalizedDelivery(slate, True, False, True)

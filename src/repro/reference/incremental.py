"""Standing per-user top-k, maintained incrementally as the feed slides.

In incremental mode every user carries a *shadow set*: the ``shadow_size``
ads with the highest content affinity to their current feed context,
together with ``cutoff`` — a proven upper bound on the content dot of every
ad **outside** the shadow. On each arrival the maintainer:

1. bounds how much any outside ad could have gained: the arriving message's
   shared probe gives ``g_cut`` (max message-affinity of any unfetched ad),
   and uniform decay ``d <= 1`` only shrinks old content, so the new
   outside bound is ``d·cutoff + g_cut``;
2. exactly rescores only ``shadow ∪ message-probe`` candidates against the
   updated context;
3. certifies the resulting top-k: if its k-th total clears
   ``alpha·(d·cutoff + g_cut) + max_static``, no outside ad can belong in
   the slate and the update cost stayed O(shadow);
4. otherwise falls back to two index probes (an exact combined-query probe
   for the slate, a content probe to rebuild the shadow).

Window evictions and decay only ever *lower* content dots (weights are
non-negative), so they never invalidate the bound — the benchmark suite's
F7 experiment measures how rarely step 4 fires.

Incremental-mode score semantics: the content term is the **raw decayed
dot** with the feed context, not a cosine. Raw dots make the monotonicity
argument above airtight (normalisation could *raise* scores on eviction);
ranking quality is unaffected for any single user at a single instant
because the context norm is a rank-preserving constant there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.candidates import CandidateSet
from repro.core.pipeline import PersonalizedDelivery
from repro.core.scoring import EMPTY_SLATE, ScoredAd, Slate
from repro.core.services import EngineServices, UserState
from repro.errors import ConfigError
from repro.geo.point import GeoPoint
from repro.profiles.context import FeedContext
from repro.reference.rerank import CandidateSources, _PerFollowerStage
from repro.util.sparse import SparseVector, dot


@dataclass
class IncrementalStats:
    """Per-maintainer counters (aggregated by the engine for F7)."""

    arrivals: int = 0
    certified: int = 0
    refreshes: int = 0
    served_approximate: int = 0


@dataclass
class IncrementalTopK:
    """One user's incrementally-maintained slate.

    Knobs and scoring come from the shared
    :class:`~repro.core.services.EngineServices`, the candidate lists and
    the content probe from ``sources``, a refresh's exact slate from
    ``personalizer.exact_slate`` (the kernel's cut on ``vector``).
    """

    user_id: int
    context: FeedContext
    services: EngineServices
    personalizer: object
    sources: CandidateSources
    stats: IncrementalStats = field(default_factory=IncrementalStats)

    def __post_init__(self) -> None:
        config = self.services.config
        self.scoring = self.services.scoring
        self.k = config.k
        self.shadow_size = config.shadow_size
        self.exact_fallback = config.exact_fallback
        if self.shadow_size < self.k:
            raise ConfigError(
                f"shadow_size ({self.shadow_size}) must be >= k ({self.k})"
            )
        self._shadow: list[int] = []
        self._cutoff = 0.0  # bound on content dot of any ad outside _shadow
        self._slate = EMPTY_SLATE
        self._profile_epoch = -1

    # -- reads -------------------------------------------------------------

    @property
    def slate(self) -> Slate:
        """The standing top-k as of the last arrival."""
        return self._slate

    @property
    def shadow(self) -> list[int]:
        return list(self._shadow)

    @property
    def cutoff(self) -> float:
        return self._cutoff

    # -- the arrival path ------------------------------------------------------

    def on_arrival(
        self,
        msg_id: int,
        timestamp: float,
        message_vec: SparseVector,
        message_probe: CandidateSet,
        profile_vec: SparseVector,
        profile_epoch: int,
        location: GeoPoint | None,
    ) -> Slate:
        """Fold one delivered message into the standing top-k.

        ``message_probe`` is the message's shared content probe (depth
        ``shadow_size``), computed once per post and reused across the whole
        fan-out.
        """
        self.stats.arrivals += 1
        # The static part depends on the profile; if the user posted since
        # the last refresh, cached certainty about statics is gone.
        force_refresh = profile_epoch != self._profile_epoch
        decay = self._decay_factor(timestamp)
        gain_cut = message_probe.cutoff
        outside_bound = decay * self._cutoff + gain_cut

        self.context.add(msg_id, timestamp, message_vec)

        profile_cands = self.sources.profile_candidates(
            self.user_id, profile_vec, profile_epoch
        )
        candidate_ids = set(self._shadow)
        candidate_ids.update(message_probe.ad_ids())
        candidate_ids.update(ad_id for ad_id, _ in profile_cands.entries)
        candidate_ids.update(self.sources.static_candidate_ids())
        contents, totals = self._rescore(
            candidate_ids, profile_vec, location, timestamp
        )

        # New shadow: content top-shadow_size among candidates; anything
        # outside is bounded by max(outside_bound, weakest kept content).
        contents.sort(key=lambda pair: (-pair[0], pair[1]))
        kept = contents[: self.shadow_size]
        self._shadow = [ad_id for _, ad_id in kept]
        if len(kept) == self.shadow_size:
            self._cutoff = max(outside_bound, kept[-1][0])
        else:
            self._cutoff = outside_bound

        totals.sort(key=lambda scored: (-scored.score, scored.ad_id))
        slate = Slate.of(totals[: self.k])
        threshold = slate[-1].score if len(slate) == self.k else float("-inf")
        weights = self.scoring.weights
        certificate = (
            weights.alpha * outside_bound
            + weights.beta * profile_cands.cutoff
            + self.sources.static_cutoff()
        )
        certified = not force_refresh and threshold >= certificate

        if certified:
            self.stats.certified += 1
            self._slate = slate
        elif self.exact_fallback:
            self._refresh(profile_vec, location, timestamp)
        else:
            self.stats.served_approximate += 1
            self._slate = slate
        self._profile_epoch = profile_epoch
        return self._slate

    # -- internals ----------------------------------------------------------------

    def _decay_factor(self, timestamp: float) -> float:
        half_life = self.context.half_life_s
        if half_life is None:
            return 1.0
        dt = max(0.0, timestamp - self.context.last_update)
        return 0.5 ** (dt / half_life)

    def _rescore(
        self,
        candidate_ids: set[int],
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
    ) -> tuple[list[tuple[float, int]], list[ScoredAd]]:
        """Exact content dots and totals for the candidate set.

        Returns (content, ad_id) pairs for shadow selection — kept even for
        ads whose targeting currently rejects the user, since targeting is
        time-varying while the shadow is content-only — and ScoredAds for
        the slate (eligible, relevance-floor-passing ads only).
        """
        corpus = self.scoring.corpus
        contents: list[tuple[float, int]] = []
        totals: list[ScoredAd] = []
        for ad_id in candidate_ids:
            if ad_id not in corpus or not corpus.is_active(ad_id):
                continue
            terms = corpus.get(ad_id).terms
            content = self.context.dot_with(terms)
            contents.append((content, ad_id))
            if content <= 0.0 and (
                self.scoring.weights.beta <= 0.0 or dot(profile_vec, terms) <= 0.0
            ):
                continue  # relevance floor: no term shared with the combined query
            static = self.scoring.static_score(
                ad_id, profile_vec, location, timestamp
            )
            if static is None:
                continue  # targeting rejected
            totals.append(self.scoring.scored_ad(ad_id, content, static))
        return contents, totals

    def _refresh(
        self,
        profile_vec: SparseVector,
        location: GeoPoint | None,
        timestamp: float,
    ) -> None:
        """Exact rebuild: the exact slate of the raw context for the slate,
        one content probe for the shadow."""
        self.stats.refreshes += 1
        raw_context = self.context.raw_vector()
        alpha = self.scoring.weights.alpha

        slate: list[ScoredAd] = []
        for scored in self.personalizer.exact_slate(
            raw_context, profile_vec, location, timestamp, self.k
        ):
            # Content as every other arrival reports it: ``dot_with``
            # scales after the sum, ``raw_vector`` per term, and the two
            # differ in the last ulp.
            content = self.context.dot_with(
                self.scoring.corpus.get(scored.ad_id).terms
            )
            slate.append(
                ScoredAd(
                    ad_id=scored.ad_id,
                    score=scored.score,
                    content=content,
                    static=scored.score - alpha * content,
                )
            )
        self._slate = Slate.of(slate)

        content_probe = self.sources.searcher.search(raw_context, self.shadow_size)
        self._shadow = [entry.item for entry in content_probe]
        if len(content_probe) == self.shadow_size:
            self._cutoff = content_probe[-1].score
        else:
            self._cutoff = 0.0


class IncrementalPersonalizeStage(_PerFollowerStage):
    """INCREMENTAL mode: fold the arrival into the user's standing top-k
    (``personalizer`` and ``sources`` as for :class:`IncrementalTopK`)."""

    def __init__(
        self, services: EngineServices, personalizer, sources: CandidateSources
    ) -> None:
        self._services = services
        self._personalizer = personalizer
        self._sources = sources

    def _maintainer_of(self, user_id: int, state: UserState) -> IncrementalTopK:
        if state.incremental is None:
            state.incremental = IncrementalTopK(
                user_id=user_id,
                context=self._services.context_of(state),
                services=self._services,
                personalizer=self._personalizer,
                sources=self._sources,
            )
        return state.incremental

    def personalize(
        self, event, candidates, user_id, state
    ) -> PersonalizedDelivery:
        maintainer = self._maintainer_of(user_id, state)
        before = maintainer.stats.refreshes
        slate = maintainer.on_arrival(
            event.msg_id,
            event.timestamp,
            event.message_vec,
            candidates,
            state.profile.unit,
            state.profile.epoch,
            state.location,
        )
        refreshed = maintainer.stats.refreshes > before
        if refreshed:
            self._services.stats.incremental_refreshes += 1
        return PersonalizedDelivery(slate, not refreshed, refreshed, False)

"""The context-aware advertising engine facade: post → pipeline → result.

``AdEngine`` wires every substrate into one
:class:`~repro.core.services.EngineServices`, builds the staged
:class:`~repro.core.pipeline.DeliveryPipeline`, and exposes the
stream-facing operations: :meth:`post` (a user publishes a message; every
follower's feed receives it and gets an ad slate), :meth:`post_event`
(the shard-portable variant consuming a pre-vectorized
:class:`~repro.core.pipeline.PostEvent`), :meth:`post_batch`,
:meth:`checkin` (location update) and :meth:`slate_for_message` (one-off
exact query, used by examples and the effectiveness harness).

The searcher kind picks the index (:func:`~repro.index.factory.make_index`)
and, with the :class:`~repro.core.config.EngineMode`, what serves
(:func:`_wire`), once at wiring time: the delivery path is mode-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.ads.budget import BudgetManager
from repro.ads.corpus import AdCorpus
from repro.ads.ctr import CtrEstimator
from repro.core.candidates import SharedCandidateGenerator
from repro.core.config import EngineConfig, EngineMode
from repro.core.pipeline import (
    CtrFeedbackStage,
    DeliveryPipeline,
    DeliveryResult,
    GspChargeStage,
    KernelPersonalizeStage,
    NoChargeStage,
    NoFeedbackStage,
    NoProbeStage,
    PostEvent,
    SharedProbeStage,
    TextVectorizeStage,
)
from repro.core.rerank import Personalizer
from repro.core.scoring import EMPTY_SLATE, ScoringModel, Slate
from repro.core.services import EngineServices, EngineStats, UserState, UserStateStore
from repro.errors import ConfigError
from repro.geo.point import GeoPoint
from repro.graph.social import SocialGraph
from repro.index.factory import make_index
from repro.index.vector import VectorSearcher
from repro.obs.registry import NULL_METRICS, MetricsRegistry, NullMetrics, counted
from repro.obs.trace import NOOP_REQUEST_TRACER, NoopRequestTracer, RequestTracer
from repro.obs.tracer import NoopTracer, StageTracer
from repro.qos.controller import QosController
from repro.stream.clock import SimClock
from repro.text.tokenizer import Tokenizer
from repro.text.vectorizer import TfidfVectorizer
from repro.util.sparse import MutableSparseVector

__all__ = [
    "AdEngine",
    "DeliveryResult",
    "EngineStats",
    "PostResult",
]


@dataclass(frozen=True, slots=True)
class PostResult:
    """Everything that happened when one message was posted.

    The QoS fields stay at their zero defaults unless a
    :class:`~repro.qos.controller.QosController` is attached:
    ``num_deliveries`` then counts *admitted* deliveries only, with
    ``num_shed`` holding the rest of the fan-out and ``revenue_shed``
    the upper bound on what those shed slates could have earned.
    """

    msg_id: int
    author_id: int
    timestamp: float
    num_deliveries: int
    num_impressions: int
    revenue: float
    deliveries: tuple[DeliveryResult, ...]
    num_shed: int = 0
    num_degraded: int = 0
    revenue_shed: float = 0.0


def _wire(services: EngineServices, vectorize: TextVectorizeStage) -> tuple:
    """The probe, the personalizer and the pipeline that serve
    ``services.config``, over the index its searcher kind built. SHARED
    and EXACT on ``vector`` are the kernel's; ``ta`` is the reference's
    (:mod:`repro.reference`, imported only here), and so is INCREMENTAL,
    which on ``vector`` draws candidates from vector probes and refreshes
    from the kernel's one-follower exact cut."""
    config = services.config
    mode = config.mode
    index = services.index
    depth = config.overfetch if mode is EngineMode.SHARED else config.shadow_size
    if config.searcher == "vector":
        generator = SharedCandidateGenerator(index, depth)
        personalizer = Personalizer(services)
    if config.searcher == "vector" and mode is not EngineMode.INCREMENTAL:
        stage = KernelPersonalizeStage(
            services, personalizer, exact=mode is EngineMode.EXACT
        )
    else:
        from repro import reference

        if config.searcher == "ta":
            generator = reference.ThresholdCandidateGenerator(index, depth)
            personalizer = sources = reference.ReferencePersonalizer(services)
        else:
            sources = reference.CandidateSources(services, VectorSearcher(index))
        if mode is EngineMode.INCREMENTAL:
            stage = reference.IncrementalPersonalizeStage(
                services, personalizer, sources
            )
        elif mode is EngineMode.EXACT:
            stage = reference.ExactPersonalizeStage(services, personalizer)
        else:
            stage = reference.SharedPersonalizeStage(services, personalizer)
    if services.learner is not None:
        from repro.learn.linucb import LinUcbRerankStage

        stage = LinUcbRerankStage(services, stage)
    row_cache = personalizer.row_cache
    return generator, personalizer, DeliveryPipeline(
        services,
        vectorize=vectorize,
        candidates=(
            NoProbeStage()
            if mode is EngineMode.EXACT
            else SharedProbeStage(services, generator)
        ),
        personalize=stage,
        charge=(
            GspChargeStage(services, row_cache)
            if config.charge_impressions
            else NoChargeStage()
        ),
        feedback=(
            CtrFeedbackStage(services, row_cache)
            if services.ctr is not None
            else NoFeedbackStage()
        ),
        row_cache=row_cache,
    )


class AdEngine:
    """The full context-aware ad recommendation pipeline, as a facade."""

    def __init__(
        self,
        corpus: AdCorpus,
        graph: SocialGraph,
        vectorizer: TfidfVectorizer,
        *,
        config: EngineConfig | None = None,
        tokenizer: Tokenizer | None = None,
        tracer: StageTracer | None = None,
        metrics: "MetricsRegistry | None" = None,
        qos: "QosController | None" = None,
        request_tracer: "RequestTracer | None" = None,
    ) -> None:
        """``tracer`` (optional :class:`~repro.obs.tracer.StageTracer`)
        receives one span per pipeline stage per event; the default
        :class:`~repro.obs.tracer.NoopTracer` observes nothing.
        ``metrics`` (optional :class:`~repro.obs.registry.MetricsRegistry`)
        is the live side: windowed per-stage latency histograms, with
        posts/deliveries/impressions/revenue counters read from
        :attr:`stats`; disabled by default. The three sinks subscribe to
        one :class:`~repro.obs.tracer.Seam`, built here.
        ``qos`` (optional :class:`~repro.qos.controller.QosController`)
        attaches the QoS control plane — admission control and the
        degradation ladder; with the ``None`` default the delivery path is
        byte-identical to an engine without one.
        ``request_tracer`` (optional
        :class:`~repro.obs.trace.RequestTracer`) attaches distributed
        request tracing: a :class:`~repro.obs.trace.TraceContext` is
        minted per event in :meth:`make_event` and each delivery records
        a per-process trace segment; the shared noop default observes
        nothing and leaves events byte-identical.
        """
        config = config or EngineConfig()
        self.vectorizer = vectorizer
        self.tokenizer = tokenizer or Tokenizer()
        budget = BudgetManager(
            corpus,
            campaign_start=0.0,
            campaign_end=config.campaign_duration_s,
            pacing_enabled=config.pacing_enabled,
        )
        index = make_index(config.searcher, corpus)
        ctr = (
            CtrEstimator(
                prior_ctr=config.ctr_prior,
                prior_strength=config.ctr_prior_strength,
            )
            if config.ctr_feedback
            else None
        )
        scoring = ScoringModel(
            corpus,
            config.weights,
            budget_manager=budget,
            ctr_estimator=ctr,
        )
        self.services = EngineServices(
            config=config,
            corpus=corpus,
            index=index,
            scoring=scoring,
            graph=graph,
            budget=budget,
            ctr=ctr,
            clock=SimClock(),
            users=UserStateStore(graph, config.profile_half_life_s),
            tracer=tracer or NoopTracer(),
            metrics=metrics if metrics is not None else NULL_METRICS,
            request_tracer=(
                request_tracer if request_tracer is not None
                else NOOP_REQUEST_TRACER
            ),
            qos=qos,
        )
        services = self.services
        if config.personalize == "linucb":
            from repro.learn.linucb import LinUcbLearner

            services.learner = LinUcbLearner(
                alpha=config.alpha_ucb,
                ridge_lambda=config.linucb_lambda,
                sync_interval_s=config.linucb_sync_interval_s,
                frozen=config.linucb_frozen,
                seam=services.seam,
            )
        if services.metrics.enabled:
            stats, learner = services.stats, services.learner
            services.metrics.read_from(
                lambda: counted(stats, learner.telemetry() if learner else None)
            )
        self.candidate_gen, self.personalizer, self.pipeline = _wire(
            services, TextVectorizeStage(self.vectorizer, self.tokenizer)
        )
        self._next_msg_id = 0
        # Ads launched after construction (checkpoints must replay them,
        # since a restore target is built from the base catalog only).
        self._launched_ads: list = []
        corpus.subscribe(on_retire=self._count_retirement)

    def _count_retirement(self, _ad) -> None:
        self.stats.retired_ads += 1

    # -- services delegation ------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self.services.config

    @property
    def corpus(self) -> AdCorpus:
        return self.services.corpus

    @property
    def graph(self) -> SocialGraph:
        return self.services.graph

    @property
    def index(self):
        """The engine's one index: the posting-list dict on ``ta``, the
        compact arrays on ``vector`` (which builds no dict index)."""
        return self.services.index

    @property
    def budget(self) -> BudgetManager:
        return self.services.budget

    @property
    def scoring(self) -> ScoringModel:
        return self.services.scoring

    @property
    def ctr(self) -> CtrEstimator | None:
        return self.services.ctr

    @property
    def stats(self) -> EngineStats:
        return self.services.stats

    @property
    def tracer(self) -> StageTracer:
        return self.services.tracer

    @property
    def metrics(self) -> "MetricsRegistry | NullMetrics":
        return self.services.metrics

    @property
    def qos(self) -> "QosController | None":
        return self.services.qos

    @property
    def request_tracer(self) -> "RequestTracer | NoopRequestTracer":
        return self.services.request_tracer

    # -- user management ---------------------------------------------------

    def register_user(self, user_id: int, location: GeoPoint | None = None) -> None:
        """Make a user known to the engine (and the graph, if absent)."""
        if not self.graph.has_user(user_id):
            self.graph.add_user(user_id)
        state = self.services.users.register(user_id)
        if location is not None:
            state.location = location

    def _state(self, user_id: int) -> UserState:
        return self.services.users.state(user_id)

    def checkin(self, user_id: int, point: GeoPoint, timestamp: float) -> None:
        """Record a location update."""
        self.services.clock.advance_to_at_least(timestamp)
        self._state(user_id).location = point

    def location_of(self, user_id: int) -> GeoPoint | None:
        return self._state(user_id).location

    # -- text -----------------------------------------------------------------

    def vectorize(self, text: str) -> MutableSparseVector:
        """Text → unit sparse vector (custom pipeline when configured)."""
        return self.pipeline.vectorize(text)

    # -- the stream-facing operations -------------------------------------------

    def make_event(
        self,
        author_id: int,
        text: str,
        timestamp: float,
        *,
        msg_id: int | None = None,
    ) -> PostEvent:
        """Vectorize one post into a shard-portable :class:`PostEvent`.

        This is the trace edge: when request tracing is enabled the event
        leaves here carrying a freshly minted
        :class:`~repro.obs.trace.TraceContext` (deterministic in
        ``(msg_id, seed)``), which every downstream process honours.
        """
        if msg_id is None:
            msg_id = self._next_msg_id
        request_tracer = self.services.request_tracer
        return PostEvent(
            msg_id=msg_id,
            author_id=author_id,
            timestamp=timestamp,
            message_vec=self.pipeline.vectorize(text),
            text=text,
            trace=(
                request_tracer.mint(msg_id)
                if request_tracer.enabled
                else None
            ),
        )

    def post(
        self,
        author_id: int,
        text: str,
        timestamp: float,
        *,
        msg_id: int | None = None,
    ) -> PostResult:
        """Publish a message: update the author's profile, fan out to every
        follower, produce (and charge) an ad slate per delivery."""
        return self.post_event(
            self.make_event(author_id, text, timestamp, msg_id=msg_id)
        )

    def post_event(self, event: PostEvent) -> PostResult:
        """Publish a pre-vectorized event — the per-shard batch entry point
        the router uses so a post is vectorized once, not once per shard."""
        request_tracer = self.services.request_tracer
        segment = None
        if request_tracer.enabled and event.trace is not None:
            segment = request_tracer.start(event.trace, "post")
        try:
            self._ingest(event)
            followers = sorted(self.graph.followers(event.author_id))
            outcomes = self.pipeline.deliver_batch(event, followers)
            result = self._assemble_result(event, outcomes)
        except Exception as exc:
            if segment is not None:
                segment.mark_error(repr(exc))
                request_tracer.finish(segment)
            raise
        if segment is not None:
            segment.set_attrs(
                msg_id=event.msg_id,
                author_id=event.author_id,
                deliveries=result.num_deliveries,
                shed=result.num_shed,
                degraded=result.num_degraded,
            )
            request_tracer.finish(segment)
        return result

    def ingest_event(self, event: PostEvent) -> None:
        """Apply an event's stream bookkeeping (clock, watermark, author
        profile) without delivering — the shard-reintegration entry point:
        a recovered shard replays the ingestion it missed so its author
        profiles converge with the no-fault timeline."""
        self._ingest(event)

    def deliver_event_to(
        self,
        event: PostEvent,
        followers: Sequence[int],
        *,
        ingest: bool = False,
        candidates_only: bool = False,
    ) -> PostResult:
        """Fan one event out to an explicit follower list.

        The failover entry point: a fallback shard serves another shard's
        followers without ingesting the event (``ingest=False``), so the
        home shard's eventual reintegration replay is the only profile
        update and post-recovery state matches the no-fault run.
        ``candidates_only=True`` serves the shared profile-less slate —
        the fallback shard holds no profile state for foreign followers.
        """
        request_tracer = self.services.request_tracer
        segment = None
        if request_tracer.enabled and event.trace is not None:
            segment = request_tracer.start(
                event.trace,
                "deliver_redirect" if not ingest else "deliver",
            )
            segment.set_attrs(candidates_only=candidates_only)
        try:
            if ingest:
                self._ingest(event)
            else:
                self.services.clock.advance_to_at_least(event.timestamp)
            outcomes = self.pipeline.deliver_batch(
                event, sorted(followers), candidates_only=candidates_only
            )
            result = self._assemble_result(event, outcomes)
        except Exception as exc:
            if segment is not None:
                segment.mark_error(repr(exc))
                request_tracer.finish(segment)
            raise
        if segment is not None:
            segment.set_attrs(
                msg_id=event.msg_id, deliveries=result.num_deliveries
            )
            request_tracer.finish(segment)
        return result

    def post_batch(self, posts: Iterable) -> list[PostResult]:
        """Publish a timestamp-ordered batch of posts (objects with
        ``author_id``/``text``/``timestamp``), each as :meth:`post` would:
        the engine mints every message id, as a router's batch does.

        The harness-facing bulk entry point: one facade call per batch
        instead of one per post.
        """
        return [
            self.post(post.author_id, post.text, post.timestamp) for post in posts
        ]

    def _ingest(self, event: PostEvent) -> None:
        """Stream bookkeeping for one event: clock, id watermark, author
        profile update."""
        self.services.clock.advance_to_at_least(event.timestamp)
        learner = self.services.learner
        if learner is not None and learner.auto_sync:
            # Epoch boundary: fold pending bandit updates into the serving
            # snapshot before this event's deliveries. Shard engines skip
            # this (auto_sync off) — their router coordinates the fold.
            learner.maybe_sync(event.timestamp)
        self._next_msg_id = max(self._next_msg_id, event.msg_id + 1)
        self._state(event.author_id).profile.update(
            event.message_vec, event.timestamp
        )
        self.stats.posts += 1

    def _assemble_result(
        self,
        event: PostEvent,
        outcomes: Sequence[DeliveryResult],
    ) -> PostResult:
        num_impressions = 0
        num_degraded = 0
        revenue = 0.0
        for outcome in outcomes:
            num_impressions += len(outcome.slate)
            revenue += outcome.revenue
            if outcome.degraded:
                num_degraded += 1
        num_shed, revenue_shed = self.pipeline.pop_batch_shed()
        return PostResult(
            msg_id=event.msg_id,
            author_id=event.author_id,
            timestamp=event.timestamp,
            num_deliveries=len(outcomes),
            num_impressions=num_impressions,
            revenue=revenue,
            # The very records the pipeline built, one per delivery.
            deliveries=tuple(outcomes) if self.config.collect_deliveries else (),
            num_shed=num_shed,
            num_degraded=num_degraded,
            revenue_shed=revenue_shed,
        )

    # -- campaign churn ------------------------------------------------------

    def launch_campaign(self, ad, timestamp: float) -> None:
        """Add a new ad mid-stream.

        The corpus broadcast keeps every derived structure current (index,
        budget manager, static list); per-user profile-candidate caches are
        invalidated by the corpus add-epoch bump, so the new ad is eligible
        for the very next delivery.
        """
        self.services.clock.advance_to_at_least(timestamp)
        self.corpus.add(ad)
        self._launched_ads.append(ad)

    def end_campaign(self, ad_id: int, timestamp: float) -> None:
        """Deactivate a campaign before its budget runs out (idempotent:
        ending an already-retired campaign is a no-op)."""
        self.services.clock.advance_to_at_least(timestamp)
        if self.corpus.is_active(ad_id):
            self.corpus.retire(ad_id)

    def record_click(
        self,
        ad_id: int,
        *,
        user_id: int | None = None,
        slot_index: int | None = None,
    ) -> None:
        """Report a click on a previously-served impression.

        ``user_id``/``slot_index`` identify the delivering slate position;
        with them the LinUCB learner (when configured) attributes the
        reward to the exposure's stored serving context. Legacy positional
        calls still feed the CTR estimator. A no-op unless click feedback
        of some form is enabled — callers (the click simulator, a real
        frontend) do not need to know the configuration.
        """
        if self.ctr is not None:
            # The click writes one ad's evidence: the kernel's resident
            # bid term re-reads that row rather than rebuilding.
            scoring = self.services.scoring
            writes = scoring.bid_writes()
            self.ctr.record_click(ad_id)
            self.personalizer.clicked(ad_id, writes, scoring.bid_writes())
        learner = self.services.learner
        if learner is not None:
            learner.record_click(ad_id, user_id=user_id, slot_index=slot_index)

    def slate_for_message(
        self, user_id: int, text: str, timestamp: float
    ) -> Slate:
        """One-off exact slate for a (user, message) pair — a read-only query
        that does not touch profiles, contexts or budgets."""
        state = self._state(user_id)
        return self.personalizer.exact_slate(
            self.vectorize(text),
            state.profile.unit,
            state.location,
            timestamp,
            self.config.k,
        )

    def standing_slate(self, user_id: int) -> Slate:
        """Incremental mode: the user's slate as of their last delivery."""
        if self.config.mode is not EngineMode.INCREMENTAL:
            raise ConfigError(
                "standing_slate() requires EngineMode.INCREMENTAL; "
                "shared/exact modes rank per message via post()"
            )
        state = self._state(user_id)
        if state.incremental is None:
            return EMPTY_SLATE
        return state.incremental.slate

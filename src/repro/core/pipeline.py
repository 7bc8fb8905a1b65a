"""The staged delivery pipeline: post → vectorize → probe → fan-out.

The engine's hot path is an explicit pipeline of five pluggable stages
(cf. the ingest→embed→blend→observe decomposition production feed-ad
systems use):

* :class:`VectorizeStage` — text → unit sparse vector, once per message;
* :class:`CandidateStage` — the per-message shared content probe (or
  nothing, for the per-delivery EXACT baseline);
* :class:`PersonalizeStage` — per-follower slate construction; each
  :class:`~repro.core.config.EngineMode` (and, for SHARED and EXACT, the
  searcher: the ``ta`` reference bodies or the numpy kernel) is an
  implementation selected at wiring time, so the fan-out loop has no
  mode branches;
* :class:`ChargeStage` — GSP pricing + budget debit per served slate;
* :class:`FeedbackStage` — impression bookkeeping for the CTR estimator.

:class:`DeliveryPipeline` wires the stages over one
:class:`~repro.core.services.EngineServices` and exposes the batch entry
point :meth:`DeliveryPipeline.deliver_batch`: one :class:`PostEvent` in,
one :class:`DeliveryResult` per follower out, with the shared probe and
the per-follower profile-vector/location lookups amortised across the
whole fan-out. The sharded router and the replay driver drive batches
directly; :class:`~repro.core.engine.AdEngine` survives as a thin facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple, Protocol, runtime_checkable

from repro.ads.auction import run_gsp_auction
from repro.core.candidates import CandidateSet, SharedCandidateGenerator
from repro.core.config import EngineMode
from repro.core.incremental import IncrementalTopK
from repro.core.rerank import Personalizer
from repro.core.scoring import ScoredAd
from repro.core.services import EngineServices, UserState
from repro.errors import ConfigError
from repro.obs.trace import TraceContext
from repro.profiles.profile import UserProfile
from repro.qos.admission import slate_value_bound
from repro.text.tokenizer import Tokenizer
from repro.text.vectorizer import TfidfVectorizer
from repro.util.sparse import MutableSparseVector, SparseVector


@dataclass(frozen=True, slots=True)
class PostEvent:
    """One published message, vectorized once, ready to fan out.

    Events are shard-portable: the sharded router vectorizes a post once
    and hands the same event to every shard owning a follower.
    """

    msg_id: int
    author_id: int
    timestamp: float
    message_vec: SparseVector
    text: str | None = None
    # Distributed tracing context, minted once at the router/engine
    # edge and carried with the event across every shard and RPC hop.
    # None when request tracing is disabled — the event pickles and
    # hashes identically to a pre-tracing event in that case.
    trace: TraceContext | None = None


class DeliveryResult(NamedTuple):
    """One follower's slate for one event, plus how it was produced — the
    one record a delivery travels in, from the pipeline's ``serve`` to
    :attr:`~repro.core.engine.PostResult.deliveries` and across the
    cluster's RPC."""

    user_id: int
    slate: tuple[ScoredAd, ...]
    certified: bool
    fell_back: bool
    exact: bool = False
    # True when the slate was served under a QoS degradation rung.
    degraded: bool = False
    revenue: float = 0.0


class PersonalizedDelivery(NamedTuple):
    """What a :class:`PersonalizeStage` reports back to the pipeline."""

    slate: tuple[ScoredAd, ...]
    certified: bool
    fell_back: bool
    exact: bool


# -- stage protocols ---------------------------------------------------------


@runtime_checkable
class VectorizeStage(Protocol):
    """Text → unit sparse vector."""

    def vectorize(self, text: str) -> MutableSparseVector: ...


@runtime_checkable
class CandidateStage(Protocol):
    """Per-message shared candidate generation (None = no sharing)."""

    def candidates_for(self, event: PostEvent) -> CandidateSet | None: ...


@runtime_checkable
class PersonalizeStage(Protocol):
    """Per-follower slate construction — mode dispatch lives here."""

    def personalize(
        self,
        event: PostEvent,
        candidates: CandidateSet | None,
        user_id: int,
        state: UserState,
        profile: UserProfile,
        profile_vec: SparseVector,
    ) -> PersonalizedDelivery: ...

    def personalize_batch(
        self,
        event: PostEvent,
        candidates: CandidateSet | None,
        resolved: list[tuple[int, UserState, UserProfile, SparseVector]],
        served: Callable[[int, PersonalizedDelivery], None],
        *,
        cut: Callable[[int], None] | None = None,
    ) -> None:
        """One event's whole fan-out, in delivery order: each follower's
        delivery is handed to ``served(position, delivery)`` — where the
        pipeline charges it and feeds it back — and no slate is cut
        across a write, so follower *i + 1* sees what follower *i*'s
        delivery wrote. A stage that cuts several followers' slates
        before handing out the first says so through ``cut(how many)``,
        for whoever times deliveries."""


@runtime_checkable
class ChargeStage(Protocol):
    """Price and debit one served slate; returns revenue collected."""

    def charge(self, slate: tuple[ScoredAd, ...], timestamp: float) -> float: ...


@runtime_checkable
class FeedbackStage(Protocol):
    """Observe one served slate (impression bookkeeping)."""

    def observe_impressions(self, slate: tuple[ScoredAd, ...]) -> None: ...


# -- concrete stages ---------------------------------------------------------


class TextVectorizeStage:
    """tokenize → TF-IDF, or a custom ``str -> sparse vector`` override
    (how the concept-enriched hybrid vectorizer plugs in)."""

    def __init__(
        self,
        vectorizer: TfidfVectorizer,
        tokenizer: Tokenizer,
        custom=None,
    ) -> None:
        self._vectorizer = vectorizer
        self._tokenizer = tokenizer
        self._custom = custom

    def vectorize(self, text: str) -> MutableSparseVector:
        if self._custom is not None:
            return self._custom(text)
        return self._vectorizer.transform(self._tokenizer.tokenize(text))


class SharedProbeStage:
    """One content probe per message, reused across the whole fan-out.

    Under an attached QoS controller the probe depth follows the current
    degradation rung (a shallower K′ is the ladder's cheapest rung)."""

    def __init__(self, services: EngineServices, generator: SharedCandidateGenerator) -> None:
        self._services = services
        self._generator = generator
        # Searcher-kind attribution for stage traces: "candidate" stays
        # the taxonomy span, and this extra name lets T3 split probe time
        # per searcher without guessing from the engine config.
        self.kind = generator.kind
        self.span_name = f"candidate[{generator.kind}]"

    def candidates_for(self, event: PostEvent) -> CandidateSet:
        services = self._services
        generator = self._generator
        stats = services.stats
        stats.shared_probes += 1
        qos = services.qos
        depth = None
        if qos is not None and qos.degrading:
            depth = qos.probe_depth(generator.overfetch, services.config.k)
        result = generator.generate(event.message_vec, depth=depth)
        stats.probe_depth_total += generator.last_probe_depth
        metrics = services.metrics
        if metrics.enabled:
            metrics.inc("probe_depth_total", generator.last_probe_depth)
        return result


class NoProbeStage:
    """EXACT mode: the per-delivery baseline never shares candidates."""

    kind = None
    span_name = None

    def candidates_for(self, event: PostEvent) -> None:
        return None


class _PerFollowerStage:
    """A stage whose fan-out is its scalar ``personalize``, one follower
    at a time."""

    def personalize_batch(
        self, event, candidates, resolved, served, *, cut=None
    ) -> None:
        for position, (user_id, state, profile, profile_vec) in enumerate(resolved):
            served(
                position,
                self.personalize(
                    event, candidates, user_id, state, profile, profile_vec
                ),
            )


def _rung_knobs(services: EngineServices) -> tuple[int, bool]:
    """(slate size, whether the certificate fallback may run) under the
    current QoS rung — the configured values when undegraded."""
    qos = services.qos
    k = services.config.k
    if qos is not None and qos.degrading:
        return qos.slate_k(k), qos.allow_fallback
    return k, True


class KernelPersonalizeStage:
    """SHARED and EXACT on the vector searcher: a fan-out is one kernel
    call that cuts every follower's exact top-k (a QoS rung shapes only
    its size). The modes differ in the probe — EXACT has none, so
    ``candidates`` is None and the kernel gathers the message itself — and
    in the ``exact`` stamp on each delivery."""

    def __init__(
        self, services: EngineServices, personalizer: Personalizer, *, exact: bool
    ) -> None:
        self._services = services
        self._personalizer = personalizer
        self._exact = exact

    def personalize_batch(
        self, event, candidates, resolved, served, *, cut=None
    ) -> None:
        k, _ = _rung_knobs(self._services)
        exact = self._exact
        self._personalizer.slate_batch(
            candidates,
            event.message_vec,
            [
                (user_id, profile_vec, profile.epoch, state.location)
                for user_id, state, profile, profile_vec in resolved
            ],
            event.timestamp,
            k,
            served=lambda position, slate: served(
                position, PersonalizedDelivery(slate, True, False, exact)
            ),
            cut=cut,
        )

    def personalize(
        self, event, candidates, user_id, state, profile, profile_vec
    ) -> PersonalizedDelivery:
        delivered: list[PersonalizedDelivery] = []
        self.personalize_batch(
            event,
            candidates,
            [(user_id, state, profile, profile_vec)],
            lambda _, delivery: delivered.append(delivery),
        )
        return delivered[0]


class SharedPersonalizeStage(_PerFollowerStage):
    """SHARED mode on the ``ta`` reference: union-score the three
    candidate sources per follower, certify, and fall back to one exact
    probe when certification fails (the QoS rung may shrink k and
    suppress the fallback probe)."""

    def __init__(self, services: EngineServices, personalizer: Personalizer) -> None:
        self._services = services
        self._personalizer = personalizer

    def personalize(
        self, event, candidates, user_id, state, profile, profile_vec
    ) -> PersonalizedDelivery:
        k, allow_fallback = _rung_knobs(self._services)
        result = self._personalizer.slate_for(
            candidates,
            event.message_vec,
            user_id,
            profile_vec,
            profile.epoch,
            state.location,
            event.timestamp,
            k,
            allow_fallback=allow_fallback,
        )
        return PersonalizedDelivery(
            result.slate, result.certified, result.fell_back, False
        )


class IncrementalPersonalizeStage(_PerFollowerStage):
    """INCREMENTAL mode: fold the arrival into the user's standing top-k."""

    def __init__(self, services: EngineServices, personalizer: Personalizer) -> None:
        self._services = services
        self._personalizer = personalizer

    def _maintainer_of(self, user_id: int, state: UserState) -> IncrementalTopK:
        if state.incremental is None:
            state.incremental = IncrementalTopK(
                user_id=user_id,
                context=self._services.context_of(state),
                services=self._services,
                personalizer=self._personalizer,
            )
        return state.incremental

    def personalize(
        self, event, candidates, user_id, state, profile, profile_vec
    ) -> PersonalizedDelivery:
        maintainer = self._maintainer_of(user_id, state)
        before = maintainer.stats.refreshes
        slate = maintainer.on_arrival(
            event.msg_id,
            event.timestamp,
            event.message_vec,
            candidates,
            profile_vec,
            profile.epoch,
            state.location,
        )
        refreshed = maintainer.stats.refreshes > before
        if refreshed:
            self._services.stats.incremental_refreshes += 1
        return PersonalizedDelivery(slate, not refreshed, refreshed, False)


class ExactPersonalizeStage(_PerFollowerStage):
    """EXACT mode on the ``ta`` reference: one exact combined-query probe
    per delivery (the strong baseline). Deliveries count as ``exact``,
    never as fallbacks."""

    def __init__(self, services: EngineServices, personalizer: Personalizer) -> None:
        self._services = services
        self._personalizer = personalizer

    def personalize(
        self, event, candidates, user_id, state, profile, profile_vec
    ) -> PersonalizedDelivery:
        k, _ = _rung_knobs(self._services)
        slate = self._personalizer.exact_slate(
            event.message_vec,
            profile_vec,
            state.location,
            event.timestamp,
            k,
        )
        return PersonalizedDelivery(slate, True, False, True)


class GspChargeStage:
    """GSP-price the live slate entries and debit their budgets."""

    def __init__(self, services: EngineServices) -> None:
        self._corpus = services.corpus
        self._budget = services.budget
        self._reserve_price = services.config.reserve_price

    def charge(self, slate: tuple[ScoredAd, ...], timestamp: float) -> float:
        if not slate:
            return 0.0
        corpus = self._corpus
        live = [
            scored.ad_id for scored in slate if corpus.is_active(scored.ad_id)
        ]
        if not live:
            return 0.0
        outcome = run_gsp_auction(
            corpus, live, reserve_price=self._reserve_price
        )
        for ad_id, price in zip(outcome.ad_ids, outcome.prices):
            self._budget.charge(ad_id, price)
        return outcome.revenue


class NoChargeStage:
    """Charging disabled: impressions are free (effectiveness harnesses)."""

    def charge(self, slate: tuple[ScoredAd, ...], timestamp: float) -> float:
        return 0.0


class CtrFeedbackStage:
    """Record one impression per served slate entry."""

    def __init__(self, services: EngineServices) -> None:
        self._ctr = services.ctr

    def observe_impressions(self, slate: tuple[ScoredAd, ...]) -> None:
        record = self._ctr.record_impression
        for scored in slate:
            record(scored.ad_id)


class NoFeedbackStage:
    """Click feedback disabled: impressions leave no trace."""

    def observe_impressions(self, slate: tuple[ScoredAd, ...]) -> None:
        return None


# -- stage selection ---------------------------------------------------------

_PERSONALIZE_STAGES: dict[EngineMode, type] = {
    EngineMode.SHARED: SharedPersonalizeStage,
    EngineMode.INCREMENTAL: IncrementalPersonalizeStage,
    EngineMode.EXACT: ExactPersonalizeStage,
}


def make_personalize_stage(
    services: EngineServices, personalizer: Personalizer
) -> PersonalizeStage:
    """The mode's :class:`PersonalizeStage` (on the vector searcher SHARED
    and EXACT share the kernel's) — the only mode dispatch on the delivery
    path, resolved once at wiring time."""
    mode = services.config.mode
    stage_cls = _PERSONALIZE_STAGES.get(mode)
    if stage_cls is None:
        raise ConfigError(f"unknown engine mode: {mode!r}")
    if services.config.searcher == "vector" and mode is not EngineMode.INCREMENTAL:
        stage = KernelPersonalizeStage(
            services, personalizer, exact=mode is EngineMode.EXACT
        )
    else:
        stage = stage_cls(services, personalizer)
    if services.learner is not None:
        # Deferred import: repro.learn sits above the core pipeline.
        from repro.learn.linucb import LinUcbRerankStage

        stage = LinUcbRerankStage(services, stage)
    return stage


def make_candidate_stage(
    services: EngineServices, generator: SharedCandidateGenerator
) -> CandidateStage:
    if services.config.mode is EngineMode.EXACT:
        return NoProbeStage()
    return SharedProbeStage(services, generator)


def make_charge_stage(services: EngineServices) -> ChargeStage:
    if not services.config.charge_impressions:
        return NoChargeStage()
    return GspChargeStage(services)


def make_feedback_stage(services: EngineServices) -> FeedbackStage:
    if services.ctr is None:
        return NoFeedbackStage()
    return CtrFeedbackStage(services)


# -- the pipeline ------------------------------------------------------------


class DeliveryPipeline:
    """Stages wired over one :class:`EngineServices`.

    The pipeline owns delivery mechanics only; stream-facing concerns
    (clock, message ids, author profile updates, result assembly) stay on
    the :class:`~repro.core.engine.AdEngine` facade.
    """

    def __init__(
        self,
        services: EngineServices,
        *,
        vectorize: VectorizeStage,
        candidates: CandidateStage,
        personalize: PersonalizeStage,
        charge: ChargeStage,
        feedback: FeedbackStage,
    ) -> None:
        self.services = services
        self.vectorize_stage = vectorize
        self.candidate_stage = candidates
        self.personalize_stage = personalize
        self.charge_stage = charge
        self.feedback_stage = feedback
        # Kind-attributed twin of the "candidate" span (None = no probe).
        self._probe_span = getattr(candidates, "span_name", None)
        # Learner-attributed twin of the "personalize" span (None = static).
        self._personalize_span = getattr(personalize, "span_name", None)
        # Per-batch QoS ledger for the facade's result assembly:
        # (deliveries shed, revenue upper bound given up). Reset on read.
        self._batch_shed = 0
        self._batch_revenue_shed = 0.0

    @classmethod
    def for_services(
        cls,
        services: EngineServices,
        *,
        vectorize: VectorizeStage,
        candidate_generator: SharedCandidateGenerator,
        personalizer: Personalizer,
    ) -> "DeliveryPipeline":
        """Default wiring: stages selected from ``services.config``."""
        return cls(
            services,
            vectorize=vectorize,
            candidates=make_candidate_stage(services, candidate_generator),
            personalize=make_personalize_stage(services, personalizer),
            charge=make_charge_stage(services),
            feedback=make_feedback_stage(services),
        )

    def vectorize(self, text: str) -> MutableSparseVector:
        services = self.services
        tracer = services.tracer
        metrics = services.metrics
        if not (tracer.enabled or metrics.enabled):
            return self.vectorize_stage.vectorize(text)
        started = perf_counter()
        vec = self.vectorize_stage.vectorize(text)
        elapsed = perf_counter() - started
        if tracer.enabled:
            tracer.record("vectorize", elapsed)
        if metrics.enabled:
            # Vectorization happens before a PostEvent exists, so the
            # stream clock (advanced by ingest) supplies the bucket time.
            clock = services.clock
            metrics.observe_stage(
                "vectorize", elapsed, clock.now if clock is not None else 0.0
            )
        return vec

    def deliver(self, event: PostEvent, follower: int) -> DeliveryResult:
        """Single-follower convenience over :meth:`deliver_batch`."""
        return self.deliver_batch(event, (follower,))[0]

    def pop_batch_shed(self) -> tuple[int, float]:
        """The last batch's (shed deliveries, shed revenue bound); resets.

        The facade reads this right after :meth:`deliver_batch` to stamp
        per-event shed accounting onto the post result without widening
        the outcome list's shape."""
        shed = (self._batch_shed, self._batch_revenue_shed)
        self._batch_shed = 0
        self._batch_revenue_shed = 0.0
        return shed

    def _degraded_slate(
        self, candidates: CandidateSet, k: int
    ) -> tuple[ScoredAd, ...]:
        """Candidates-only serving (the deepest non-shed rung): the shared
        probe's top-k active ads, scored on content alone — zero per-user
        work, shared by the whole fan-out."""
        corpus = self.services.corpus
        alpha = self.services.config.weights.alpha
        slate: list[ScoredAd] = []
        for ad_id, content in candidates.entries:
            if not corpus.is_active(ad_id):
                continue
            slate.append(
                ScoredAd(
                    ad_id=ad_id,
                    score=alpha * content,
                    content=content,
                    static=0.0,
                )
            )
            if len(slate) >= k:
                break
        return tuple(slate)

    def deliver_batch(
        self, event: PostEvent, followers, *, candidates_only: bool = False
    ) -> list[DeliveryResult]:
        """Fan one event out to ``followers``: one shared probe, then one
        ``personalize_batch`` call that hands each follower's delivery
        back for its charge → feedback pass before cutting the next.

        The per-follower state, profile and profile-vector lookups are
        done exactly once each here, so every stage receives them resolved
        — the batch-amortisation point for profile and location access.

        Span emission: one ``candidate`` span per event, then one
        ``personalize``/``charge``/``feedback`` span each plus one wrapping
        ``delivery`` span per follower. Spans feed the whole-run tracer
        and, windowed under the event's stream time, the live metrics
        registry. All timing reads are gated on ``tracer.enabled`` /
        ``metrics.enabled`` so the default noop pair costs one boolean
        check per potential span.
        """
        services = self.services
        stats = services.stats
        users = services.users
        profile_of = services.profile_of
        charge = self.charge_stage.charge
        observe = self.feedback_stage.observe_impressions
        tracer = services.tracer
        metrics = services.metrics
        tracing = tracer.enabled
        metering = metrics.enabled
        observing = tracing or metering
        # The request-trace segment opened by the engine facade for this
        # event (None when request tracing is off or this event has no
        # context). Stage spans are folded into it aggregated per stage
        # name, so trace size is bounded by the taxonomy, not the fan-out.
        request_tracer = services.request_tracer
        active = request_tracer.current if request_tracer.enabled else None
        timing = observing or active is not None
        at = event.timestamp

        def emit(stage: str, elapsed: float) -> None:
            # Only reached on the enabled path — the disabled hot path
            # pays the single `observing` check per potential span.
            if tracing:
                tracer.record(stage, elapsed)
            if metering:
                metrics.observe_stage(stage, elapsed, at)
            if active is not None:
                active.add_stage(stage, elapsed)

        if timing:
            span_started = perf_counter()
        candidates = self.candidate_stage.candidates_for(event)
        if timing:
            probe_elapsed = perf_counter() - span_started
            if observing:
                emit("candidate", probe_elapsed)
                if self._probe_span is not None:
                    emit(self._probe_span, probe_elapsed)
            elif active is not None:
                active.add_stage("candidate", probe_elapsed)

        # QoS consultation, once per batch: admission (value-aware shed)
        # and the current degradation rung. `services.qos is None` is the
        # default — that single check is the whole disabled-path cost.
        qos = services.qos
        degrading = False
        degraded_slate: tuple[ScoredAd, ...] | None = None
        if qos is not None and qos.active:
            value = qos.delivery_value(
                slate_value_bound(candidates, services.corpus, services.config.k)
            )
            decision = qos.admit(at, len(followers), value)
            if decision.shed:
                # All deliveries of one event carry the same value bound,
                # so shedding the fan-out tail drops lowest-value-first
                # across batches while staying deterministic within one.
                followers = list(followers)[: decision.admitted]
                stats.deliveries_shed += decision.shed
                stats.revenue_shed_upper_bound += decision.revenue_shed_upper_bound
                self._batch_shed += decision.shed
                self._batch_revenue_shed += decision.revenue_shed_upper_bound
                if metering:
                    metrics.inc("deliveries_shed", decision.shed)
                    metrics.inc(
                        "revenue_shed_upper_bound",
                        decision.revenue_shed_upper_bound,
                    )
                if active is not None:
                    # Shedding is one of the invisible paths tracing
                    # exists for: stamp it and force-retain the trace.
                    active.add_span(
                        "qos_shed",
                        "shed",
                        count=decision.shed,
                        attrs={
                            "admitted": decision.admitted,
                            "revenue_shed_upper_bound": round(
                                decision.revenue_shed_upper_bound, 6
                            ),
                        },
                    )
                    active.flag("shed")
            degrading = qos.degrading
            if (
                degrading
                and qos.candidates_only
                and candidates is not None
                and len(candidates)
            ):
                degraded_slate = self._degraded_slate(
                    candidates, qos.slate_k(services.config.k)
                )
        if (
            candidates_only
            and degraded_slate is None
            and candidates is not None
            and len(candidates)
        ):
            # Forced profile-less serving — the failover path: a fallback
            # shard serving another shard's followers has no profile state
            # for them, so it serves the shared slate and flags it degraded.
            degrading = True
            degraded_slate = self._degraded_slate(
                candidates, services.config.k
            )
        if active is not None and degrading:
            active.add_span(
                "qos_degrade",
                "degrade",
                attrs={
                    "rung": qos.rung_index if qos is not None else None,
                    "candidates_only": degraded_slate is not None,
                },
            )
            active.flag("degraded")

        # Request tracing without stage observability gets one coarse
        # fan-out span instead of per-follower timing: the per-event cost
        # stays O(1) in the fan-out, which is what keeps the T9 overhead
        # gate (<5% throughput loss at 1% head sampling) honest.
        segment_only = active is not None and not observing
        if timing:
            # Where the previous follower's bookkeeping ended (for the first
            # follower, where the stage call began: its personalize span
            # carries the kernel's per-event set-up).
            mark = loop_started = perf_counter()
        # Each follower's share of the work done for several of them at
        # once: the look-ups up front, and the kernel's cut when it cuts
        # a run of followers ahead.
        resolve_share = share = 0.0
        outcomes: list[DeliveryResult] = []

        def cut(size: int) -> None:
            """The stage cut ``size`` slates since the last delivery: the
            next ``size`` followers' spans carry an equal share each."""
            nonlocal mark, share
            now = perf_counter()
            share = resolve_share + (now - mark) / size
            mark = now

        def serve(position: int, delivered: PersonalizedDelivery) -> None:
            """One follower's delivery: count → charge → feedback."""
            nonlocal mark
            slate, certified, fell_back, exact = delivered
            if observing:
                span_started = perf_counter()
                elapsed = span_started - mark + share
                emit("personalize", elapsed)
                if self._personalize_span is not None:
                    emit(self._personalize_span, elapsed)
            stats.deliveries += 1
            if degrading:
                stats.deliveries_degraded += 1
            if exact:
                stats.exact_deliveries += 1
            if certified and not fell_back:
                stats.certified_deliveries += 1
            elif fell_back:
                stats.fallback_deliveries += 1
            elif not certified:
                stats.approximate_deliveries += 1
            revenue = charge(slate, event.timestamp)
            if observing:
                now = perf_counter()
                emit("charge", now - span_started)
                span_started = now
            observe(slate)
            if observing:
                emit("feedback", perf_counter() - span_started)
            if metering:
                metrics.inc("deliveries")
                metrics.inc("impressions", len(slate))
                metrics.inc("revenue", revenue)
                if degrading:
                    metrics.inc("deliveries_degraded")
            stats.impressions += len(slate)
            stats.revenue += revenue
            outcomes.append(
                DeliveryResult(
                    followers[position],
                    slate,
                    certified,
                    fell_back,
                    exact,
                    degrading,
                    revenue,
                )
            )
            if observing:
                # The whole pass, bookkeeping included: ``delivery`` spans
                # tile the fan-out, each a little over its three stages.
                now = perf_counter()
                emit("delivery", now - mark + share)
                mark = now

        if degraded_slate is not None:
            shared = PersonalizedDelivery(degraded_slate, False, False, False)
            for position in range(len(followers)):
                serve(position, shared)
        elif followers:
            # One stage call per event, charged or not: the stage hands
            # each follower's delivery to ``serve`` before it cuts the next.
            resolved = []
            for follower in followers:
                state = users.state(follower)
                resolved.append((follower, state, *profile_of(follower, state)))
            hooks = {}
            if observing:
                # The look-ups above are per-follower work done up front:
                # each follower's spans carry an equal share, so no one
                # ``delivery`` span (the SLO-graded stage) grows with the
                # fan-out. Likewise a cut the stage makes for many.
                now = perf_counter()
                resolve_share = share = (now - mark) / len(resolved)
                mark = now
                hooks["cut"] = cut
            self.personalize_stage.personalize_batch(
                event, candidates, resolved, serve, **hooks
            )
        if segment_only and outcomes:
            active.add_span(
                "delivery",
                "stage",
                seconds=perf_counter() - loop_started,
                count=len(outcomes),
            )
        return outcomes

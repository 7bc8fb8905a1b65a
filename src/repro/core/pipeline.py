"""The staged delivery pipeline: post → vectorize → probe → fan-out.

The engine's hot path is an explicit pipeline of five pluggable stages
(cf. the ingest→embed→blend→observe decomposition production feed-ad
systems use):

* :class:`VectorizeStage` — text → unit sparse vector, once per message;
* :class:`CandidateStage` — the per-message shared content probe (or
  nothing, for the per-delivery EXACT baseline);
* :class:`PersonalizeStage` — per-follower slate construction: the
  kernel's :class:`KernelPersonalizeStage`, or one of the reference's
  per-follower stages (:mod:`repro.reference`), chosen once by
  the engine (:class:`~repro.core.engine.AdEngine`), so the fan-out loop
  has no mode or searcher branches;
* :class:`ChargeStage` — GSP pricing + budget debit per served slate;
* :class:`FeedbackStage` — impression bookkeeping for the CTR estimator.

The last two work in columns: a slate is a
:class:`~repro.core.scoring.Slate`, the cut's own arrays, and the
kernel's travels with its index rows, so a slate's prices, debits and
impressions are array operations over its ≤ k entries.

:class:`DeliveryPipeline` wires the stages over one
:class:`~repro.core.services.EngineServices` and exposes the batch entry
point :meth:`DeliveryPipeline.deliver_batch`: one :class:`PostEvent` in,
one :class:`DeliveryResult` per follower out, with the shared probe
amortised across the whole fan-out and each follower resolved with one
state lookup. The sharded router and the replay driver drive batches
directly; :class:`~repro.core.engine.AdEngine` survives as a thin facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.ads.auction import gsp_prices
from repro.core.candidates import CandidateSet, SharedCandidateGenerator
from repro.core.scoring import ScoredAd, Slate, StaticRowCache
from repro.core.services import EngineServices, UserState
from repro.obs.trace import TraceContext
from repro.obs.tracer import Seam
from repro.qos.admission import slate_value_bound
from repro.stream.clock import SimClock
from repro.text.tokenizer import Tokenizer
from repro.text.vectorizer import TfidfVectorizer
from repro.util.sparse import MutableSparseVector, SparseVector

if TYPE_CHECKING:  # annotation only: the pipeline loads without the kernel
    from repro.core.rerank import Personalizer


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
    one record a delivery travels in, from the pipeline's booking pass to
    :attr:`~repro.core.engine.PostResult.deliveries` and across the
    cluster's RPC."""

    user_id: int
    slate: Slate
    certified: bool
    fell_back: bool
    exact: bool = False
    # True when the slate was served under a QoS degradation rung.
    degraded: bool = False
    revenue: float = 0.0


class PersonalizedFanOut(NamedTuple):
    """What every :class:`PersonalizeStage` returns for a fan-out: each
    follower's slate, in order, and how each was produced —
    ``(certified, fell_back, exact)``, one triple a slate."""

    slates: list[Slate]
    flags: list[tuple[bool, bool, bool]]


class PersonalizedDelivery(NamedTuple):
    """What a stage's scalar ``personalize`` returns: one follower's
    slate and how it was produced."""

    slate: Slate
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
    ) -> PersonalizedDelivery: ...

    def personalize_batch(
        self,
        event: PostEvent,
        candidates: CandidateSet | None,
        resolved: list[tuple[int, UserState]],
        write: Callable[[int, Slate, np.ndarray | None], None] | None = None,
        *,
        cut: Callable[[int], None] | None = None,
    ) -> PersonalizedFanOut:
        """One event's whole fan-out, ``resolved`` as ``(user_id, state)``
        per follower, returned in delivery order.

        With ``write``, each follower's slate is also handed to
        ``write(position, slate, rows)`` inside this call, in order —
        where the pipeline charges it and feeds it back; ``rows`` are the
        slate's index rows when the kernel cut it, None elsewhere — and
        no slate is cut across a write, so follower *i + 1* sees what
        follower *i*'s delivery wrote. The pipeline passes none when no
        stage writes on delivery. A stage tells ``cut(how many)`` the
        slates it cut at once, before handing out the first of them, for
        whoever times deliveries."""


@runtime_checkable
class ChargeStage(Protocol):
    """Price and debit one served slate; returns revenue collected.
    ``rows`` are the slate's index rows when the kernel cut it."""

    def charge(
        self, slate: Slate, timestamp: float, rows: np.ndarray | None = None
    ) -> float: ...


@runtime_checkable
class FeedbackStage(Protocol):
    """Observe one served slate (impression bookkeeping); ``rows`` as for
    :class:`ChargeStage`."""

    def observe_impressions(
        self, slate: Slate, rows: np.ndarray | None = None
    ) -> None: ...


# -- concrete stages ---------------------------------------------------------


class TextVectorizeStage:
    """tokenize → TF-IDF."""

    def __init__(self, vectorizer: TfidfVectorizer, tokenizer: Tokenizer) -> None:
        self._vectorizer = vectorizer
        self._tokenizer = tokenizer

    def vectorize(self, text: str) -> MutableSparseVector:
        return self._vectorizer.transform(self._tokenizer.tokenize(text))


class SharedProbeStage:
    """One content probe per message, reused across the whole fan-out.
    The probe always cuts the configured K′: no QoS rung changes it."""

    def __init__(self, services: EngineServices, generator: SharedCandidateGenerator) -> None:
        self._services = services
        self._generator = generator
        # Searcher-kind attribution for stage traces: "candidate" stays
        # the taxonomy span, and this extra name lets T3 split probe time
        # per searcher without guessing from the engine config.
        self.span_name = f"candidate[{generator.kind}]"

    def candidates_for(self, event: PostEvent) -> CandidateSet:
        generator = self._generator
        stats = self._services.stats
        stats.shared_probes += 1
        stats.probe_depth_total += generator.overfetch
        return generator.generate(event.message_vec)


class NoProbeStage:
    """EXACT mode: the per-delivery baseline never shares candidates."""

    span_name = None

    def candidates_for(self, event: PostEvent) -> None:
        return None


def slate_k(services: EngineServices) -> int:
    """The slate size under the current QoS rung — the configured k
    when undegraded."""
    qos = services.qos
    k = services.config.k
    if qos is not None and qos.degrading:
        return qos.slate_k(k)
    return k


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
        self, event, candidates, resolved, write=None, *, cut=None
    ) -> PersonalizedFanOut:
        slates = self._personalizer.slate_batch(
            candidates,
            event.message_vec,
            [
                (user_id, state.profile.unit, state.profile.epoch, state.location)
                for user_id, state in resolved
            ],
            event.timestamp,
            slate_k(self._services),
            served=write,
            cut=cut,
        )
        return PersonalizedFanOut(slates, [(True, False, self._exact)] * len(slates))

    def personalize(
        self, event, candidates, user_id, state
    ) -> PersonalizedDelivery:
        slates, flags = self.personalize_batch(
            event, candidates, [(user_id, state)]
        )
        return PersonalizedDelivery(slates[0], *flags[0])


class GspChargeStage:
    """GSP-price the live slate entries and debit their budgets, as
    floats: the live mask, the raw bids and the budget slots at the
    slate's rows (:class:`~repro.core.scoring.StaticRowCache`), or looked
    up entry by entry for a slate without rows, then one body —
    :func:`~repro.ads.auction.gsp_prices` and
    :meth:`~repro.ads.budget.BudgetManager.charge_block` over ≤ k
    entries, where numpy's per-call cost would outweigh the arithmetic.
    Prices, spend, retirements and revenue are those of
    :func:`~repro.ads.auction.run_gsp_auction` and
    :meth:`~repro.ads.budget.BudgetManager.charge` entry by entry."""

    def __init__(
        self, services: EngineServices, columns: StaticRowCache | None = None
    ) -> None:
        self._corpus = services.corpus
        self._budget = services.budget
        self._columns = columns
        self._reserve_price = services.config.reserve_price

    def charge(
        self, slate: Slate, timestamp: float, rows: np.ndarray | None = None
    ) -> float:
        if not slate:
            return 0.0
        if rows is None:
            corpus = self._corpus
            ad_ids = slate.ad_ids.tolist()
            live = [corpus.is_active(ad_id) for ad_id in ad_ids]
            bids = [corpus.get(ad_id).bid for ad_id in ad_ids]
            slots = [self._budget.slot_of(ad_id) for ad_id in ad_ids]
        else:
            columns = self._columns
            live = columns.live(rows).tolist()
            bids = columns.bids[rows].tolist()
            slots = columns.pacing_slots[rows].tolist()
        if False in live:
            bids = [bid for bid, alive in zip(bids, live) if alive]
            slots = [slot for slot, alive in zip(slots, live) if alive]
            if not bids:
                return 0.0
        prices = gsp_prices(bids, self._reserve_price)
        self._budget.charge_block(slots, prices)
        # Python's left-to-right sum, as the auction's revenue.
        return sum(prices)


class NoChargeStage:
    """Charging disabled: impressions are free (effectiveness harnesses)."""

    def charge(
        self, slate: Slate, timestamp: float, rows: np.ndarray | None = None
    ) -> float:
        return 0.0


class CtrFeedbackStage:
    """Record one impression per served slate entry, at the entries' CTR
    slots: the slate's rows of the quality-slot column, or looked up
    entry by entry for a slate without rows."""

    def __init__(
        self, services: EngineServices, columns: StaticRowCache | None = None
    ) -> None:
        self._ctr = services.ctr
        self._columns = columns

    def observe_impressions(
        self, slate: Slate, rows: np.ndarray | None = None
    ) -> None:
        if rows is None:
            slots = np.fromiter(
                map(self._ctr.slot_of, slate.ad_ids.tolist()), np.int64, len(slate)
            )
        else:
            slots = self._columns.quality_slots[rows]
        self._ctr.record_impressions(slots)


class NoFeedbackStage:
    """Click feedback disabled: impressions leave no trace."""

    def observe_impressions(
        self, slate: Slate, rows: np.ndarray | None = None
    ) -> None:
        return None


def vectorize_spanned(
    stage: VectorizeStage, seam: Seam, text: str, clock: SimClock | None
) -> MutableSparseVector:
    """``stage.vectorize(text)`` with its ``vectorize`` span on ``seam`` —
    the one vectorize path of an engine and of a router. No event exists
    yet, so the stream clock supplies the span's time."""
    if not seam.enabled:
        return stage.vectorize(text)
    started = perf_counter()
    vec = stage.vectorize(text)
    seam.emit(
        "vectorize",
        perf_counter() - started,
        clock.now if clock is not None else 0.0,
    )
    return vec


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
        row_cache: StaticRowCache | None = None,
    ) -> None:
        """``row_cache`` is the kernel's (None on the ``ta`` reference):
        admission's value bound reads a vector probe's K′ cut there."""
        self.services = services
        self.vectorize_stage = vectorize
        self.candidate_stage = candidates
        self.personalize_stage = personalize
        self.charge_stage = charge
        self.feedback_stage = feedback
        self._row_cache = row_cache
        # Kind-attributed twin of the "candidate" span (None = no probe).
        self._probe_span = getattr(candidates, "span_name", None)
        # Learner-attributed twin of the "personalize" span (None = static).
        self._personalize_span = getattr(personalize, "span_name", None)
        # Per-batch QoS ledger for the facade's result assembly:
        # (deliveries shed, revenue upper bound given up). Reset on read.
        self._batch_shed = 0
        self._batch_revenue_shed = 0.0

    def vectorize(self, text: str) -> MutableSparseVector:
        services = self.services
        return vectorize_spanned(
            self.vectorize_stage, services.seam, text, services.clock
        )

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

    def _degraded_slate(self, candidates: CandidateSet, k: int) -> Slate:
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
        return Slate.of(slate)

    def _value_bound(self, candidates: CandidateSet | None) -> float:
        """Admission's value bound for one event's slates:
        :func:`slate_value_bound`, read off a vector probe's arrays when
        there is one (its K′ cut as rows, the alive bits and the row
        cache's bids: no pair boxed, no corpus lookup per entry). Called
        right after the probe, before anything can renumber its rows."""
        services = self.services
        cache = self._row_cache
        if cache is None or candidates is None or candidates.block is None:
            return slate_value_bound(candidates, services.corpus, services.config.k)
        return cache.value_bound(candidates.top_rows(), services.config.k)

    def _delivery_writes(self) -> bool:
        """Whether serving a delivery writes anything — spend, CTR
        evidence, a learner's exposures — read off the wiring: a charge or
        feedback stage that is not the disabled one, or a learner."""
        return not (
            isinstance(self.charge_stage, NoChargeStage)
            and isinstance(self.feedback_stage, NoFeedbackStage)
            and self.services.learner is None
        )

    def _book(
        self,
        fan_out: PersonalizedFanOut,
        followers,
        degrading: bool,
        revenues: list[float],
    ) -> list[DeliveryResult]:
        """A fan-out's counters and results, booked in one pass: every
        counter ends where per-delivery increments would leave it, and one
        ``DeliveryResult`` a follower, boxed in C. ``revenues`` are what
        each delivery's charge collected (empty when nothing was written:
        each delivery's is then 0.0, which moves no sum)."""
        stats = self.services.stats
        slates, flags = fan_out
        stats.deliveries += len(slates)
        if degrading:
            stats.deliveries_degraded += len(slates)
        for flag in set(flags):
            certified, fell_back, exact = flag
            times = flags.count(flag)
            if exact:
                stats.exact_deliveries += times
            if certified and not fell_back:
                stats.certified_deliveries += times
            elif fell_back:
                stats.fallback_deliveries += times
            elif not certified:
                stats.approximate_deliveries += times
        stats.impressions += sum(map(len, slates))
        if revenues:
            # Delivery by delivery, left to right: ``sum`` may compensate.
            total = stats.revenue
            for revenue in revenues:
                total += revenue
            stats.revenue = total
        new = tuple.__new__
        return [
            new(DeliveryResult, (follower, slate, *flag, degrading, revenue))
            for follower, slate, flag, revenue in zip(
                followers, slates, flags, revenues or repeat(0.0)
            )
        ]

    def deliver_batch(
        self, event: PostEvent, followers, *, candidates_only: bool = False
    ) -> list[DeliveryResult]:
        """Fan one event out to ``followers``: one shared probe, then one
        ``personalize_batch`` call, which returns the whole fan-out. When
        a delivery writes (a charge or feedback stage that does something,
        or a learner: the wiring says), the stage hands each follower's
        slate to a ``write`` callback — charge → feedback, nothing else —
        before cutting the next; when none does, it gets no callback.
        Either way, and for a candidates-only fan-out too, the counters,
        the results and every fine span are booked afterwards in one pass
        (:meth:`_book`).

        Each follower's state — profile, location, feed context — is
        looked up exactly once here, so every stage receives it resolved.

        Span emission, each span once through the engine's seam at the
        event's stream time: one ``candidate`` span per event that probes
        (every event with a follower, and every event under admission
        control), then one
        ``personalize``/``charge``/``feedback`` span each plus one wrapping
        ``delivery`` span per follower — or, when only a request tracer
        listens (the seam is not ``fine``), one coarse ``delivery`` span
        for the fan-out. With no sink the cost is one check per span.
        """
        services = self.services
        stats = services.stats
        state_of = services.users.state
        charge = self.charge_stage.charge
        observe = self.feedback_stage.observe_impressions
        seam = services.seam
        emit = seam.emit
        timing = seam.enabled
        fine = seam.fine
        # The request-trace segment opened for this event, if any: the
        # shed / degrade decisions below are stamped on it.
        active = services.request_tracer.current
        at = event.timestamp
        qos = services.qos
        if not followers and (qos is None or qos.admission is None):
            # Nobody to serve: the probe would feed no slate. (Under an
            # admission controller the zero-delivery admission below still
            # runs: it moves the value average and the bucket's clock.)
            return []

        if timing:
            span_started = perf_counter()
        candidates = self.candidate_stage.candidates_for(event)
        if timing:
            probe_elapsed = perf_counter() - span_started
            emit("candidate", probe_elapsed, at)
            if fine and self._probe_span is not None:
                emit(self._probe_span, probe_elapsed, at)

        # QoS consultation, once per batch: admission (value-aware shed)
        # and the current degradation rung. `services.qos is None` is the
        # default — that single check is the whole disabled-path cost.
        degrading = False
        degraded_slate: Slate | None = None
        if qos is not None and qos.active:
            value = qos.delivery_value(self._value_bound(candidates))
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

        if timing:
            # Where the previous delivery's write ended (for the first
            # follower, where the stage call began: its personalize span
            # carries the kernel's per-event set-up).
            mark = loop_started = perf_counter()
        # Each follower's share of the work done for several of them at
        # once: the look-ups up front, and the kernel's cut when it cuts
        # a run of followers ahead.
        resolve_share = share = 0.0
        # Each delivery's fine spans, (personalize, charge, feedback)
        # seconds, and its revenue: what the booking pass reads.
        spans: list[tuple[float, float, float]] = []
        revenues: list[float] = []

        def charge_and_observe(
            position: int, slate: Slate, rows: np.ndarray | None
        ) -> None:
            """One delivery's writes, inside the stage's call."""
            nonlocal mark
            if fine:
                started = perf_counter()
                personalized = started - mark + share
            revenues.append(charge(slate, at, rows))
            if fine:
                charged = perf_counter()
            observe(slate, rows)
            if fine:
                mark = perf_counter()
                spans.append((personalized, charged - started, mark - charged))

        write = charge_and_observe if self._delivery_writes() else None

        def cut(size: int) -> None:
            """The stage cut ``size`` slates since the last delivery: the
            next ``size`` followers' spans carry an equal share each."""
            nonlocal mark, share
            now = perf_counter()
            share = resolve_share + (now - mark) / size
            mark = now
            if write is None:
                # Nothing is written: these are the next deliveries whole.
                spans.extend([(share, 0.0, 0.0)] * size)

        fan_out: PersonalizedFanOut | None = None
        if degraded_slate is not None:
            fan_out = PersonalizedFanOut(
                [degraded_slate] * len(followers),
                [(False, False, False)] * len(followers),
            )
            if write is not None:
                for position in range(len(followers)):
                    write(position, degraded_slate, None)
        elif followers:
            # One stage call per event, charged or not: the stage hands
            # each follower's slate to ``write`` before it cuts the next,
            # and returns them all.
            resolved = [(follower, state_of(follower)) for follower in followers]
            hooks = {}
            if fine:
                # The look-ups above are per-follower work done up front:
                # each follower's spans carry an equal share, so no one
                # ``delivery`` span (the SLO-graded stage) grows with the
                # fan-out. Likewise a cut the stage makes for many.
                now = perf_counter()
                resolve_share = share = (now - mark) / len(resolved)
                mark = now
                hooks["cut"] = cut
            fan_out = self.personalize_stage.personalize_batch(
                event, candidates, resolved, write, **hooks
            )
        outcomes: list[DeliveryResult] = []
        if fan_out is not None and fan_out.slates:
            outcomes = self._book(fan_out, followers, degrading, revenues)
            if fine:
                if not spans:
                    # A stage that reported no cut made them all at once.
                    cut(len(outcomes))
                # Each delivery's spans: its share of its cut, its writes
                # and its share of whatever followed the last of them —
                # so ``delivery`` spans tile the fan-out.
                booked = (perf_counter() - mark) / len(outcomes)
                twin = self._personalize_span
                for personalized, charged, fed in spans:
                    emit("personalize", personalized, at)
                    if twin is not None:
                        emit(twin, personalized, at)
                    emit("charge", charged, at)
                    emit("feedback", fed, at)
                    emit("delivery", personalized + charged + fed + booked, at)
        if timing and not fine and outcomes:
            # A request tracer alone: one span stands for the fan-out.
            emit("delivery", perf_counter() - loop_started, at, len(outcomes))
        return outcomes

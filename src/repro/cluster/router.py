"""One router over a shard transport.

A post is routed to every shard owning at least one follower (plus the
author's, whose profile lives there); each touched shard runs its own
shared candidate probe and personalises only its residents. Everything
that makes that a *cluster* lives here, once: message-id minting and
router-side vectorization, routing, epoch-split batches, the LinUCB
cluster fold, broadcast operations, fault-aware dispatch, telemetry
roll-ups and the topology-free checkpoint.

The router speaks to its shards only through a :class:`ShardTransport`
— ``submit`` a request, ``collect`` its reply — and every shard answers
through :meth:`~repro.cluster.host.ShardHost.handle`. Whether the host
is an object in this process (:class:`LocalTransport`, the default) or a
worker process behind a framed channel
(:class:`~repro.cluster.procpool.ProcessTransport`) is a deployment
detail underneath. Requests always fan out to every touched shard first
(that is the parallelism a process transport buys), then replies are
collected in sorted shard order and stitched back by position — so
output order is deterministic and identical on both transports.

What a cluster measures that a single engine cannot:

* **load balance** — deliveries per shard (skew wastes capacity);
* **fan-out amplification** — how many shards each post touches (each
  touched shard repeats the per-message probe, the scale-out tax on
  computation sharing).

With a :class:`~repro.qos.faults.FaultInjector` attached the router also
rehearses the failure story: dispatch to a down shard retries with
bounded stream-time backoff, then fails over to the deterministic
fallback (the next up shard), which serves the stranded followers
profile-less (it holds no profile state for them) without ingesting the
event. The down shard's missed ingestions are buffered and replayed on
recovery, so its author profiles reconverge with the no-fault timeline;
duplicate dispatches (lost acks under at-least-once delivery) are
suppressed by a router-side seen set.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from itertools import groupby
from time import perf_counter
from typing import TYPE_CHECKING, Any, NamedTuple, Protocol

from repro.cluster.host import (
    ShardHost,
    WorkerBootstrap,
    build_shard_map,
    hash_shard,
)
from repro.core.config import EngineConfig
from repro.core.engine import PostResult
from repro.core.pipeline import PostEvent, TextVectorizeStage, vectorize_spanned
from repro.core.services import EngineStats
from repro.datagen.workload import Workload
from repro.errors import ConfigError, StreamError
from repro.geo.point import GeoPoint
from repro.obs.registry import NULL_METRICS, MetricsRegistry, NullMetrics, counted
from repro.obs.trace import (
    NOOP_REQUEST_TRACER,
    NoopRequestTracer,
    RequestTracer,
    Span,
    TraceSegment,
)
from repro.obs.tracer import NoopTracer, Seam, StageStats, StageTracer
from repro.stream.clock import SimClock

if TYPE_CHECKING:
    from repro.obs.health import HealthState
    from repro.qos.controller import QosController
    from repro.qos.faults import FaultInjector


class ShardTransport(Protocol):
    """What the router needs from whatever hosts its shards."""

    def submit(self, shard: int, op: str, payload: Any = None) -> int:
        """Hand one request to ``shard`` without waiting for its reply;
        returns the bytes put on the wire (0 when there is no wire)."""

    def collect(self, shard: int) -> Any:
        """The reply to ``shard``'s oldest outstanding request; a handler
        error is raised here, after the reply has been consumed."""

    #: Whether every shard holds the *same* QoS controller object (one
    #: cluster-wide ladder and admission bucket) rather than a copy each.
    shared_qos: bool

    def close(self) -> None:
        """Release whatever the transport owns. Idempotent."""


class LocalTransport:
    """Shard hosts as plain objects: a request is a direct
    :meth:`ShardHost.handle` call — no pickling, no copy, no thread.

    The call runs at ``collect``, so the router's fan-out-then-collect
    order executes shards in sorted order and a handler error surfaces
    where a process transport's would. Every host holds the *same* QoS
    controller object, so admission rate-limits the whole cluster.
    """

    shared_qos = True

    def __init__(self, bootstraps: list[WorkerBootstrap]) -> None:
        for bootstrap in bootstraps:
            if bootstrap.request_tracer is not None:
                # Label the shard's segments even in-process, so a
                # reassembled trace reads router → shardN.
                bootstrap.request_tracer.process = f"shard{bootstrap.shard}"
        self.hosts = [ShardHost(bootstrap) for bootstrap in bootstraps]
        self._requests: list[deque] = [deque() for _ in bootstraps]

    def submit(self, shard: int, op: str, payload: Any = None) -> int:
        self._requests[shard].append((op, payload))
        return 0

    def collect(self, shard: int) -> Any:
        op, payload = self._requests[shard].popleft()
        return self.hosts[shard].handle(op, payload)

    def close(self) -> None:
        """Nothing to release: the hosts die with the router."""


class _Post(NamedTuple):
    author_id: int
    text: str
    timestamp: float


@dataclass(frozen=True, slots=True)
class ShardStats:
    """Per-shard load summary (``stages`` is empty unless the router was
    built with a recording tracer — then it carries the shard's per-stage
    latency roll-up)."""

    shard: int
    users: int
    deliveries: int
    probes: int
    stages: tuple[StageStats, ...] = ()
    # Which top-k searcher served the shard's probes, and the summed
    # effective probe depth — the T3 attribution inputs.
    searcher: str = "ta"
    probe_depth_total: int = 0


@dataclass(frozen=True, slots=True)
class FailoverStats:
    """Roll-up of the router's fault-handling activity (all zero without
    an attached :class:`~repro.qos.faults.FaultInjector`)."""

    retries: int = 0
    failovers: int = 0
    redirected_deliveries: int = 0
    duplicates_suppressed: int = 0
    reintegrated_events: int = 0
    pending_reintegration: int = 0


#: Delivery-side counters a checkpoint carries (the restore baseline).
_CHECKPOINTED_STATS = (
    "deliveries", "impressions", "revenue", "deliveries_shed",
    "deliveries_degraded", "revenue_shed_upper_bound",
)
#: Every counter that is partitioned across shards and sums losslessly.
_SUMMED_STATS = _CHECKPOINTED_STATS + (
    "shared_probes", "probe_depth_total", "certified_deliveries",
    "fallback_deliveries", "approximate_deliveries", "exact_deliveries",
    "incremental_refreshes",
)


def merge_cluster_stats(
    shard_stats: "Iterable[EngineStats]",
    *,
    posts_routed: int,
    baseline: dict | None = None,
) -> EngineStats:
    """Fold per-shard :class:`EngineStats` into one cluster-level view.

    Delivery-side counters are partitioned across shards and sum
    losslessly; ``posts`` must come from the router (per-shard posts
    double-count fan-out amplification). ``retired_ads`` is the max over
    shards, which counts an ended campaign once: an end is broadcast, and
    every shard retires the ad on its own corpus copy. An exhaustion is
    not broadcast. Each shard retires an ad only when its own copy of the
    budget runs out, so the count misses ads whose summed spend passed
    their budget on no single shard: on the ``sharded`` e2e workload at
    seed 7 it reads 0 while one ad ends over budget (ROADMAP item 1).
    ``baseline`` is a restored checkpoint's ``stats`` payload: restored
    shards restart their own counters from zero, and the baseline keeps
    cluster totals continuous.
    """
    merged = EngineStats(posts=posts_routed)
    for stats in shard_stats:
        for name in _SUMMED_STATS:
            setattr(merged, name, getattr(merged, name) + getattr(stats, name))
        merged.retired_ads = max(merged.retired_ads, stats.retired_ads)
    if baseline:
        for name in ("posts",) + _CHECKPOINTED_STATS:
            setattr(merged, name, getattr(merged, name) + baseline.get(name, 0))
    return merged


def _imbalance(loads: list[float]) -> float:
    total = sum(loads)
    if total == 0:
        return 1.0
    return max(loads) / (total / len(loads))


class Router:
    """A router over ``num_shards`` shard hosts behind one transport."""

    def __init__(
        self,
        workload: Workload,
        num_shards: int,
        *,
        connect: "Callable[[list[WorkerBootstrap]], ShardTransport]" = LocalTransport,
        config: EngineConfig | None = None,
        tracer: StageTracer | None = None,
        metrics: "MetricsRegistry | None" = None,
        faults: "FaultInjector | None" = None,
        qos: "QosController | None" = None,
        request_tracer: "RequestTracer | None" = None,
        max_retries: int = 3,
        backoff_s: float = 0.05,
    ) -> None:
        """``connect`` turns the per-shard bootstraps into a live
        transport (in-process hosts by default). ``faults`` attaches a
        fault plan the router consults on every dispatch;
        ``max_retries``/``backoff_s`` bound the stream-time exponential
        backoff a dispatch spends probing a down shard before failover.
        ``qos`` reaches every shard — as one shared object (cluster-wide
        admission) or one copy each is the transport's business.
        """
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s <= 0.0:
            raise ConfigError(f"backoff_s must be positive, got {backoff_s}")
        self.num_shards = num_shards
        self._workload = workload
        config = config or EngineConfig()
        self._shard_of = build_shard_map(workload, num_shards)
        # One child tracer/registry per shard (spawned from the caller's,
        # so the noop defaults stay shared noops) plus one for the router
        # itself: vectorization happens here, once per post, through the
        # router's own seam, and its spans are merged into shard 0's view
        # on report.
        self._tracer = tracer or NoopTracer()
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._router_tracer = self._tracer.spawn()
        self._router_metrics = self._metrics.spawn()
        self._seam = Seam(self._router_tracer, self._router_metrics)
        # The router's own request tracer: route/dispatch/crash segments
        # live here, and shard segments are drained into it.
        self._request_tracer = (
            request_tracer if request_tracer is not None
            else NOOP_REQUEST_TRACER
        )
        if self._request_tracer.enabled:
            self._request_tracer.rebind(process="router")
        self._vectorize_stage = TextVectorizeStage(
            workload.vectorizer, workload.tokenizer
        )
        self._clock = SimClock()
        self._qos = qos
        self._posts_routed = 0
        self._shard_touches = 0
        self._next_msg_id = 0
        # Fault handling state (inert when no injector is attached).
        self._faults = faults
        self._max_retries = max_retries
        self._backoff_s = backoff_s
        self._seen: set[tuple[int, int]] = set()  # (msg_id, home shard)
        self._down_buffers: dict[int, list[PostEvent]] = {}
        self._retries = 0
        self._failovers = 0
        self._redirected_deliveries = 0
        self._duplicates_suppressed = 0
        self._reintegrated_events = 0
        # Per shard: wall time the router spent waiting on post replies
        # (in-process that *is* the shard's service time) and the size of
        # the last frame sent there.
        self._dispatch_seconds = [0.0] * num_shards
        self._frame_bytes = [0] * num_shards
        # Stats carried over from a restored checkpoint: shards restart
        # their counters from zero, the baseline keeps roll-ups continuous.
        self._baseline_stats: dict = {}
        # Online-learning sync coordination (inert unless linucb is on).
        # The router holds no learner of its own: epochs are computed from
        # the config interval, folds happen shard-side via learn_* ops.
        self._learn = config.personalize == "linucb"
        self._learn_interval = config.linucb_sync_interval_s
        self._learn_epoch = 0
        # The stream never crosses the bootstrap: shards get the catalog
        # slice only, posts arrive as PostEvents.
        workload_slice = replace(
            workload, posts=[], post_topics={}, checkins=[]
        )

        def child(parent):
            return parent.spawn() if parent.enabled else None

        self.transport = connect([
            WorkerBootstrap(
                shard=shard,
                num_shards=num_shards,
                config=config,
                workload=workload_slice,
                tracer=child(self._tracer),
                metrics=child(self._metrics),
                qos=qos,
                request_tracer=child(self._request_tracer),
            )
            for shard in range(num_shards)
        ])

    # -- talking to shards ---------------------------------------------------

    def _call(self, shard: int, op: str, payload: Any = None) -> Any:
        self.transport.submit(shard, op, payload)
        return self.transport.collect(shard)

    def _fan_out(
        self, requests: "Iterable[tuple[int, str, Any]]", *, serving: bool = False
    ) -> list:
        """Send every request, then collect every reply in the order
        sent. Whatever goes wrong — a handler error in a reply, a shard
        that cannot be sent to — every reply already owed is still
        collected before the first error is raised: an uncollected reply
        would answer the *next* request on that shard. ``serving`` books
        the wait as the shard's dispatch busy time."""
        sent: list[int] = []
        unsent: Exception | None = None
        for shard, op, payload in requests:
            try:
                self._frame_bytes[shard] = self.transport.submit(
                    shard, op, payload
                )
            except StreamError as exc:
                unsent = exc
                break
            sent.append(shard)
        replies: list = []
        failed: Exception | None = None
        for shard in sent:
            started = perf_counter()
            try:
                replies.append(self.transport.collect(shard))
            except Exception as exc:
                if failed is None:
                    failed = exc
            if serving:
                self._dispatch_seconds[shard] += perf_counter() - started
        if failed is not None:
            raise failed
        if unsent is not None:
            raise unsent
        return replies

    def _broadcast(self, op: str, payload: Any = None) -> list:
        """Fan a request to every shard, collect in shard order."""
        return self._fan_out(
            (shard, op, payload) for shard in range(self.num_shards)
        )

    # -- routing ---------------------------------------------------------------

    def shard_of(self, user_id: int) -> int:
        shard = self._shard_of.get(user_id)
        if shard is None:
            shard = hash_shard(user_id, self.num_shards)
            self._shard_of[user_id] = shard
        return shard

    def _route(self, author_id: int) -> list[int]:
        """The shards one post touches: every follower's home shard, plus
        the author's (their profile lives there and must stay current)."""
        followers = self._workload.graph.followers(author_id)
        touched: set[int] = {self.shard_of(author_id)}
        touched.update(self.shard_of(follower) for follower in followers)
        return sorted(touched)

    def _event_for(self, author_id: int, text: str, timestamp: float) -> PostEvent:
        """Vectorize once at the router; every touched shard reuses the
        event (shards share the workload's fitted vectorizer, so the
        router-side vector is exactly what each shard would compute)."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        event = PostEvent(
            msg_id=msg_id,
            author_id=author_id,
            timestamp=timestamp,
            message_vec=vectorize_spanned(
                self._vectorize_stage, self._seam, text, self._clock
            ),
            text=text,
            # The router is the edge: contexts are minted here and ride
            # inside the event into every shard the fan-out touches.
            trace=(
                self._request_tracer.mint(msg_id)
                if self._request_tracer.enabled
                else None
            ),
        )
        self._clock.advance_to_at_least(timestamp)
        return event

    def _record_routes(
        self,
        routed: "list[tuple[PostEvent, list[int]]]",
        batch_sizes: dict[int, int],
        started_perf: float,
    ) -> None:
        """One router ``route`` segment per *sampled* traced event: which
        shards the fan-out touched, with one ``rpc`` span per hop carrying
        the frame size and batch amortisation. Recorded after the collect
        barrier, so the duration covers dispatch + shard service + merge.
        """
        request_tracer = self._request_tracer
        duration = perf_counter() - started_perf
        start_wall = started_perf + request_tracer.wall_anchor
        for event, touched in routed:
            context = event.trace
            if context is None or not context.sampled:
                continue
            spans = [
                Span(
                    0,
                    f"rpc_shard{shard}",
                    "rpc",
                    attrs={
                        "shard": shard,
                        "frame_bytes": self._frame_bytes[shard],
                        "batched": batch_sizes[shard],
                    },
                )
                for shard in touched
            ]
            request_tracer.record_segment(
                context,
                "route",
                spans=spans,
                start=start_wall,
                duration_s=duration,
                attrs={"msg_id": event.msg_id, "shards": len(touched)},
            )

    # -- fault-aware dispatch ------------------------------------------------

    def _reintegrate(self, now: float) -> None:
        """Replay buffered ingestions on shards that have recovered, in
        arrival order, before they take any new traffic — the recovered
        shard's author profiles reconverge with the no-fault timeline."""
        for shard in sorted(self._down_buffers):
            if self._faults.is_down(shard, now):
                continue
            events = self._down_buffers.pop(shard)
            self._call(shard, "ingest", events)
            self._reintegrated_events += len(events)

    def _resolve(self, home: int, now: float) -> tuple[int, bool]:
        """The shard that will serve a dispatch aimed at ``home``: retry
        the home shard with bounded stream-time exponential backoff, then
        fail over to the deterministic fallback (the next up shard)."""
        faults = self._faults
        if not faults.is_down(home, now):
            return home, False
        delay = self._backoff_s
        for _ in range(self._max_retries):
            self._retries += 1
            if not faults.is_down(home, now + delay):
                return home, False
            delay *= 2.0
        for offset in range(1, self.num_shards):
            candidate = (home + offset) % self.num_shards
            if not faults.is_down(candidate, now):
                self._failovers += 1
                return candidate, True
        raise StreamError(
            f"no shard available at t={now}: all {self.num_shards} are down"
        )

    def _dispatch(self, event: PostEvent, home: int) -> PostResult | None:
        """One fault-injected dispatch of ``event`` to ``home``'s fan-out.

        Returns ``None`` for a suppressed duplicate. A redirected dispatch
        does NOT ingest on the fallback shard (the home shard's buffered
        replay is the only profile update, preserving post-recovery
        parity) and serves profile-less candidates-only slates.
        """
        faults = self._faults
        request_tracer = self._request_tracer
        tracing = request_tracer.enabled and event.trace is not None
        key = (event.msg_id, home)
        if key in self._seen:
            self._duplicates_suppressed += 1
            if tracing:
                # At-least-once redelivery caught by the seen set — one of
                # the invisible paths tracing exists to make visible.
                request_tracer.record_segment(
                    event.trace,
                    "dispatch",
                    spans=[
                        Span(
                            0, "duplicate_suppressed", "duplicate",
                            attrs={"home": home},
                        )
                    ],
                    force_reason="duplicate",
                    attrs={"home": home, "msg_id": event.msg_id},
                )
            return None
        self._seen.add(key)
        segment = (
            request_tracer.start(event.trace, "dispatch") if tracing else None
        )
        retries_before = self._retries
        self._reintegrate(event.timestamp)
        target, redirected = self._resolve(home, event.timestamp)
        if segment is not None:
            tries = self._retries - retries_before
            if tries:
                segment.add_span(
                    "retry",
                    "retry",
                    count=tries,
                    attrs={"home": home, "backoff_s": self._backoff_s},
                )
                segment.flag("retry")
            if redirected:
                segment.add_span(
                    "failover_redirect",
                    "failover",
                    attrs={"home": home, "target": target},
                )
                segment.flag("failover")
            segment.set_attrs(
                msg_id=event.msg_id, home=home, target=target
            )
        started = perf_counter()
        if redirected:
            self._down_buffers.setdefault(home, []).append(event)
            stranded = sorted(
                follower
                for follower in self._workload.graph.followers(event.author_id)
                if self.shard_of(follower) == home
            )
            result = self._call(target, "deliver_to", (event, stranded))
            self._redirected_deliveries += result.num_deliveries
        else:
            ((_, result),) = self._call(target, "post_batch", [(0, event)])
        elapsed = perf_counter() - started
        factor = faults.slowdown_factor(target, event.timestamp)
        if factor > 1.0:
            # Stretch the shard's service time in place: the slowdown has
            # to show up as real busy-time skew for the imbalance and SLO
            # telemetry to see it.
            deadline = started + elapsed * factor
            while perf_counter() < deadline:
                pass
            elapsed = perf_counter() - started
        self._dispatch_seconds[target] += elapsed
        if segment is not None:
            request_tracer.finish(segment)
        return result

    # -- the routed operations ---------------------------------------------

    def _epoch_of(self, timestamp: float) -> int:
        return int(float(timestamp) // self._learn_interval)

    def _sync_learners(self, timestamp: float) -> None:
        """One cluster-wide bandit fold at each epoch boundary.

        The router concatenates every shard's pending update records and
        has each shard fold the identical canonically-sorted list, so the
        serving snapshots stay bit-identical across shards — and identical
        to the single-engine reference, which folds the same record
        multiset in the same canonical order at the same stream point.
        """
        from repro.learn.linucb import sort_records

        epoch = self._epoch_of(timestamp)
        if epoch <= self._learn_epoch:
            return
        pending: list = []
        for batch in self._broadcast("learn_drain"):
            pending.extend(batch)
        self._broadcast("learn_sync", (epoch, sort_records(pending)))
        self._learn_epoch = epoch

    def _epoch_runs(self, posts: Iterable) -> list[list]:
        """Consecutive sub-batches with one sync epoch each."""
        return [
            list(run)
            for _epoch, run in groupby(
                posts, key=lambda post: self._epoch_of(post.timestamp)
            )
        ]

    def post(self, author_id: int, text: str, timestamp: float) -> list[PostResult]:
        """Route one post to every shard owning a follower; results come
        back in sorted shard order."""
        return self.post_batch([_Post(author_id, text, timestamp)])[0]

    def post_batch(self, posts: Iterable) -> list[list[PostResult]]:
        """Route a timestamp-ordered batch of posts (objects with
        ``author_id``/``text``/``timestamp``), grouped per shard.

        Each post is vectorized once and routed; each touched shard gets
        its whole ``(position, event)`` slice in one request and consumes
        it in arrival order through its own pipeline; replies merge by
        position in shard order. With the bandit on, the batch is split
        at sync epoch boundaries so a mid-batch fold happens at the same
        stream point as the single engine's (which processes posts one by
        one).
        """
        if not self._learn:
            return self._post_batch_run(posts)
        results: list[list[PostResult]] = []
        for run in self._epoch_runs(posts):
            self._sync_learners(run[0].timestamp)
            results.extend(self._post_batch_run(run))
        return results

    def _post_batch_run(self, posts: Iterable) -> list[list[PostResult]]:
        routed: list[tuple[PostEvent, list[int]]] = []
        by_shard: dict[int, list[tuple[int, PostEvent]]] = {}
        for position, post in enumerate(posts):
            event = self._event_for(post.author_id, post.text, post.timestamp)
            touched = self._route(post.author_id)
            self._posts_routed += 1
            self._shard_touches += len(touched)
            routed.append((event, touched))
            for shard in touched:
                by_shard.setdefault(shard, []).append((position, event))

        results: list[list[PostResult]] = [[] for _ in routed]
        slices = sorted(by_shard.items())
        faults = self._faults
        if faults is not None:
            # Fault injection decides per dispatch, so dispatches go one
            # at a time instead of as one fan-out.
            for shard, slice_ in slices:
                for position, event in slice_:
                    # A lost ack: at-least-once delivery sends it again.
                    sends = 2 if faults.should_duplicate(event.msg_id) else 1
                    for _ in range(sends):
                        outcome = self._dispatch(event, shard)
                        if outcome is not None:
                            results[position].append(outcome)
            return results
        started = perf_counter()
        replies = self._fan_out(
            ((shard, "post_batch", slice_) for shard, slice_ in slices),
            serving=True,
        )
        for reply in replies:
            for position, result in reply:
                results[position].append(result)
        if self._request_tracer.enabled:
            self._record_routes(
                routed,
                {shard: len(slice_) for shard, slice_ in slices},
                started,
            )
        return results

    # Location, the catalog and CTR evidence are replicated state, so the
    # operations below are broadcasts.

    def checkin(self, user_id: int, point: GeoPoint, timestamp: float) -> None:
        self._clock.advance_to_at_least(timestamp)
        self._broadcast("checkin", (user_id, point, timestamp))

    def launch_campaign(self, ad, timestamp: float) -> None:
        """Add a new ad mid-stream on every shard (replicated catalog)."""
        self._clock.advance_to_at_least(timestamp)
        self._broadcast("launch_campaign", (ad, timestamp))

    def end_campaign(self, ad_id: int, timestamp: float) -> None:
        """Deactivate a campaign on every shard (idempotent per shard)."""
        self._clock.advance_to_at_least(timestamp)
        self._broadcast("end_campaign", (ad_id, timestamp))

    def record_click(
        self,
        ad_id: int,
        *,
        user_id: int | None = None,
        slot_index: int | None = None,
    ) -> None:
        """Report a click cluster-wide: CTR evidence steers scoring on
        every shard, so clicks are broadcast state (impressions stay
        partitioned — each shard records only the slates it served). The
        LinUCB reward lands exactly once: only the follower's home shard
        holds the exposure's serving context."""
        self._broadcast("record_click", (ad_id, user_id, slot_index))

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The cluster's state folded into one *logical* single-engine
        payload (see :func:`repro.io.checkpoint.merge_shard_states`) —
        restorable into a single engine or a cluster of any shard count
        on any transport."""
        from repro.io.checkpoint import merge_shard_states

        return merge_shard_states(
            self._broadcast("state"),
            self.shard_of,
            posts_routed=self._posts_routed + self._baseline_stats.get("posts", 0),
            qos_state=(
                self._call(0, "qos_state") if self._qos is not None else None
            ),
        )

    def load_state(self, payload: dict) -> None:
        """Restore a logical checkpoint into this *freshly built* cluster.

        The full payload goes to every shard (non-resident
        profile/context replicas are never read — personalisation happens
        only on a user's home shard) and is applied without its stats;
        the checkpoint totals become the router-side baseline instead, so
        :meth:`cluster_stats` stays continuous across the restore.
        """
        if self._posts_routed != 0:
            raise ConfigError("restore target must be a fresh cluster")
        from repro.learn.linucb import partition_learn_state

        learn = payload.get("learn")
        requests = []
        for shard in range(self.num_shards):
            shard_payload = payload
            if learn is not None:
                # The snapshot replicates to every shard; the open epoch's
                # pending records and click contexts go to each follower's
                # home shard — where an uninterrupted run produced them.
                shard_payload = dict(payload)
                shard_payload["learn"] = partition_learn_state(
                    learn, shard, self.shard_of
                )
            requests.append((shard, "restore", shard_payload))
        self._fan_out(requests)
        if learn is not None:
            self._learn_epoch = int(learn["epoch"])
        self._next_msg_id = payload["next_msg_id"]
        self._baseline_stats = dict(payload["stats"])
        self._clock.advance_to_at_least(payload["clock"])

    def checkpoint(self, path) -> None:
        """Write the logical cluster checkpoint as one JSON file."""
        from repro.io.checkpoint import save_state_dict

        save_state_dict(path, self.state_dict())

    def restore(self, path) -> None:
        """Load a checkpoint file written by any backend's ``checkpoint``."""
        from repro.io.checkpoint import load_state_dict

        self.load_state(load_state_dict(path))

    # -- reporting --------------------------------------------------------------

    def _reports(self) -> list[dict]:
        return self._broadcast("report")

    def _shard_views(self, reports: list[dict], key: str) -> list:
        """Per-shard tracer (``key="tracer"``) or registry
        (``key="metrics"``) views: a fresh child of the caller's with the
        shard's folded in — an in-process report hands back the live
        object, which must not be merged into — and the router's
        vectorize spans on shard 0's. A registry view counts from its
        shard's stats."""
        parent, router_side = (
            (self._tracer, self._router_tracer)
            if key == "tracer"
            else (self._metrics, self._router_metrics)
        )
        views = []
        for shard, report in enumerate(reports):
            view = parent.spawn()
            if report[key] is not None:
                view.merge(report[key])
            if shard == 0:
                view.merge(router_side)
            if key == "metrics":
                view.read_from(
                    lambda report=report: counted(report["stats"], report["learned"])
                )
            views.append(view)
        return views

    @property
    def tracer(self) -> StageTracer:
        """The cluster-wide tracer view: the caller's tracer with the
        router's vectorize spans and every shard's spans merged in."""
        merged = self._tracer.spawn()
        if merged.enabled:
            for view in self._shard_views(self._reports(), "tracer"):
                merged.merge(view)
        return merged

    @property
    def metrics(self) -> "MetricsRegistry | NullMetrics":
        """The cluster-wide registry view: every shard's windowed
        histograms merged (lossless — same geometry); counters read from
        :meth:`cluster_stats`, the learner's from one shard (its state is
        replicated), and the router-side skew signals (per-shard dispatch
        busy time, load imbalance) as gauges, so they reach the
        Prometheus exposition."""
        merged = self._metrics.spawn()
        if merged.enabled:
            from repro.obs.prometheus import export_cluster_gauges

            reports = self._reports()
            for view in self._shard_views(reports, "metrics"):
                merged.merge(view)
            counters, gauges = counted(
                self._merged_stats(reports), reports[0]["learned"]
            )
            gauges = {
                **gauges,
                **export_cluster_gauges(
                    dispatch_seconds=self.dispatch_seconds_by_shard(),
                    imbalance=_imbalance(
                        [float(report["stats"].deliveries) for report in reports]
                    ),
                ),
            }
            merged.read_from(lambda: (counters, gauges))
        return merged

    def metrics_by_shard(self) -> "list[MetricsRegistry | NullMetrics]":
        return self._shard_views(self._reports(), "metrics")

    def stage_report(self) -> dict[str, StageStats]:
        """Merged per-stage roll-up across all shards."""
        return self.tracer.snapshot()

    def stage_report_by_shard(self) -> list[dict[str, StageStats]]:
        return [
            view.snapshot()
            for view in self._shard_views(self._reports(), "tracer")
        ]

    def _drain_traces(self) -> int:
        """Pull every reachable shard's recorded trace segments into the
        router's tracer (checkpoint-style incremental merge); returns how
        many segments arrived. A dead or closed shard is skipped — it
        must not make the surviving telemetry unreadable, and its crash
        already recorded its segments."""
        request_tracer = self._request_tracer
        drained = 0
        if request_tracer.enabled:
            for shard in range(self.num_shards):
                try:
                    payload = self._call(shard, "trace_drain")
                except StreamError:
                    continue
                drained += len(payload["retained"]) + len(payload["ring"])
                request_tracer.absorb(payload)
        return drained

    @property
    def request_tracer(self) -> "RequestTracer | NoopRequestTracer":
        """The cluster-wide request-trace view: the router's own
        route/dispatch/crash segments plus everything drained from the
        shards."""
        self._drain_traces()
        return self._request_tracer

    def request_traces(self) -> "list[TraceSegment]":
        """Every retained trace segment, cluster-wide."""
        return list(self.request_tracer.retained)

    def dump_flight(
        self, path, *, reason: str = "signal", health: dict | None = None
    ):
        """Write the flight-recorder snapshot (traces + registry snapshot
        + QoS rung, plus the caller's ``health`` summary) to ``path``;
        returns the path written. Reachable shards are drained first, so
        this is the breach / end-of-run / operator-signal entry point."""
        from repro.obs.recorder import write_flight_dump

        try:
            qos = self.qos_summary()
            metrics = self.metrics
            registry_snapshot = (
                metrics.snapshot().to_dict() if metrics.enabled else None
            )
        except StreamError:
            qos = registry_snapshot = None  # a dead shard must not block the dump
        return write_flight_dump(
            path,
            self.request_tracer.flight_traces(),
            reason=reason,
            health=health,
            qos=qos,
            registry_snapshot=registry_snapshot,
            extra={"tracer": self._request_tracer.summary()},
        )

    @property
    def qos(self) -> "QosController | None":
        """The QoS controller the cluster was built with: the live shared
        object in-process, the prototype the workers were cloned from on
        the process transport (their live ledgers: :meth:`qos_summary`)."""
        return self._qos

    def _qos_shards(self) -> range:
        """The shards holding distinct QoS controllers: one stands for
        all when the transport's shards share the object, else every
        shard has its own copy. Empty without a controller."""
        if self._qos is None:
            return range(0)
        return range(1 if self.transport.shared_qos else self.num_shards)

    def qos_summary(self) -> dict | None:
        """Cluster ledger roll-up: counters summed across controllers, the
        rung reported at its worst (max index)."""
        summaries = self._fan_out(
            (shard, "qos_summary", None) for shard in self._qos_shards()
        )
        if not summaries:
            return None
        merged = dict(summaries[0])
        for summary in summaries[1:]:
            for key in ("intervals", "degrade_steps", "recover_steps",
                        "attempted", "admitted", "shed",
                        "revenue_shed_upper_bound"):
                merged[key] += summary[key]
            if summary["rung"] > merged["rung"]:
                merged["rung"] = summary["rung"]
                merged["rung_name"] = summary["rung_name"]
        return merged

    def observe_health(self, grade: "HealthState") -> None:
        """Close the control loop for one graded interval, cluster-wide.

        Every QoS controller steps exactly once on the raw grade (the
        shared object once, each worker's copy once), and the
        breach-window flag — segments finishing inside a non-OK interval
        are force-retained — is set on the router's request tracer and on
        every shard's, which the parent's ``set_breach`` never reaches.
        """
        self._request_tracer.set_breach(grade.severity > 0)
        stepping = self._qos_shards()
        self._fan_out(
            (shard, "observe_health", (grade, shard in stepping))
            for shard in range(self.num_shards)
        )

    def failover_stats(self) -> FailoverStats:
        """Roll-up of retries, failovers, redirected deliveries, suppressed
        duplicates and reintegration progress under fault injection."""
        return FailoverStats(
            retries=self._retries,
            failovers=self._failovers,
            redirected_deliveries=self._redirected_deliveries,
            duplicates_suppressed=self._duplicates_suppressed,
            reintegrated_events=self._reintegrated_events,
            pending_reintegration=sum(
                len(buffer) for buffer in self._down_buffers.values()
            ),
        )

    def reintegrate_now(self, now: float) -> int:
        """Force reintegration of any recovered shards at stream time
        ``now`` (end-of-run flush when no further traffic will trigger
        it); returns how many buffered events were replayed."""
        before = self._reintegrated_events
        self._reintegrate(now)
        return self._reintegrated_events - before

    def dispatch_seconds_by_shard(self) -> list[float]:
        """Per-shard wall time the router spent on post dispatches — the
        busy-time skew signal (slowdown faults stretch it). In-process it
        is the shard's service time; across processes, fan-out-then-collect
        means shard 0's wait approximates its service time and later
        shards absorb only their excess over the slowest earlier one."""
        return list(self._dispatch_seconds)

    def amplification(self) -> float:
        """Mean number of shards touched per post (1.0 = free scale-out)."""
        if self._posts_routed == 0:
            return 0.0
        return self._shard_touches / self._posts_routed

    def stats_by_shard(self) -> list[ShardStats]:
        owners: dict[int, int] = {}
        for shard in self._shard_of.values():
            owners[shard] = owners.get(shard, 0) + 1
        reports = self._reports()
        tracers = self._shard_views(reports, "tracer")
        return [
            ShardStats(
                shard=shard,
                users=owners.get(shard, 0),
                deliveries=report["stats"].deliveries,
                probes=report["stats"].shared_probes,
                stages=tuple(tracers[shard].snapshot().values()),
                searcher=report["searcher"],
                probe_depth_total=report["stats"].probe_depth_total,
            )
            for shard, report in enumerate(reports)
        ]

    def load_imbalance(self, *, stage: str | None = None) -> float:
        """max/mean load across shards (1.0 = perfectly balanced).

        By default load is delivery *count*; with ``stage`` set (and a
        recording tracer attached) it is busy *time* in that stage, which
        exposes skew that equal delivery counts hide — e.g. a shard whose
        residents have pathological fan-in spending longer per delivery.
        """
        if stage is None:
            return _imbalance(
                [float(report["stats"].deliveries) for report in self._reports()]
            )
        return _imbalance([
            report[stage].total_seconds if stage in report else 0.0
            for report in self.stage_report_by_shard()
        ])

    def cluster_stats(self) -> EngineStats:
        """Cluster-level :class:`EngineStats` roll-up (posts counted at
        the router; delivery counters summed across shards; restored
        baselines included)."""
        return self._merged_stats(self._reports())

    def _merged_stats(self, reports: list[dict]) -> EngineStats:
        return merge_cluster_stats(
            (report["stats"] for report in reports),
            posts_routed=self._posts_routed,
            baseline=self._baseline_stats,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the transport (reaps worker processes when there are
        any). Idempotent."""
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

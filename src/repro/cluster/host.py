"""The shard side of the cluster: how a shard is built, and the one
protocol it speaks.

The scale-out architecture partitions *users* across engine shards: each
shard holds the full ad corpus (small relative to user state) plus the
profiles/contexts of its own residents, and serves a post only to the
followers it owns. :class:`ShardHost` wraps one such replica behind an
``(op, payload)`` dispatch table — the same table whether the
:class:`~repro.cluster.router.Router` calls it directly (in-process) or
a worker process serves it over a channel — built through the
``build_shard_*`` helpers so every transport constructs *exactly* the
same engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.config import EngineConfig
from repro.core.engine import AdEngine
from repro.datagen.workload import Workload
from repro.errors import StreamError
from repro.graph.social import SocialGraph
from repro.obs.health import HealthState
from repro.obs.tracer import StageTracer

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import RequestTracer
    from repro.qos.controller import QosController


def hash_shard(user_id: int, num_shards: int) -> int:
    """Deterministic user → shard assignment (multiplicative hashing, so
    consecutive ids spread instead of clustering)."""
    return (user_id * 2654435761) % (2**32) % num_shards


def build_shard_map(workload: Workload, num_shards: int) -> dict[int, int]:
    """user id → home shard for every workload user."""
    return {
        user.user_id: hash_shard(user.user_id, num_shards)
        for user in workload.users
    }


def build_shard_graph(
    workload: Workload, shard: int, shard_map: dict[int, int]
) -> SocialGraph:
    """One shard's *filtered* graph: every user exists everywhere (any
    author may post through any shard), but a follow edge lives only on
    the follower's home shard — so a shard fans out strictly to its own
    residents."""
    graph = SocialGraph()
    for user in workload.users:
        graph.add_user(user.user_id)
    for user in workload.users:
        if shard_map[user.user_id] != shard:
            continue
        for followee in workload.graph.followees(user.user_id):
            graph.follow(user.user_id, followee)
    return graph


def build_shard_engine(
    workload: Workload,
    graph: SocialGraph,
    *,
    config: EngineConfig,
    tracer: StageTracer | None = None,
    metrics: "MetricsRegistry | None" = None,
    qos: "QosController | None" = None,
    request_tracer: "RequestTracer | None" = None,
) -> AdEngine:
    """One shard replica: full corpus, filtered graph, every user
    registered with their home location (cheap broadcast state)."""
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
        tracer=tracer,
        metrics=metrics,
        qos=qos,
        request_tracer=request_tracer,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    if engine.services.learner is not None:
        # Shard replicas never self-fold their bandit models: the router
        # coordinates one cluster-wide fold per epoch boundary so every
        # shard folds the identical record list (Router._sync_learners).
        engine.services.learner.auto_sync = False
    return engine


@dataclass
class WorkerBootstrap:
    """Everything one shard needs to build its engine.

    ``workload`` is the stream-stripped slice (catalog, users, graph,
    fitted vectorizer — no posts); the stream arrives as events. The
    tracer/metrics children are spawned router-side so geometry checks
    (relative error, window shape) happen before any process forks.
    """

    shard: int
    num_shards: int
    config: EngineConfig
    workload: Workload
    tracer: StageTracer | None = None
    metrics: "MetricsRegistry | None" = None
    qos: "QosController | None" = None
    request_tracer: "RequestTracer | None" = None


class ShardHost:
    """One shard engine behind one op dispatch table — the only protocol
    a router speaks to a shard, on every transport."""

    def __init__(self, bootstrap: WorkerBootstrap) -> None:
        shard_map = build_shard_map(bootstrap.workload, bootstrap.num_shards)
        self.shard = bootstrap.shard
        if bootstrap.request_tracer is not None:
            # The tracer may have crossed a process boundary: re-anchor
            # its wall clock and span-id salt to *this* process before any
            # segment is recorded (perf_counter origins and pids are
            # per-process). The transport already labelled it.
            bootstrap.request_tracer.rebind()
        self.engine: AdEngine = build_shard_engine(
            bootstrap.workload,
            build_shard_graph(bootstrap.workload, bootstrap.shard, shard_map),
            config=bootstrap.config,
            tracer=bootstrap.tracer,
            metrics=bootstrap.metrics,
            qos=bootstrap.qos,
            request_tracer=bootstrap.request_tracer,
        )

    def handle(self, op: str, payload: Any) -> Any:
        """Execute one request; the return value is the reply."""
        engine = self.engine
        if op == "post_batch":
            return [
                (position, engine.post_event(event))
                for position, event in payload
            ]
        if op == "deliver_to":
            # Failover: serve another shard's stranded followers without
            # ingesting (the home shard's replay is the only profile
            # update) and profile-less (no profile state for them here).
            event, followers = payload
            return engine.deliver_event_to(
                event, followers, ingest=False, candidates_only=True
            )
        if op == "ingest":
            # Reintegration: replay the ingestions missed while down.
            for event in payload:
                engine.ingest_event(event)
            return None
        if op == "checkin":
            user_id, point, timestamp = payload
            engine.checkin(user_id, point, timestamp)
            return None
        if op == "launch_campaign":
            ad, timestamp = payload
            engine.launch_campaign(ad, timestamp)
            return None
        if op == "end_campaign":
            ad_id, timestamp = payload
            engine.end_campaign(ad_id, timestamp)
            return None
        if op == "record_click":
            ad_id, user_id, slot_index = payload
            engine.record_click(ad_id, user_id=user_id, slot_index=slot_index)
            return None
        if op == "learn_drain":
            learner = engine.services.learner
            return learner.drain_pending() if learner is not None else []
        if op == "learn_sync":
            learner = engine.services.learner
            if learner is not None:
                epoch, records = payload
                learner.apply_sync(epoch, records)
            return None
        if op == "report":
            tracer = engine.tracer
            metrics = engine.metrics
            learner = engine.services.learner
            return {
                "stats": engine.stats,
                "searcher": engine.candidate_gen.kind,
                "learned": learner.telemetry() if learner is not None else None,
                "tracer": tracer if tracer.enabled else None,
                "metrics": metrics if metrics.enabled else None,
            }
        if op == "trace_drain":
            # Checkpoint-style trace merge: ship everything recorded since
            # the last drain and reset, so each drain is an increment.
            return engine.services.request_tracer.drain()
        if op == "state":
            from repro.io.checkpoint import engine_state_dict

            return engine_state_dict(engine)
        if op == "qos_summary":
            qos = engine.qos
            return qos.summary() if qos is not None else None
        if op == "observe_health":
            # One graded interval: the breach window opens or closes on
            # this shard's tracer; the controller steps only where the
            # router says this shard's is its own to step.
            grade, steps_qos = payload
            engine.services.request_tracer.set_breach(
                grade is not HealthState.OK
            )
            if steps_qos and engine.qos is not None:
                engine.qos.observe(grade)
            return None
        if op == "qos_state":
            qos = engine.qos
            return qos.state_dict() if qos is not None else None
        if op == "restore":
            from repro.io.checkpoint import apply_engine_state

            apply_engine_state(engine, payload, include_stats=False)
            return None
        if op == "ping":
            return "pong"
        raise StreamError(f"unknown worker op: {op!r}")

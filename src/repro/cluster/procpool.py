"""The multiprocess deployment: every shard host is a worker process.

:class:`ProcessShardedEngine` is the same :class:`~repro.cluster.router.Router`
as the in-process :class:`~repro.cluster.sharded.ShardedEngine`, over a
:class:`ProcessTransport`: each shard's
:class:`~repro.cluster.host.ShardHost` runs in a ``multiprocessing``
worker and is reached over the framed-pickle RPC layer
(:mod:`repro.cluster.rpc`). This is the backend that can show wall-clock
speedup: the router's fan-out puts every touched worker to work before
the first reply is read, and ``post_batch`` ships each worker its whole
slice in one frame, amortising IPC per batch rather than per delivery.

The contract is *equivalence*: for identical seeds and config the
process backend produces byte-identical slates, revenue and reconciled
counters to the in-process router (and hence to a single engine), which
the differential suite asserts. Routing, ordering and vectorization are
the router's and therefore shared; what this module adds is that
workers bootstrap through the very ``ShardHost`` constructor the
in-process transport calls, from a pickled
:class:`~repro.cluster.host.WorkerBootstrap`.

Failure is real here: a worker that dies mid-dispatch surfaces as
:class:`~repro.errors.WorkerCrashError` — a
:class:`~repro.errors.StreamError` subclass, so callers written against
the router's failover contract see the same exception family instead of
a hang — and :meth:`ProcessTransport.close` always reaps children.

QoS is the one semantic caveat: the in-process transport shares a single
controller across shards (cluster-wide admission), while each worker
process gets its own pickled copy of the prototype (per-shard
admission). The parity suite therefore runs with ``qos=None``; QoS runs
compare ledgers through :meth:`Router.qos_summary`, not byte-for-byte.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.host import ShardHost, WorkerBootstrap
from repro.cluster.router import Router
from repro.cluster.rpc import Channel, ChannelClosed, channel_pair
from repro.core.config import EngineConfig
from repro.datagen.workload import Workload
from repro.errors import StreamError, WorkerCrashError
from repro.obs.trace import NOOP_REQUEST_TRACER, Span, TraceContext
from repro.obs.tracer import StageTracer

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import NoopRequestTracer, RequestTracer
    from repro.qos.controller import QosController
    from repro.qos.faults import FaultInjector

__all__ = [
    "ProcessShardedEngine",
    "ProcessTransport",
    "ShardHost",
    "WorkerBootstrap",
    "serve",
]


def serve(channel: Channel) -> None:
    """The worker loop: bootstrap, then request/response until shutdown.

    Every reply is an ``("ok", value)`` or ``("err", exception)``
    envelope; a handler error is reported, not fatal (the engine is still
    consistent for domain errors like an unknown user id). The loop ends
    on an explicit ``shutdown`` op or when the router end disappears.
    """
    try:
        bootstrap = channel.recv()
    except ChannelClosed:
        return
    try:
        host = ShardHost(bootstrap)
    except BaseException as exc:  # report construction failure, then die
        _send_reply(channel, ("err", exc))
        return
    _send_reply(channel, ("ok", {"shard": host.shard, "pid": os.getpid()}))
    while True:
        try:
            op, payload = channel.recv()
        except ChannelClosed:
            return  # router went away: nothing left to serve
        if op == "shutdown":
            _send_reply(channel, ("ok", None))
            return
        try:
            reply = ("ok", host.handle(op, payload))
        except BaseException as exc:
            reply = ("err", exc)
        if not _send_reply(channel, reply):
            return


def _send_reply(channel: Channel, reply: tuple) -> bool:
    try:
        channel.send(reply)
    except ChannelClosed:
        return False
    except Exception as exc:  # unpicklable result/exception
        try:
            channel.send(("err", StreamError(f"unpicklable reply: {exc!r}")))
        except ChannelClosed:
            return False
    return True


def _worker_main(worker_channel: Channel, router_channel: Channel) -> None:
    """Process entry point: drop the inherited router end, then serve."""
    router_channel.close()
    try:
        serve(worker_channel)
    finally:
        worker_channel.close()


@dataclass
class _Worker:
    """Router-side handle on one shard process."""

    shard: int
    process: multiprocessing.process.BaseProcess
    channel: Channel
    alive: bool = True
    pending: int = 0  # requests sent, replies not yet collected

    crash_detail: str | None = field(default=None)
    # Traced events whose replies are still outstanding: what the flight
    # recorder stamps as in-flight if this worker dies mid-request.
    inflight: "list[tuple[TraceContext, int]]" = field(default_factory=list)


class ProcessTransport:
    """One worker process per shard, one :class:`Channel` to each.

    Owns the processes' whole life: spawn and bootstrap (concurrently —
    engine construction is the expensive part), strict request/response
    framing, marking a worker dead at the first read or write that
    notices, and reaping on :meth:`close`. Every worker holds its own
    pickled copy of the QoS prototype (per-shard admission).
    """

    shared_qos = False

    def __init__(
        self,
        bootstraps: list[WorkerBootstrap],
        *,
        request_tracer: "RequestTracer | NoopRequestTracer" = NOOP_REQUEST_TRACER,
        flight_path=None,
        start_method: str | None = None,
        rpc_timeout_s: float | None = None,
    ) -> None:
        """``request_tracer`` is the router's: a crash files error
        segments for the dead worker's in-flight requests there, and
        with ``flight_path`` set auto-dumps the black box.
        ``rpc_timeout_s`` bounds every blocking RPC read/write (a breach
        surfaces as :class:`WorkerCrashError`); ``None`` trusts the
        workers."""
        self._request_tracer = request_tracer
        self._flight_path = flight_path
        self._flight_dumped = False
        self._closed = False
        self._workers: list[_Worker] = []
        method = start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        ctx = multiprocessing.get_context(method)
        try:
            for bootstrap in bootstraps:
                router_end, worker_end = channel_pair()
                process = ctx.Process(
                    target=_worker_main,
                    args=(worker_end, router_end),
                    name=f"repro-shard-{bootstrap.shard}",
                    daemon=True,
                )
                process.start()
                worker_end.close()  # the child owns its copy now
                if rpc_timeout_s is not None:
                    router_end.settimeout(rpc_timeout_s)
                self._workers.append(
                    _Worker(bootstrap.shard, process, router_end)
                )
            # Send every bootstrap before collecting any ack: the workers
            # build their engines concurrently.
            for worker, bootstrap in zip(self._workers, bootstraps):
                if bootstrap.request_tracer is not None:
                    bootstrap.request_tracer.process = f"worker{worker.shard}"
                worker.channel.send(bootstrap)
                worker.pending += 1
            for worker in self._workers:
                self.collect(worker.shard)
        except BaseException:
            self.close()
            raise

    # -- the transport protocol ----------------------------------------------

    def submit(self, shard: int, op: str, payload: Any = None) -> int:
        worker = self._workers[shard]
        self._require_alive(worker)
        if op == "post_batch" and self._request_tracer.enabled:
            worker.inflight = [
                (event.trace, event.msg_id)
                for _position, event in payload
                if event.trace is not None
            ]
        try:
            worker.channel.send((op, payload))
        except ChannelClosed as exc:
            raise self._crash(worker, exc) from exc
        worker.pending += 1
        return worker.channel.last_frame_bytes

    def collect(self, shard: int) -> Any:
        worker = self._workers[shard]
        self._require_alive(worker)
        try:
            status, value = worker.channel.recv()
        except ChannelClosed as exc:
            raise self._crash(worker, exc) from exc
        worker.pending -= 1
        worker.inflight = []
        if status == "err":
            raise value
        return value

    # -- crash marking -------------------------------------------------------

    def _require_alive(self, worker: _Worker) -> None:
        if self._closed:
            raise StreamError("engine is closed")
        if not worker.alive:
            raise WorkerCrashError(
                worker.shard, worker.crash_detail or "previously crashed"
            )

    def _crash(self, worker: _Worker, exc: Exception) -> WorkerCrashError:
        """Mark a worker dead and build the error that surfaces it.

        With tracing attached, every traced request that was in flight on
        the dead worker gets an error segment (the request's last known
        position), and an armed flight recorder dumps the router-side
        black box — deliberately without touching the other workers,
        which may themselves be mid-request.
        """
        worker.process.join(timeout=1.0)
        worker.alive = False
        worker.pending = 0
        worker.crash_detail = (
            f"exitcode={worker.process.exitcode}, {exc}"
        )
        worker.channel.close()
        request_tracer = self._request_tracer
        for context, msg_id in worker.inflight:
            request_tracer.record_segment(
                context,
                "worker_crash",
                spans=[
                    Span(
                        0,
                        "worker_crash",
                        "error",
                        attrs={
                            "shard": worker.shard,
                            "detail": worker.crash_detail,
                        },
                    )
                ],
                status="error",
                force_reason="crash",
                attrs={"msg_id": msg_id, "shard": worker.shard},
            )
        worker.inflight = []
        if (
            self._flight_path is not None
            and request_tracer.enabled
            and not self._flight_dumped
        ):
            # One dump per pool, built from router-side state only (safe
            # to write mid-crash).
            self._flight_dumped = True
            from repro.obs.recorder import write_flight_dump

            write_flight_dump(
                self._flight_path,
                request_tracer.flight_traces(),
                reason="worker_crash",
                extra={"tracer": request_tracer.summary()},
            )
        return WorkerCrashError(worker.shard, worker.crash_detail)

    # -- process lifecycle ---------------------------------------------------

    def workers_alive(self) -> list[bool]:
        return [
            worker.alive and worker.process.is_alive()
            for worker in self._workers
        ]

    def worker_pid(self, shard: int) -> int | None:
        return self._workers[shard].process.pid

    def close(self, *, timeout_s: float = 5.0) -> None:
        """Shut every worker down and reap it. Idempotent, and safe after
        crashes: live workers get a graceful ``shutdown``, anything still
        running after ``timeout_s`` is terminated, then killed."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.alive and worker.pending == 0:
                try:
                    worker.channel.settimeout(timeout_s)
                    worker.channel.send(("shutdown", None))
                    worker.channel.recv()
                except (ChannelClosed, OSError):
                    pass
            worker.channel.close()
        for worker in self._workers:
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.alive = False


class ProcessShardedEngine(Router):
    """A :class:`Router` over ``num_shards`` worker *processes*."""

    def __init__(
        self,
        workload: Workload,
        num_shards: int,
        *,
        config: EngineConfig | None = None,
        tracer: StageTracer | None = None,
        metrics: "MetricsRegistry | None" = None,
        qos: "QosController | None" = None,
        request_tracer: "RequestTracer | None" = None,
        flight_path=None,
        faults: "FaultInjector | None" = None,
        start_method: str | None = None,
        rpc_timeout_s: float | None = None,
    ) -> None:
        """``qos`` is a *prototype*: each worker gets its own pickled copy
        (per-shard admission — see the module docstring). ``faults`` is
        the router's simulated fault plan, exactly as in-process; real
        failures need no plan — kill a worker. ``request_tracer``
        attaches distributed request tracing: contexts mint at the
        router, ride the RPC frames into the workers, and worker segments
        merge back via the ``trace_drain`` op. ``flight_path`` arms the
        flight recorder: a worker crash auto-dumps the router-side black
        box (including the in-flight traced requests) there.
        ``start_method``/``rpc_timeout_s`` are :class:`ProcessTransport`'s.
        """
        super().__init__(
            workload,
            num_shards,
            connect=lambda bootstraps: ProcessTransport(
                bootstraps,
                # Bound at call time: by then the router has rebound the
                # caller's tracer (or settled on the shared noop).
                request_tracer=self._request_tracer,
                flight_path=flight_path,
                start_method=start_method,
                rpc_timeout_s=rpc_timeout_s,
            ),
            config=config,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
            qos=qos,
            request_tracer=request_tracer,
        )

    # Process-lifecycle surface. It exists only here: callers (the e2e
    # harness's worker-CPU accounting, for one) take its presence to mean
    # "this backend has worker processes".

    def workers_alive(self) -> list[bool]:
        """Liveness per shard (the crash test's probe)."""
        return self.transport.workers_alive()

    def worker_pid(self, shard: int) -> int | None:
        return self.transport.worker_pid(shard)

    def drain_worker_traces(self) -> int:
        """Pull every live worker's recorded trace segments into the
        router's tracer while the workers are still up; returns how many
        segments arrived."""
        return self._drain_traces()

    def close(self, *, timeout_s: float = 5.0) -> None:
        """Shut every worker down and reap it (see
        :meth:`ProcessTransport.close`)."""
        self.transport.close(timeout_s=timeout_s)

    def __del__(self) -> None:
        try:
            self.close(timeout_s=1.0)
        except Exception:
            pass

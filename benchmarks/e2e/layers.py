"""The traced round: spans and counts at layer boundaries, from outside.

Nothing under ``src/`` is instrumented. A :class:`Recorder` shadows the
public callables reachable from the backend object — pipeline stages, the
learner, the admission gate, the backend's own entry points, and (for the
process pool) ``Channel.send``/``Channel.recv`` in the router process —
with timing wrappers, keeps a call stack so a layer's *self* time is its
span minus its children, and aggregates the per-follower stage calls into
one span per (request, stage). Where stages sit behind a router or in a
worker process the backend's public ``tracer=`` argument carries a
``RecordingTracer`` and ``stage_report_by_shard()`` is read instead.

Every ``*_s`` layer metric is self time over the measured part of the
traced round, and the on-path ones plus ``unattributed_s`` add back to
the traced wall (``Round.layer_budget``). Worker-side stage seconds on
``procpool`` run in parallel with the router and are off that path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from time import perf_counter

from repro.cluster.rpc import Channel
from repro.obs.tracer import RecordingTracer

#: Top-level operations: each call is one request and one recorded span.
#: The posting entry point is ``post`` or ``post_batch``, whichever the
#: harness drives on that backend.
_OPERATIONS = {
    "checkin": "geo.checkin",
    "record_click": "ads.click",
    "launch_campaign": "ads.launch",
    "end_campaign": "ads.end",
}
_SHARD_STAGES = ("vectorize", "candidate", "personalize", "charge", "feedback", "delivery")

#: The ``*_s`` metrics on the measuring process's own path, per backend:
#: with ``unattributed_s`` they add back to the traced wall. The process
#: pool's stage seconds are spent in the workers, in parallel, off it.
_OPERATIONS_S = ("ads.click_s", "ads.launch_s", "ads.end_s", "geo.checkin_s")
_STAGES_S = (
    "text.vectorize_s", "index.candidate_s", "rerank.personalize_s",
    "ads.charge_s", "ads.feedback_s", "engine.self_s",
)
_ON_PATH = {
    "single": _STAGES_S + ("learn.rerank_s", "learn.sync_s", "qos.admit_s") + _OPERATIONS_S,
    "sharded": _STAGES_S + ("router.self_s",) + _OPERATIONS_S,
    "procpool": ("text.vectorize_s", "router.self_s", "rpc.send_s", "rpc.recv_s")
    + _OPERATIONS_S,
}


def shard_tracer(spec):
    """Routers keep their stage objects out of reach; their public
    ``tracer=`` argument is the boundary there."""
    return RecordingTracer() if spec.routed else None


class Recorder:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.children: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, seconds spent in children]
        self._open: dict[str, list] = {}  # name -> [parent, start, end, busy, n]
        self._patched: list[tuple] = []
        self._rpc = {"frames": 0, "sent": 0, "received": 0}
        self._origin = 0.0
        self._request_span = 0  # index of the last request's span
        self._stats_before = None
        self._stages_before: list[dict] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, call, request_of=None):
        stack = self._stack

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                self._close(name, started, ended, frame[1])
            if request_of is not None:
                self.spans[self._request_span]["request"] = request_of(result)
            return result

        return timed

    def _close(self, name: str, started: float, ended: float, in_children: float) -> None:
        elapsed = ended - started
        self.busy[name] += elapsed
        self.children[name] += in_children
        self.calls[name] += 1
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            entry = self._open.get(name)
            if entry is None:
                self._open[name] = [parent[0], started, ended, elapsed, 1]
            else:
                entry[2] = ended
                entry[3] += elapsed
                entry[4] += 1
            return
        # A request ended: one span for it, one per stage underneath it
        # (by first start, so a span always follows the one that caused it).
        spans = self.spans
        self._request_span = root = len(spans)
        spans.append(self._span(name, None, started, ended, elapsed, 1))
        stages = sorted(self._open.items(), key=lambda item: item[1][1])
        index_of = {name: root}
        for offset, (child, _) in enumerate(stages, start=1):
            index_of[child] = root + offset
        for child, (parent, first, last, busy, count) in stages:
            spans.append(self._span(child, index_of[parent], first, last, busy, count))
        self._open.clear()

    def _span(self, name, parent, started, ended, busy, count) -> dict:
        return {
            "name": name,
            "parent": parent,
            "request": None,
            "start_s": started - self._origin,
            "end_s": ended - self._origin,
            "busy_s": busy,
            "calls": count,
        }

    def _patch(
        self, owner, attribute: str, name: str, *, request_of=None, counter=None
    ) -> None:
        original = getattr(owner, attribute)
        # A class attribute is restored by re-setting it, an instance
        # shadow by deleting it.
        self._patched.append(
            (owner, attribute, original if isinstance(owner, type) else None)
        )
        timed = self._wrap(name, original, request_of)
        if counter is not None:
            timed = self._count_frames(timed, *counter)
        setattr(owner, attribute, timed)

    def _count_frames(self, timed, attribute: str, key: str):
        """Read the channel's own byte counter around one timed frame."""
        rpc = self._rpc

        def counted(channel, *args):
            before = getattr(channel, attribute)
            result = timed(channel, *args)
            rpc["frames"] += 1
            rpc[key] += getattr(channel, attribute) - before
            return result

        return counted

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    def instrument(self, backend, spec) -> None:
        self._patch(
            backend,
            "post_batch" if spec.routed else "post",
            "engine.post",
            request_of=_first_msg_id,
        )
        for attribute, name in _OPERATIONS.items():
            self._patch(backend, attribute, name)
        if spec.backend == "procpool":
            # Patched after the workers forked, so only the router's ends
            # are timed.
            self._patch(Channel, "send", "rpc.send", counter=("bytes_sent", "sent"))
            self._patch(
                Channel, "recv", "rpc.recv", counter=("bytes_received", "received")
            )
        if spec.routed:
            return
        pipeline = backend.pipeline
        self._patch(pipeline.vectorize_stage, "vectorize", "text.vectorize")
        self._patch(pipeline.candidate_stage, "candidates_for", "index.candidate")
        stage = pipeline.personalize_stage
        self._patch(stage, "personalize", "rerank.personalize")
        if hasattr(stage, "personalize_batch"):
            self._patch(stage, "personalize_batch", "rerank.personalize_batch")
        self._patch(pipeline.charge_stage, "charge", "ads.charge")
        self._patch(pipeline.feedback_stage, "observe_impressions", "ads.feedback")
        learner = backend.services.learner
        if learner is not None:
            self._patch(learner, "rerank", "learn.rerank")
            self._patch(learner, "observe_slate", "learn.rerank")
            # apply_sync runs once per folded epoch (maybe_sync calls it).
            self._patch(learner, "apply_sync", "learn.sync")
        if backend.qos is not None:
            self._patch(backend.qos, "admit", "qos.admit")

    # -- the measured window ---------------------------------------------------

    def begin(self, backend, spec) -> None:
        """Forget the warm-up: counters restart at the measured part."""
        self._stats_before = replace(
            backend.cluster_stats() if spec.routed else backend.stats
        )
        self._stages_before = _shard_stages(backend) if spec.routed else []
        # Cleared last: on the process pool the two reads above are RPCs.
        for table in (self.busy, self.children, self.calls, self._open):
            table.clear()
        self.spans.clear()
        for key in self._rpc:
            self._rpc[key] = 0
        self._origin = perf_counter()

    def self_seconds(self, name: str) -> float:
        return self.busy[name] - self.children[name]

    def finish(self, backend, spec, round_) -> None:
        """Fill ``round_.layer_metrics`` / ``layer_budget`` / ``spans``."""
        self.restore()  # the reads below must not be timed as requests
        stats = backend.cluster_stats() if spec.routed else backend.stats
        before = self._stats_before
        delta = lambda field: getattr(stats, field) - getattr(before, field)
        deliveries = delta("deliveries")
        m: dict[str, float] = defaultdict(float)
        if spec.routed:
            self._routed_stages(backend, spec, m, deliveries)
        else:
            self._pipeline_stages(m)
        for name in ("ads.click", "ads.launch", "ads.end", "geo.checkin"):
            m[f"{name}_s"] = self.self_seconds(name)
            m[f"{name}_n"] = self.calls[name]
        m["engine.post_s"] = self.busy["engine.post"]
        m["rerank.personalize_n"] = deliveries
        m["index.probe_depth_mean"] = (
            delta("probe_depth_total") / max(delta("shared_probes"), 1)
        )
        m["rerank.certified_ratio"] = delta("certified_deliveries") / deliveries
        m["rerank.fallback_ratio"] = delta("fallback_deliveries") / deliveries
        m["ads.retired_n"] = delta("retired_ads")
        m["qos.shed_n"] = delta("deliveries_shed")
        if spec.adversarial:
            m["qos.attempted_n"] = deliveries + m["qos.shed_n"]
        on_path = {name: m[name] for name in _ON_PATH[spec.backend]}
        m["unattributed_s"] = on_path["unattributed_s"] = round_.wall_s - sum(
            on_path.values()
        )
        m["unattributed_share"] = m["unattributed_s"] / round_.wall_s
        round_.layer_metrics = dict(m)
        round_.layer_budget = on_path
        round_.spans = list(self.spans)

    def _pipeline_stages(self, m: dict) -> None:
        """Single engine: every stage was wrapped directly."""
        for name in ("text.vectorize", "index.candidate", "ads.charge"):
            m[f"{name}_s"] = self.self_seconds(name)
            m[f"{name}_n"] = self.calls[name]
        m["rerank.personalize_s"] = self.self_seconds(
            "rerank.personalize"
        ) + self.self_seconds("rerank.personalize_batch")
        m["rerank.batch_calls_n"] = self.calls["rerank.personalize_batch"]
        m["ads.feedback_s"] = self.self_seconds("ads.feedback")
        m["learn.rerank_s"] = self.self_seconds("learn.rerank")
        m["learn.sync_s"] = self.self_seconds("learn.sync")
        m["learn.sync_n"] = self.calls["learn.sync"]
        m["qos.admit_s"] = self.self_seconds("qos.admit")
        m["engine.self_s"] = self.self_seconds("engine.post")

    def _routed_stages(self, backend, spec, m: dict, deliveries: int) -> None:
        """Routers: stage seconds come from the shards' stage tracers."""
        shards = _stage_deltas(_shard_stages(backend), self._stages_before)
        total = lambda stage: sum(shard[stage][0] for shard in shards)
        spans = lambda stage: sum(shard[stage][1] for shard in shards)
        m["text.vectorize_s"], m["text.vectorize_n"] = total("vectorize"), spans("vectorize")
        m["index.candidate_s"], m["index.candidate_n"] = total("candidate"), spans("candidate")
        m["rerank.personalize_s"] = total("personalize")
        m["ads.charge_s"], m["ads.charge_n"] = total("charge"), spans("charge")
        m["ads.feedback_s"] = total("feedback")
        # The fan-out loop around the three per-follower stages.
        m["engine.self_s"] = total("delivery") - (
            total("personalize") + total("charge") + total("feedback")
        )
        busy = [shard["candidate"][0] + shard["delivery"][0] for shard in shards]
        m["router.shard_busy_max_s"] = max(busy)
        m["router.shard_busy_sum_s"] = sum(busy)
        m["router.amplification"] = backend.amplification()
        m["router.load_imbalance"] = backend.load_imbalance()
        # Vectorize runs at the router on both backends (its spans are
        # booked on shard 0's tracer).
        m["router.self_s"] = self.self_seconds("engine.post") - total("vectorize")
        if spec.backend == "sharded":
            # Shards run inside the router call: what is left is routing
            # plus each shard engine's ingest and result assembly.
            m["router.self_s"] -= sum(busy)
            return
        rpc = self._rpc
        m["rpc.send_s"] = self.self_seconds("rpc.send")
        m["rpc.recv_s"] = self.self_seconds("rpc.recv")
        m["rpc.frames_n"] = rpc["frames"]
        m["rpc.bytes_sent"] = rpc["sent"]
        m["rpc.bytes_received"] = rpc["received"]
        m["rpc.bytes_per_delivery"] = (rpc["sent"] + rpc["received"]) / deliveries
        m["rpc.gap_s"] = m["rpc.recv_s"] - m["router.shard_busy_max_s"]


def _first_msg_id(result):
    """The request id of a post span: the (first) message it carried."""
    while isinstance(result, list):
        if not result:
            return None
        result = result[0]
    return result.msg_id


def _shard_stages(backend) -> list[dict]:
    """Per shard: stage -> (total seconds, spans)."""
    return [
        {
            stage: (report[stage].total_seconds, report[stage].spans)
            if stage in report
            else (0.0, 0)
            for stage in _SHARD_STAGES
        }
        for report in backend.stage_report_by_shard()
    ]


def _stage_deltas(after: list[dict], before: list[dict]) -> list[dict]:
    return [
        {
            stage: (
                shard[stage][0] - earlier[stage][0],
                shard[stage][1] - earlier[stage][1],
            )
            for stage in _SHARD_STAGES
        }
        for shard, earlier in zip(after, before)
    ]

"""Rounds: one fresh-backend, closed-loop, single-client replay each.

A round constructs the backend, replays the warm-up prefix (together:
``setup_s``), collects garbage, then replays the measured part with the
clocks on. Between backend calls the :class:`Meter` runs the machine-speed
probe (:mod:`probe`) for a tenth of the time it has driven, outside every
interval it books, and each phase's times are scaled by the speed its
probes read. Replays are deterministic, so post *i* does identical work
in every round: the end-to-end metrics are medians over the rounds, and
the latency percentiles rank each post's median across the rounds.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter, process_time

from repro.scenarios import ScenarioDriver

import layers
import probe
from workloads import ROUTER_BATCH, Inputs, build_backend

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Probe seconds per second driven. The probes sample the machine's speed
#: at the grain of single backend calls; a tenth of the run is what it
#: took for the scaled wall of a round to repeat within 5 %.
PROBE_SHARE = 0.10


@dataclass
class Round:
    """What one replay produced. Seconds are as measured; ``speed`` and
    ``setup_speed`` (mean probe seconds over ``probe.NOMINAL_S``, so > 1 on
    a slow machine) are what :func:`end_to_end` divides them by. Timings
    other than ``setup_s`` cover the measured part only."""

    setup_s: float = 0.0
    setup_speed: float = 1.0
    wall_s: float = 0.0
    speed: float = 1.0
    deliveries: int = 0  # measured part
    # One entry per backend call (a post, or a router batch): wall seconds
    # from the previous call's return (or the end of the probes run after
    # it) to this one's, so they sum to wall_s and carry the check-ins,
    # clicks and harness work in between.
    intervals: list[float] = field(default_factory=list)
    cpu_intervals: list[float] = field(default_factory=list)  # this process
    worker_cpu_s: float = 0.0  # worker processes, whole measured part
    latencies: list[float] = field(default_factory=list)  # per measured post
    # (msg_id, [PostResult, ...]) for every post, warm-up included.
    results: list = field(default_factory=list)
    operations: int = 0
    stats: object = None  # EngineStats at the end of the round
    ledger: dict = field(default_factory=dict)
    layer_metrics: dict = field(default_factory=dict)
    layer_budget: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _worker_pids(backend) -> list[int]:
    if not hasattr(backend, "worker_pid"):
        return []
    return [backend.worker_pid(shard) for shard in range(backend.num_shards)]


def _worker_cpu_seconds(pids: list[int]) -> float:
    """User+sys CPU of live workers (``RUSAGE_CHILDREN`` only counts
    reaped children, so they are read from /proc, in 10 ms ticks)."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields after the parenthesised command name; utime and stime
            # are the 14th and 15th of the full line.
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


class Meter:
    """Per-call bookkeeping shared by both drive loops.

    A phase (set-up, then the measured part) runs from :meth:`begin` to
    :meth:`end`. Each backend call closes a *lap*: the time since the
    previous lap is booked (as an interval, when measuring), the probes it
    earned are run, and the clocks restart after them — so no interval,
    and neither phase's seconds, contain a probe.
    """

    def __init__(self, round_: Round) -> None:
        self.round = round_
        self.measuring = False
        self.mark = self.mark_cpu = 0.0
        self.driven_s = self.probe_s = 0.0
        self.probes = 0

    def begin(self, measuring: bool) -> None:
        self.measuring = measuring
        self.driven_s = self.probe_s = 0.0
        self.probes = 0
        self.mark_cpu = process_time()
        self.mark = perf_counter()

    def lap(self) -> None:
        now, cpu = perf_counter(), process_time()
        self.driven_s += now - self.mark
        if self.measuring:
            self.round.intervals.append(now - self.mark)
            self.round.cpu_intervals.append(cpu - self.mark_cpu)
        if self.probe_s < PROBE_SHARE * self.driven_s:
            while self.probe_s < PROBE_SHARE * self.driven_s:
                self.probe_s += probe.run()
                self.probes += 1
            now, cpu = perf_counter(), process_time()
        self.mark, self.mark_cpu = now, cpu

    def end(self) -> tuple[float, float]:
        """Close the phase: (seconds driven, machine speed while driving)."""
        self.lap()
        return self.driven_s, self.probe_s / self.probes / probe.NOMINAL_S

    def posted(self, msg_ids, results, latency: float) -> None:
        """``results[i]`` is the list of PostResults for ``msg_ids[i]``."""
        round_ = self.round
        round_.results.extend(zip(msg_ids, results))
        self.lap()
        if not self.measuring:
            return
        for parts in results:
            round_.latencies.append(latency)
            round_.deliveries += sum(part.num_deliveries for part in parts)


def drive_stream(backend, posts, posted, routed: bool) -> None:
    """The harness's own loop over a stream of posts: ``post`` per post on
    the single engine, ``post_batch`` of ``ROUTER_BATCH`` on the routers.
    ``posted(msg_ids, results, seconds)`` takes each call's outcome."""
    if routed:
        for start in range(0, len(posts), ROUTER_BATCH):
            batch = posts[start : start + ROUTER_BATCH]
            started = perf_counter()
            results = backend.post_batch(batch)
            latency = perf_counter() - started
            posted([post.msg_id for post in batch], results, latency)
        return
    for post in posts:
        started = perf_counter()
        result = backend.post(
            post.author_id, post.text, post.timestamp, msg_id=post.msg_id
        )
        posted([post.msg_id], [[result]], perf_counter() - started)


def _drive_scenario(driver: ScenarioDriver, events, meter: Meter) -> None:
    """``ScenarioDriver`` resolves click intents against served slates and
    times each post itself; the hook only reads its clock."""
    driver.on_result = lambda _scripted_id, results: meter.posted(
        [results[0].msg_id], [results], driver.post_latencies[-1]
    )
    driver.run(events)


def run_round(inputs: Inputs, *, traced: bool = False) -> Round:
    """One fresh-backend replay. ``traced`` wraps the layer boundaries
    (see :mod:`layers`) and fills the round's layer metrics and spans."""
    spec = inputs.spec
    round_ = Round(operations=len(inputs.events))
    meter = Meter(round_)
    warm = inputs.events[: inputs.warm_events]
    measured = inputs.events[inputs.warm_events :]
    recorder = layers.Recorder() if traced else None

    meter.begin(measuring=False)
    backend = build_backend(
        inputs, tracer=layers.shard_tracer(spec) if traced else None
    )
    try:
        if traced:
            recorder.instrument(backend, spec)
        if spec.adversarial:
            driver = ScenarioDriver(backend, inputs.workload)
            drive = lambda events: _drive_scenario(driver, events, meter)
        else:
            drive = lambda events: drive_stream(backend, events, meter.posted, spec.routed)
        drive(warm)
        round_.setup_s, round_.setup_speed = meter.end()
        gc.collect()
        pids = _worker_pids(backend)
        if traced:
            recorder.begin(backend, spec)
        workers_started = _worker_cpu_seconds(pids)
        meter.begin(measuring=True)
        drive(measured)
        # The tail after the last post (late clicks, check-ins) is an
        # interval too, so intervals add up to the measured wall.
        round_.wall_s, round_.speed = meter.end()
        round_.worker_cpu_s = _worker_cpu_seconds(pids) - workers_started
        if traced:
            recorder.finish(backend, spec, round_)
        round_.stats = replace(
            backend.cluster_stats() if spec.routed else backend.stats
        )
        if not spec.routed:
            round_.ledger = _ledger(backend)
    finally:
        if traced:
            recorder.restore()
        if hasattr(backend, "close"):
            backend.close()
    return round_


def _ledger(engine) -> dict:
    """The single engine's money and admission books, for the checks."""
    budget = engine.budget
    overspent = []
    for ad in engine.corpus.all_ads():
        state = budget.state(ad.ad_id)
        if state is not None and state.spent > state.budget + 1e-9:
            overspent.append(ad.ad_id)
    admission = engine.qos.admission if engine.qos is not None else None
    return {
        "spend": budget.total_spend(),
        "overspent": overspent,
        "admission": (
            (admission.attempted, admission.admitted, admission.shed)
            if admission is not None
            else None
        ),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    kilobytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kilobytes / 1024.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``share``
    of the sample at or below it (so p99 of 1,000 has 10 samples beyond)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(rounds: list[Round]) -> dict[str, dict]:
    """The end-to-end metrics of a set of untraced rounds of one stream.

    Each metric carries its reported ``value`` (at probe speed, see
    :mod:`probe`), the per-round ``raw`` values as the clocks read them,
    and the post ``samples`` behind it.
    """
    deliveries = rounds[0].deliveries
    posts = len(rounds[0].latencies)
    median = statistics.median
    # Post i's latency: its median across the rounds, each at probe speed.
    latencies = [
        median(seconds / round_.speed for seconds, round_ in zip(column, rounds))
        for column in zip(*(round_.latencies for round_ in rounds))
    ]
    cpu_s = [sum(r.cpu_intervals) + r.worker_cpu_s for r in rounds]

    def metric(value, unit, raw, samples):
        return {"value": value, "unit": unit, "raw": raw, "samples": samples}

    return {
        "deliveries_per_s": metric(
            median(deliveries * r.speed / r.wall_s for r in rounds),
            "deliveries/s",
            [deliveries / r.wall_s for r in rounds],
            deliveries,
        ),
        "post_p50_ms": metric(
            percentile(latencies, 0.50) * 1e3,
            "ms",
            [percentile(r.latencies, 0.50) * 1e3 for r in rounds],
            posts,
        ),
        "post_p99_ms": metric(
            percentile(latencies, 0.99) * 1e3,
            "ms",
            [percentile(r.latencies, 0.99) * 1e3 for r in rounds],
            posts,
        ),
        "cpu_ms_per_delivery": metric(
            median(cpu / r.speed for cpu, r in zip(cpu_s, rounds)) / deliveries * 1e3,
            "ms",
            [cpu / deliveries * 1e3 for cpu in cpu_s],
            deliveries,
        ),
        "setup_s": metric(
            median(r.setup_s / r.setup_speed for r in rounds),
            "s",
            [r.setup_s for r in rounds],
            len(rounds),
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", [], 1),
    }

"""T4 — live windowed telemetry over a bursty stream, with SLO grading.

T3 answers "where does the time go over the whole run"; T4 answers the
live question: what are the per-stage tail latencies *right now*, over a
trailing window of stream time, sampled every interval. The default
workload's posts are scripted into dense bursts separated by quiet gaps
— the shape that exercises window expiry (quiet intervals drain the
window) and the shape a real feed spike takes — and replayed through
:class:`~repro.scenarios.driver.ScenarioDriver` with a
:class:`~repro.obs.registry.MetricsRegistry` attached, a
:class:`~repro.obs.health.HealthMonitor` grading every interval, and a
:class:`~repro.obs.prometheus.TimeseriesWriter` appending one JSON line
per interval to ``benchmarks/results/t4_live_timeseries.jsonl``.

Expected shape: every burst interval carries a live stage_delivery p99;
the timeseries has at least 10 interval snapshots plus one summary line
carrying the run's SLO-compliance story.
"""

from __future__ import annotations

from conftest import RESULTS_DIR, save_table
from helpers import NUM_BURSTS, bursty_posts, engine_config_for
from repro.core.recommender import ContextAwareRecommender
from repro.eval.report import ascii_table
from repro.obs import (
    HealthMonitor,
    MetricsRegistry,
    SloSpec,
    TimeseriesWriter,
    read_timeseries_jsonl,
)
from repro.scenarios import ScenarioDriver

#: Runs in the tier-1 smoke driver at miniature scale.
SMOKE_MINI = True

LIMIT = 180
INTERVAL_S = 600.0  # sample twice per burst cycle
# A window reads the five of its six buckets behind ``now``: 6/5 of an
# interval is the narrowest one whose tick sees every sample of the
# interval it closes. Still far shorter than a quiet gap, so gaps drain it.
WINDOW_S = INTERVAL_S * 6 / 5


def test_t4_live_timeseries(benchmark, default_workload):
    posts = bursty_posts(default_workload, LIMIT)
    jsonl = RESULTS_DIR / "t4_live_timeseries.jsonl"
    RESULTS_DIR.mkdir(exist_ok=True)
    jsonl.unlink(missing_ok=True)

    registry = MetricsRegistry(window_s=WINDOW_S)
    monitor = HealthMonitor(
        registry,
        SloSpec(stage_p99_ms={"delivery": 50.0}, min_deliveries_per_s=0.0),
    )
    writer = TimeseriesWriter(jsonl)
    recommender = ContextAwareRecommender.from_workload(
        default_workload, engine_config_for("car-shared"), metrics=registry
    )
    driver = ScenarioDriver(recommender.engine, default_workload)

    def on_interval(now: float, wall_seconds: float) -> None:
        snapshot = registry.snapshot(now)
        report = monitor.evaluate(now, wall_seconds=wall_seconds)
        writer.append(snapshot, health=report)

    totals = benchmark.pedantic(
        lambda: driver.run(posts, interval_s=INTERVAL_S, on_interval=on_interval),
        rounds=1,
        iterations=1,
    )
    writer.append_summary(monitor.summary())

    rows = read_timeseries_jsonl(jsonl)
    intervals = [row for row in rows if row["label"] == "interval"]
    summaries = [row for row in rows if row["label"] == "summary"]
    assert len(intervals) >= 10, "need a timeseries, not a point"
    assert len(summaries) == 1

    # Counters reconcile with the stream-level run counters.
    final = intervals[-1]
    assert final["counters"]["posts"] == totals.posts == len(posts)
    assert final["counters"]["deliveries"] == totals.deliveries
    # Burst intervals carry a live windowed p99 for the delivery stage;
    # quiet intervals drain the window down to empty.
    live_counts = [
        row["windows"].get("stage_delivery", {}).get("count", 0)
        for row in intervals
    ]
    assert max(live_counts) > 0
    assert min(live_counts) == 0, "quiet gaps should drain the window"
    verdict = summaries[0]["verdict"]
    assert verdict in {"ok", "degraded", "overloaded"}
    benchmark.extra_info["verdict"] = verdict
    benchmark.extra_info["intervals"] = len(intervals)

    table_rows = [
        [
            f"{row['at']:.0f}",
            int(row["counters"].get("posts", 0)),
            int(row["counters"].get("deliveries", 0)),
            row["windows"].get("stage_delivery", {}).get("count", 0),
            round(
                row["windows"].get("stage_delivery", {}).get("p99", 0.0) * 1e3, 3
            ),
            row["health"]["state"],
        ]
        for row in intervals
    ]
    save_table(
        "t4_live_timeseries",
        ascii_table(
            ["t (s)", "posts", "deliveries", "win n", "win p99 (ms)", "state"],
            table_rows,
            title=(
                f"T4: live windowed telemetry — bursty stream "
                f"({LIMIT} posts, {NUM_BURSTS} bursts, "
                f"window {WINDOW_S:.0f}s, verdict {verdict.upper()})"
            ),
        ),
    )

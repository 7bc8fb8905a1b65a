"""T3 — per-stage latency breakdown of the delivery pipeline, per mode.

The headline throughput/latency numbers (F3–F7) measure the pipeline end
to end; this table shows *where* the time goes — vectorize, candidate
probe, personalize fan-out, charge, feedback — for each engine mode, via
the observability layer (``repro.obs``). Results land both as a monospace
table and as a JSON-line file for downstream tooling.

Expected shape: personalize dominates everywhere; the shared modes pay
one candidate probe per post while EXACT pays nothing there and much more
per delivery; charge/feedback are noise-level. ``car-vector`` runs the
same shared pipeline on the compact numpy kernels — its probe stage also
shows up under the kind-attributed span ``candidate[vector]``, so the
table attributes probe time to the searcher that spent it.
"""

from __future__ import annotations

import pytest

from conftest import RESULTS_DIR, save_table
from helpers import engine_config_for, replay
from repro.core.recommender import ContextAwareRecommender
from repro.obs import RecordingTracer, stage_table, write_stage_jsonl

#: Runs in the tier-1 smoke driver at miniature scale.
SMOKE_MINI = True

METHODS = ["car-shared", "car-vector", "car-incremental", "per-delivery-probe"]
LIMIT = 120

_tables: dict[str, str] = {}
_snapshots: dict[str, dict] = {}


@pytest.mark.parametrize("method", METHODS)
def test_t3_stage_breakdown(benchmark, method, default_workload):
    tracer = RecordingTracer()
    config = engine_config_for(method)

    totals, _ = benchmark.pedantic(
        lambda: replay(
            ContextAwareRecommender.from_workload(
                default_workload, config, tracer=tracer
            ),
            default_workload,
            LIMIT,
        ),
        rounds=1,
        iterations=1,
    )

    stages = tracer.snapshot()
    # the traced run must reconcile span counts with the stream counters
    assert stages["vectorize"].spans == totals.posts
    assert stages["candidate"].spans == totals.posts
    for per_delivery in ("personalize", "charge", "feedback", "delivery"):
        assert stages[per_delivery].spans == totals.deliveries
    if method in ("car-shared", "car-vector"):
        # the probe stage twins its spans under a searcher-attributed name
        kind = "vector" if method == "car-vector" else "ta"
        assert stages[f"candidate[{kind}]"].spans == totals.posts
    benchmark.extra_info["personalize_p99_ms"] = stages["personalize"].p99_ms

    _tables[method] = stage_table(
        stages, title=f"T3: per-stage latency — {method} ({LIMIT} posts)"
    )
    _snapshots[method] = stages

    if len(_tables) == len(METHODS):
        save_table(
            "t3_stage_breakdown",
            "\n\n".join(_tables[m] for m in METHODS),
        )
        jsonl = RESULTS_DIR / "t3_stage_breakdown.jsonl"
        jsonl.unlink(missing_ok=True)
        for m in METHODS:
            write_stage_jsonl(_snapshots[m], jsonl, label=m)
        # the fan-out stage dominates the candidate probe in every mode
        for m in METHODS:
            snap = _snapshots[m]
            assert (
                snap["personalize"].total_seconds >= snap["charge"].total_seconds
            )

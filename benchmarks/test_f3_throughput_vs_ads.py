"""F3 — delivery throughput vs. corpus size, all methods.

The headline efficiency figure: how fast each method turns feed deliveries
into ad slates as the ad corpus grows. Expected shape: the vectorized
shared-candidate engine (``car-vector``) dominates everything; the
pure-Python shared engine beats the per-delivery probe, which beats the
full scan; the gaps widen with corpus size.

Besides the monospace table, the run writes ``BENCH_f3_throughput.json``
at the repo root — the perf-trajectory file ``scripts/
check_bench_regression.py`` gates CI against (the committed copy is the
baseline; a fresh run must not lose more than 20% of the vector/default
speedup).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import pytest

from conftest import save_table, workload_with
from helpers import (
    build_recommender,
    engine_config_for,
    replay,
    run_fullscan_baseline,
)
from repro.eval.report import ascii_table

# Spans the crossover: below ~2k ads a single cheap probe per delivery
# wins; above it the shared-candidate path pulls away.
AD_COUNTS = [500, 2000, 4000, 8000]
METHODS = [
    "car-shared",
    "car-vector",
    "car-approx",
    "per-delivery-probe",
    "full-scan",
]
LIMIT = 80

# The perf-trajectory gate: at the largest corpus the vector hot path must
# hold this multiple of the default (TA) shared engine's throughput.
GATE_AD_COUNT = AD_COUNTS[-1]
MIN_VECTOR_SPEEDUP = 5.0
GATE_ROUNDS = 5
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_f3_throughput.json"

_series: dict[tuple[str, int], float] = {}


@pytest.mark.parametrize("num_ads", AD_COUNTS)
@pytest.mark.parametrize("method", METHODS)
def test_f3_throughput(benchmark, method, num_ads):
    workload = workload_with(num_ads=num_ads)

    if method == "full-scan":
        # Scanning 4000 ads per delivery is slow; cap the replay length so
        # the baseline finishes, and normalise to deliveries/second.
        limit = 20 if num_ads >= 2000 else 40
        result = benchmark.pedantic(
            lambda: run_fullscan_baseline(workload, limit), rounds=1, iterations=1
        )
        deliveries = result
    else:
        # Engines are built outside the timed region: F3 reports
        # steady-state delivery throughput, and index/mirror build cost
        # is measured separately (T13) — folding a one-time build into an
        # 80-post replay would bias every indexed method.
        recommender = build_recommender(workload, engine_config_for(method))
        totals, _ = benchmark.pedantic(
            lambda: replay(recommender, workload, LIMIT),
            rounds=1,
            iterations=1,
        )
        deliveries = totals.deliveries

    best_seconds = benchmark.stats.stats.min
    dps = deliveries / best_seconds if best_seconds > 0 else 0.0
    benchmark.extra_info["deliveries_per_s"] = dps
    _series[(method, num_ads)] = dps
    assert deliveries > 0


def test_f3_vector_gate(benchmark):
    """The speedup gate, measured as an interleaved A/B at the gate point.

    The sweep above measures its points minutes apart, so slow drift in
    background load can skew any ratio taken between two sweep cells. Here
    each round runs car-shared and car-vector back-to-back on the same
    workload, and each side is summarised by its best round — a single
    descheduled round inflates a mean arbitrarily, while the minimum
    converges on the undisturbed cost. These estimates replace the two
    sweep cells at the gate point before the table/JSON are written.

    Runs last in the file (pytest preserves definition order), so the
    full-sweep guard below sees every series cell when the whole suite
    runs, and the smoke driver (one sweep point only) still exercises the
    measurement code without tripping cross-sweep assertions.
    """
    workload = workload_with(num_ads=GATE_AD_COUNT)
    configs = {
        method: engine_config_for(method)
        for method in ("car-shared", "car-vector")
    }
    times: dict[str, list[float]] = {method: [] for method in configs}

    def run_pair():
        deliveries = 0
        for method, config in configs.items():
            # Fresh engine per round (replayed engines mutate profiles and
            # feed contexts), built outside the timed window like the
            # sweep above.
            recommender = build_recommender(workload, config)
            started = perf_counter()
            totals, _ = replay(recommender, workload, LIMIT)
            times[method].append(perf_counter() - started)
            deliveries = totals.deliveries
        return deliveries

    deliveries = benchmark.pedantic(run_pair, rounds=GATE_ROUNDS, iterations=1)
    assert deliveries > 0
    for method, samples in times.items():
        _series[(method, GATE_AD_COUNT)] = deliveries / min(samples)
    speedup = vector_speedups(_series)[GATE_AD_COUNT]
    benchmark.extra_info["vector_speedup"] = speedup

    if len(_series) == len(AD_COUNTS) * len(METHODS):
        _write_table()
        write_bench_json(_series, BENCH_FILE)
        # The tentpole claim: the compact numpy hot path multiplies the
        # ``ta`` reference engine's delivery throughput at the largest corpus.
        assert speedup >= MIN_VECTOR_SPEEDUP, (
            f"vector speedup at {GATE_AD_COUNT} ads regressed to "
            f"{speedup:.2f}x (floor {MIN_VECTOR_SPEEDUP}x)"
        )


def vector_speedups(series: dict[tuple[str, int], float]) -> dict[int, float]:
    """Per-corpus-size vector/``ta`` throughput ratio (machine-relative,
    so trajectories compare across hosts)."""
    return {
        num_ads: series[("car-vector", num_ads)] / series[("car-shared", num_ads)]
        for num_ads in AD_COUNTS
        if series.get(("car-shared", num_ads), 0.0) > 0
        and ("car-vector", num_ads) in series
    }


def write_bench_json(series: dict[tuple[str, int], float], path: Path) -> None:
    """Persist the perf-trajectory file the CI regression gate consumes."""
    payload = {
        "benchmark": "f3_throughput_vs_ads",
        "unit": "deliveries_per_s",
        "ad_counts": AD_COUNTS,
        "series": {
            method: {
                str(num_ads): round(series[(method, num_ads)], 1)
                for num_ads in AD_COUNTS
            }
            for method in METHODS
        },
        "vector_speedup": {
            str(num_ads): round(ratio, 3)
            for num_ads, ratio in vector_speedups(series).items()
        },
        "gate": {
            "metric": "vector_speedup",
            "at": GATE_AD_COUNT,
            "min_speedup": MIN_VECTOR_SPEEDUP,
            "max_relative_loss": 0.2,
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_table():
    rows = []
    for num_ads in AD_COUNTS:
        rows.append(
            [num_ads] + [round(_series[(method, num_ads)], 1) for method in METHODS]
        )
    table = ascii_table(
        ["ads"] + METHODS,
        rows,
        title="F3: delivery throughput (deliveries/s) vs corpus size",
    )
    save_table("f3_throughput_vs_ads", table)
    # Shape assertions: indexed methods beat the scan at every size, and
    # the approximate shared path beats the per-delivery exact probe at the
    # largest corpus.
    for num_ads in AD_COUNTS:
        assert _series[("car-approx", num_ads)] > _series[("full-scan", num_ads)]
    largest = AD_COUNTS[-1]
    assert (
        _series[("car-approx", largest)] > _series[("per-delivery-probe", largest)]
    )

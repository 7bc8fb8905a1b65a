"""F4 — per-post latency vs. slate size k (shared mode).

Expected shape: median latency grows mildly with k (deeper heaps, larger
certificate bound → more fallbacks), with p99 dominated by high-fan-out
posts.
"""

from __future__ import annotations

import pytest

from conftest import save_table
from helpers import engine_config_for, run_engine_config
from repro.eval.report import ascii_table

KS = [1, 5, 10, 20, 50]
LIMIT = 80

_series: dict[int, tuple[float, float, float]] = {}


@pytest.mark.parametrize("k", KS)
def test_f4_latency(benchmark, k, default_workload):
    config = engine_config_for("car-shared", k=k, overfetch=max(40, 2 * k))

    result = benchmark.pedantic(
        lambda: run_engine_config(default_workload, config, LIMIT),
        rounds=1,
        iterations=1,
    )
    _, latency, stats = result
    p50 = latency.p50() * 1e3
    p99 = latency.p99() * 1e3
    benchmark.extra_info["post_p50_ms"] = p50
    benchmark.extra_info["post_p99_ms"] = p99
    _series[k] = (p50, p99, stats.fallback_rate())

    if len(_series) == len(KS):
        table = ascii_table(
            ["k", "post p50 (ms)", "post p99 (ms)", "fallback rate"],
            [[k, *(round(v, 3) for v in _series[k])] for k in KS],
            title="F4: per-post latency vs slate size k (car-shared)",
        )
        save_table("f4_latency_vs_k", table)
        assert _series[KS[0]][0] <= _series[KS[-1]][0] * 1.5  # no blow-up at k=1

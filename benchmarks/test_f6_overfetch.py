"""F6 — candidate over-fetch depth K': fallback rate vs. cost.

The knob trading shared-path work against exact-probe fallbacks. Expected
shape: fallback rate decreases monotonically as the candidate sources get
deeper; throughput peaks at an interior depth (shallow = constant
fallbacks, very deep = wasted per-delivery scoring).
"""

from __future__ import annotations

import pytest

from conftest import save_table
from helpers import engine_config_for, run_engine_config
from repro.eval.report import ascii_table

DEPTHS = [10, 40, 80, 160]
LIMIT = 60

_series: dict[int, tuple[float, float]] = {}


@pytest.mark.parametrize("depth", DEPTHS)
def test_f6_overfetch(benchmark, depth, default_workload):
    config = engine_config_for(
        "car-shared",
        overfetch=depth,
        profile_candidates=depth,
        static_candidates=depth,
    )
    result = benchmark.pedantic(
        lambda: run_engine_config(default_workload, config, LIMIT),
        rounds=1,
        iterations=1,
    )
    totals, _, stats = result
    dps = totals.deliveries / benchmark.stats.stats.mean
    benchmark.extra_info["fallback_rate"] = stats.fallback_rate()
    benchmark.extra_info["deliveries_per_s"] = dps
    _series[depth] = (stats.fallback_rate(), dps)

    if len(_series) == len(DEPTHS):
        table = ascii_table(
            ["candidate depth", "fallback rate", "deliveries/s"],
            [
                [depth, round(_series[depth][0], 3), round(_series[depth][1], 1)]
                for depth in DEPTHS
            ],
            title="F6: over-fetch depth vs fallback rate and throughput",
        )
        save_table("f6_overfetch", table)
        rates = [_series[depth][0] for depth in DEPTHS]
        assert rates == sorted(rates, reverse=True)  # deeper → fewer fallbacks
        assert rates[-1] < rates[0]

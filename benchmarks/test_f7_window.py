"""F7 — incremental maintenance: refresh rate vs. shadow depth.

The incremental mode's cost driver is how often the certify-or-refresh
test fails. The certificate compares the standing k-th score against a
bound built from the shadow's content cutoff, so deepening the shadow
(and the companion candidate lists) is the knob that converts expensive
refreshes into cheap certified updates. Expected shape: refresh rate is
monotone non-increasing in the depth.
"""

from __future__ import annotations

import pytest

from conftest import save_table
from helpers import engine_config_for, run_engine_config
from repro.eval.report import ascii_table

DEPTHS = [20, 60, 150]
LIMIT = 60

_series: dict[int, tuple[float, float]] = {}


@pytest.mark.parametrize("depth", DEPTHS)
def test_f7_shadow_depth(benchmark, depth, default_workload):
    config = engine_config_for(
        "car-incremental",
        shadow_size=depth,
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
    benchmark.extra_info["refresh_rate"] = stats.refresh_rate()
    benchmark.extra_info["deliveries_per_s"] = dps
    _series[depth] = (stats.refresh_rate(), dps)

    if len(_series) == len(DEPTHS):
        table = ascii_table(
            ["shadow depth", "refresh rate", "deliveries/s"],
            [
                [depth, round(_series[depth][0], 3), round(_series[depth][1], 1)]
                for depth in DEPTHS
            ],
            title="F7: incremental refresh rate vs shadow depth",
        )
        save_table("f7_window", table)
        rates = [_series[depth][0] for depth in DEPTHS]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))

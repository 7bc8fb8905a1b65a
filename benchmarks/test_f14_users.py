"""F14 — scalability with population size.

Per-delivery cost should stay roughly flat as the user base grows (state
is per-user, matching is per-delivery), so delivery throughput should not
collapse with more users. Expected shape: deliveries/s within the same
order of magnitude across a 5x population growth.
"""

from __future__ import annotations

import pytest

from conftest import save_table, workload_with
from helpers import engine_config_for, run_engine_config
from repro.eval.report import ascii_table

USER_COUNTS = [200, 500, 1000]
LIMIT = 80

_series: dict[int, float] = {}


@pytest.mark.parametrize("num_users", USER_COUNTS)
def test_f14_users(benchmark, num_users):
    workload = workload_with(num_users=num_users, num_ads=1500)
    config = engine_config_for("car-approx")
    result = benchmark.pedantic(
        lambda: run_engine_config(workload, config, LIMIT), rounds=1, iterations=1
    )
    totals = result[0]
    dps = totals.deliveries / benchmark.stats.stats.mean
    benchmark.extra_info["deliveries_per_s"] = dps
    _series[num_users] = dps

    if len(_series) == len(USER_COUNTS):
        table = ascii_table(
            ["users", "deliveries/s"],
            [[num_users, round(_series[num_users], 1)] for num_users in USER_COUNTS],
            title="F14: delivery throughput vs population size",
        )
        save_table("f14_users", table)
        values = list(_series.values())
        assert min(values) > max(values) / 10.0  # same order of magnitude

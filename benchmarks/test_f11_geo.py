"""F11 — geo-targeting selectivity: throughput and eligibility.

As more of the corpus is geo-targeted, each user's eligible set shrinks;
targeting predicates prune more, and slates concentrate on local ads.
Expected shape: the average eligible fraction falls roughly linearly with
the targeted fraction, while delivery throughput stays the same order.
"""

from __future__ import annotations

import pytest

from conftest import save_table, workload_with
from helpers import engine_config_for, run_engine_config
from repro.eval.report import ascii_table
from repro.index.spatial import SpatialAdFilter

FRACTIONS = [0.0, 0.3, 0.7]
LIMIT = 60

_series: dict[float, tuple[float, float]] = {}


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_f11_geo(benchmark, fraction):
    workload = workload_with(num_ads=1500, geo_targeted_fraction=fraction)
    config = engine_config_for("car-shared")
    result = benchmark.pedantic(
        lambda: run_engine_config(workload, config, LIMIT), rounds=1, iterations=1
    )
    totals = result[0]
    dps = totals.deliveries / benchmark.stats.stats.mean

    spatial = SpatialAdFilter.from_corpus(workload.build_corpus(), subscribe=False)
    sample_users = workload.users[:40]
    eligible_fraction = sum(
        len(spatial.eligible(user.home)) for user in sample_users
    ) / (len(sample_users) * len(workload.ads))
    benchmark.extra_info["eligible_fraction"] = eligible_fraction
    _series[fraction] = (eligible_fraction, dps)

    if len(_series) == len(FRACTIONS):
        table = ascii_table(
            ["geo-targeted fraction", "avg eligible fraction", "deliveries/s"],
            [
                [fraction, round(_series[fraction][0], 3), round(_series[fraction][1], 1)]
                for fraction in FRACTIONS
            ],
            title="F11: geo-targeting selectivity",
        )
        save_table("f11_geo", table)
        eligibles = [_series[fraction][0] for fraction in FRACTIONS]
        assert eligibles == sorted(eligibles, reverse=True)
        assert eligibles[0] == pytest.approx(1.0)

"""F5 — throughput vs. average fan-out.

The reason sharing exists: a post's content probe is reused across its
whole fan-out, so as fan-out grows the shared method's per-delivery cost
falls while the per-delivery probe's cost stays flat. Expected shape: the
shared/exact throughput ratio grows with fan-out. ``car-vector`` is the
same sharing on the numpy kernel: replayed uncharged, a fan-out's
followers after the first are cut ahead as one block, so its
deliveries/s must not fall as the fan-out grows.
"""

from __future__ import annotations

import pytest

from conftest import save_table, workload_with
from helpers import engine_config_for, run_engine_config
from repro.eval.report import ascii_table

FANOUTS = [2, 8, 24]
METHODS = ["car-approx", "car-vector", "per-delivery-probe"]
LIMIT = 80
# Large enough that an index probe clearly costs more than a candidate
# union scan — the regime where sharing is the point (cf. F3's crossover).
NUM_ADS = 6000

_series: dict[tuple[str, int], float] = {}


@pytest.mark.parametrize("follows", FANOUTS)
@pytest.mark.parametrize("method", METHODS)
def test_f5_throughput_vs_fanout(benchmark, method, follows):
    workload = workload_with(follows_per_user=follows, num_ads=NUM_ADS)
    config = engine_config_for(method)
    result = benchmark.pedantic(
        lambda: run_engine_config(workload, config, LIMIT), rounds=1, iterations=1
    )
    deliveries = result[0].deliveries
    dps = deliveries / benchmark.stats.stats.mean
    benchmark.extra_info["deliveries_per_s"] = dps
    _series[(method, follows)] = dps
    assert deliveries > 0

    if len(_series) == len(FANOUTS) * len(METHODS):
        rows = [
            [follows]
            + [round(_series[(method, follows)], 1) for method in METHODS]
            + [
                round(
                    _series[("car-approx", follows)]
                    / _series[("per-delivery-probe", follows)],
                    2,
                )
            ]
            for follows in FANOUTS
        ]
        table = ascii_table(
            ["avg fanout"] + METHODS + ["speedup"],
            rows,
            title="F5: delivery throughput vs fan-out",
        )
        save_table("f5_throughput_vs_fanout", table)
        ratios = [
            _series[("car-approx", f)] / _series[("per-delivery-probe", f)]
            for f in FANOUTS
        ]
        assert ratios[-1] > ratios[0]  # sharing pays more at higher fan-out
        # ... and on the kernel a wider fan-out is never the slower one.
        assert (
            _series[("car-vector", FANOUTS[-1])] >= _series[("car-vector", FANOUTS[0])]
        )

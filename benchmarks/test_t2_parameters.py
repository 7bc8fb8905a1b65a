"""T2 — default parameter table (and engine construction cost)."""

from __future__ import annotations

from conftest import save_table
from helpers import build_recommender
from repro.core.config import EngineConfig
from repro.eval.report import ascii_table

#: Import-checked by the tier-1 smoke driver; too heavy to mini-run.
SMOKE_MINI = False


def test_t2_parameters(benchmark, default_workload):
    config = EngineConfig()

    def construct():
        return build_recommender(default_workload, config)

    recommender = benchmark.pedantic(construct, rounds=3, iterations=1)
    # The default engine's one index is the vector kernel's arrays.
    assert recommender.engine.index.num_alive == default_workload.config.num_ads

    table = ascii_table(
        ["parameter", "default"],
        [[key, value] for key, value in config.describe().items()],
        title="T2: engine parameter defaults",
    )
    save_table("t2_parameters", table)

"""Streaming throughput study: compare every matching strategy live.

Generates one workload and replays the same post stream through the four
strategies (shared candidates with and without the exactness guarantee,
per-user incremental maintenance, per-delivery exact probe), printing the
F3-style comparison the paper's efficiency section is built around.

Run:  python examples/streaming_throughput.py
"""

from __future__ import annotations

import dataclasses

from repro import EngineConfig, WorkloadConfig, generate_workload
from repro.core.config import EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.eval.report import ascii_table
from repro.scenarios import ScenarioDriver, build_scenario_stream
from repro.util.timers import LatencyRecorder

#: The strategies of the paper's comparison, on the pure-Python reference
#: (``searcher="ta"``) where CAR-share's certificate and fallback live.
STRATEGIES = {
    "car-shared (exact)": EngineConfig(
        mode=EngineMode.SHARED, searcher="ta", exact_fallback=True
    ),
    "car-approx": EngineConfig(
        mode=EngineMode.SHARED, searcher="ta", exact_fallback=False
    ),
    "car-incremental": EngineConfig(
        mode=EngineMode.INCREMENTAL, searcher="ta", exact_fallback=True
    ),
    "per-delivery-probe": EngineConfig(mode=EngineMode.EXACT, searcher="ta"),
}


def main() -> None:
    workload = generate_workload(
        WorkloadConfig(num_users=300, num_ads=2000, num_posts=200, seed=9)
    )
    print("Workload:", {k: round(v, 1) for k, v in workload.stats().items()})
    print()

    events = build_scenario_stream(workload, ()).events
    rows = []
    for label, base in STRATEGIES.items():
        config = dataclasses.replace(
            base, collect_deliveries=False, charge_impressions=False
        )
        recommender = ContextAwareRecommender.from_workload(workload, config)
        driver = ScenarioDriver(recommender.engine, workload)
        totals = driver.run(events)
        latency = LatencyRecorder(samples=driver.post_latencies)
        rows.append(
            [
                label,
                totals.deliveries,
                round(totals.deliveries / totals.wall_seconds, 1),
                round(latency.p50() * 1e3, 2),
                round(latency.p99() * 1e3, 2),
                round(recommender.stats.fallback_rate(), 3),
            ]
        )

    print(
        ascii_table(
            ["strategy", "deliveries", "deliv/s", "p50 ms", "p99 ms", "fallback"],
            rows,
            title="Delivery throughput by matching strategy (2000 ads)",
        )
    )
    print(
        "\nShape to expect: at this corpus size a single cheap probe per\n"
        "delivery is competitive; grow --ads past ~4000 (see experiment F3)\n"
        "and the shared-candidate strategies pull away, since one probe is\n"
        "amortised over the whole fan-out while the per-delivery strategy\n"
        "pays it every time."
    )


if __name__ == "__main__":
    main()

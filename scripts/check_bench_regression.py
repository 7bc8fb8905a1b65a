#!/usr/bin/env python
"""Perf/effectiveness-trajectory regression gate for the committed
BENCH_*.json files.

Compares a freshly regenerated benchmark payload against the committed
baseline and fails (exit 1) when the payload's gated metric has
regressed. The metric is named by the baseline's ``gate.metric`` section,
so one script gates every trajectory file:

* ``vector_speedup`` (``BENCH_f3_throughput.json``) — the vector
  searcher's speedup over the default engine at the gate corpus size.
  Speedups are ratios of two runs on the *same* host, so the comparison
  is machine-insulated — a slower CI runner scales both sides equally.
* ``ctr_lift`` (``BENCH_t8_ctr_lift.json``) — the LinUCB policy's replay
  CTR over the static baseline's at the gate seed. Fully seeded, so the
  candidate number is deterministic, not just host-insulated.

Two checks per file:

* **relative gate** — the candidate's metric at the gate point must
  retain at least ``1 - max_relative_loss`` of the baseline's.
* **absolute floor** — the candidate must also clear the baseline's
  ``gate.min_speedup`` / ``gate.min_lift`` (e.g. the F3 tentpole's >= 5x
  claim at 8000 ads, or T8's learned-beats-static >= 1.0x).

Usage::

    python scripts/check_bench_regression.py \
        --baseline BENCH_f3_throughput.json.orig \
        --candidate BENCH_f3_throughput.json

CI copies each committed file aside before the benchmark run overwrites
it, then points ``--baseline`` at the copy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BENCH = "BENCH_f3_throughput.json"

#: ``gate`` keys that may carry the absolute floor, in precedence order.
_FLOOR_KEYS = ("min_speedup", "min_lift")


def load_payload(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: benchmark file not found: {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")
    for key in ("benchmark", "gate"):
        if key not in payload:
            sys.exit(f"error: {path} is missing the {key!r} section")
    metric = gate_metric(payload)
    if metric not in payload:
        sys.exit(f"error: {path} is missing the gated {metric!r} series")
    return payload


def gate_metric(payload: dict) -> str:
    return str(payload["gate"].get("metric", "vector_speedup"))


def gate_floor(gate: dict) -> float:
    for key in _FLOOR_KEYS:
        if key in gate:
            return float(gate[key])
    return 0.0


def check_regression(baseline: dict, candidate: dict) -> list[str]:
    """All gate violations (empty = pass)."""
    failures: list[str] = []
    if baseline["benchmark"] != candidate["benchmark"]:
        return [
            f"benchmark mismatch: baseline {baseline['benchmark']!r} "
            f"vs candidate {candidate['benchmark']!r}"
        ]
    gate = baseline["gate"]
    metric = gate_metric(baseline)
    at = str(gate["at"])
    max_loss = float(gate.get("max_relative_loss", 0.2))
    min_value = gate_floor(gate)

    base_value = baseline[metric].get(at)
    cand_value = candidate.get(metric, {}).get(at)
    if base_value is None or cand_value is None:
        return [f"no {metric} entry at the gate point ({at})"]

    floor = (1.0 - max_loss) * float(base_value)
    if float(cand_value) < floor:
        failures.append(
            f"{metric} at {at} fell to {cand_value:.3f}x — "
            f"more than {max_loss:.0%} below the baseline "
            f"{base_value:.3f}x (floor {floor:.3f}x)"
        )
    if float(cand_value) < min_value:
        failures.append(
            f"{metric} at {at} is {cand_value:.3f}x — "
            f"under the absolute floor {min_value:.3f}x"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a committed BENCH_*.json trajectory metric "
        "regressed against its baseline"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed BENCH json (copy it aside before regenerating)",
    )
    parser.add_argument(
        "--candidate",
        type=Path,
        default=Path(DEFAULT_BENCH),
        help=f"freshly regenerated BENCH json (default: {DEFAULT_BENCH})",
    )
    args = parser.parse_args(argv)

    baseline = load_payload(args.baseline)
    candidate = load_payload(args.candidate)
    failures = check_regression(baseline, candidate)

    metric = gate_metric(baseline)
    at = baseline["gate"]["at"]
    base = baseline[metric].get(str(at))
    cand = candidate.get(metric, {}).get(str(at))
    print(
        f"{baseline['benchmark']}: {metric} at {at} — "
        f"baseline {base}x, candidate {cand}x"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: {metric} trajectory holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

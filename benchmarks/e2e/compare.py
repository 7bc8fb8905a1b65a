"""Apply BENCHMARK.json's bounds to two sets of result files.

    python3 benchmarks/e2e/compare.py A/ B/ [--summary FILE]

A set is every ``<workload>.json`` that ``run.py --out`` wrote anywhere
under the directory — one file per (workload, seed) run. For each
(workload, end-to-end metric) the row shows both medians, B's change
relative to A (positive = worse), each side's spread (interquartile
range over its median, as the driver computes it) and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but a side's spread is wider than
  the bound, unless every run of B is at least as good as every run of A;
* ``ok``         — otherwise.

A run that failed its output checks regresses its workload outright.
Exits non-zero on any regression. ``--summary`` writes A's medians and
spreads with the machine they came from (how ``baseline.json`` is made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def load(directory: Path) -> dict:
    """workload -> {"runs": [records], "values": {metric: [one per run]}}."""
    by_workload: dict[str, dict] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if "end_to_end" not in record:
            continue
        entry = by_workload.setdefault(
            record["workload"], {"runs": [], "values": {}}
        )
        entry["runs"].append(record)
        for name, metric in record["end_to_end"].items():
            entry["values"].setdefault(name, []).append(metric["value"])
    return by_workload


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def summarize(by_workload: dict) -> dict:
    summary = {}
    for workload, entry in by_workload.items():
        runs = entry["runs"]
        summary[workload] = {
            "runs": len(runs),
            "seeds": sorted(run["seed"] for run in runs),
            "failed_runs": sum(not run["correct"] for run in runs),
            "machine": runs[0]["provenance"],
            "metrics": {
                metric["name"]: {
                    "median": statistics.median(entry["values"][metric["name"]]),
                    "spread": spread(entry["values"][metric["name"]]),
                    "unit": metric["unit"],
                }
                for metric in MANIFEST["end_to_end"]
            },
        }
    return summary


def verdict(metric: dict, ours: list[float], theirs: list[float]) -> tuple[float, str]:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = statistics.median(ours)
    change = sign * (statistics.median(theirs) - base) / base
    if change > metric["bound"]:
        return change, "regressed"
    noisy = max(spread(ours), spread(theirs)) > metric["bound"]
    # Every run of B at least as good as every run of A (cost = worse-is-higher).
    dominated = max(sign * value for value in theirs) <= min(
        sign * value for value in ours
    )
    if noisy and not dominated:
        return change, "unresolved"
    return change, "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--summary", type=Path)
    args = parser.parse_args(argv)
    ours, theirs = load(args.a), load(args.b)
    if args.summary is not None:
        args.summary.write_text(json.dumps(summarize(ours), indent=1) + "\n")
    regressed = False
    print(
        f"{'workload':<13}{'metric':<21}{'A median':>12}{'B median':>12}"
        f"{'worse by':>10}{'A spread':>10}{'B spread':>10}{'bound':>7}  verdict"
    )
    for workload in (entry["name"] for entry in MANIFEST["workloads"]):
        if workload not in ours or workload not in theirs:
            print(f"{workload:<13}missing from {'A' if workload not in ours else 'B'}")
            regressed = True
            continue
        failures = sum(
            not run["correct"]
            for run in ours[workload]["runs"] + theirs[workload]["runs"]
        )
        a, b = ours[workload]["values"], theirs[workload]["values"]
        if failures:
            print(f"{workload:<13}{failures} run(s) failed their output checks  regressed")
            regressed = True
        for metric in MANIFEST["end_to_end"]:
            name = metric["name"]
            change, word = verdict(metric, a[name], b[name])
            regressed = regressed or word == "regressed"
            print(
                f"{workload:<13}{name:<21}{statistics.median(a[name]):>12.4f}"
                f"{statistics.median(b[name]):>12.4f}{change:>+10.1%}"
                f"{spread(a[name]):>10.1%}{spread(b[name]):>10.1%}"
                f"{metric['bound']:>7.0%}  {word}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

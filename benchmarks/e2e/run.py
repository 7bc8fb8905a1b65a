"""The whole-path benchmark: post in, slates charged and returned.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S | --rounds R] [--trace 0|1] [--scale full|mini] [--out DIR]

With ``--workload`` one workload runs in this process: as many untraced
rounds as fit in ``--seconds`` (at least three; exactly ``--rounds`` if
given), or with ``--trace 1`` one untraced and one traced round, then the
output checks. Every
metric is printed by name with its unit, a result file (and the traced
round's spans) goes to ``--out``, and the last line of standard output is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A failed check exits non-zero.

Without ``--workload`` every workload runs in a child process of its own
(so peak RSS and heap state are per workload), traced, and the streams
and digests the workloads must share are cross-checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no program to measure: {REPO / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO / "src"))

import numpy  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import SPECS, build_inputs, scaled  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
DEFAULT_ROUNDS = 3
#: A median over fewer rounds is one round's reading.
MIN_ROUNDS = 3


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(MANIFEST["run_seconds"]),
        help="time budget for the untraced rounds",
    )
    parser.add_argument("--rounds", type=int, help="untraced rounds, overriding --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "mini"), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def _provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a plain checkout, not a repository
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


class _Verdicts:
    """Checks and digest of each round, taken as soon as it ends so its
    collected results can be freed before the next backend is built (the
    harness's own heap would otherwise grow ``peak_rss_mb`` with R)."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.checks: list[checks.Check] = []
        self.digests: list[str] = []
        self.attempted = 0

    def take(self, round_: harness.Round) -> harness.Round:
        inputs = self.inputs
        self.checks.extend(checks.check_round(inputs, round_))
        self.digests.append(checks.digest(round_.results))
        self.attempted += len(inputs.events)
        if len(self.digests) == 1:
            reference = checks.check_reference(inputs, round_)
            if reference is not None:
                self.checks.append(reference)
                self.attempted += inputs.warm_events
        round_.results.clear()
        return round_


def _untraced_rounds(inputs, args, verdicts: _Verdicts) -> list[harness.Round]:
    rounds: list[harness.Round] = []
    started = time.perf_counter()
    while True:
        rounds.append(verdicts.take(harness.run_round(inputs)))
        spent = time.perf_counter() - started
        if args.rounds is not None:
            if len(rounds) >= args.rounds:
                return rounds
        elif args.trace:
            # The traced round is the subject; one untraced round gives
            # it the wall to compare against.
            return rounds
        elif len(rounds) >= MIN_ROUNDS and spent + spent / len(rounds) > args.seconds:
            return rounds


def _spread(raw: list[float]) -> dict:
    if len(raw) < 2:
        return {}
    return {
        "median": statistics.median(raw),
        "quartiles": statistics.quantiles(raw, n=4),
    }


def _one_per_name(results: list[checks.Check]) -> list[checks.Check]:
    """A check repeats once per round; show its first failure, else its
    first pass."""
    shown: dict[str, checks.Check] = {}
    for check in results:
        if check.name not in shown or (shown[check.name].ok and not check.ok):
            shown[check.name] = check
    return list(shown.values())


def _print_table(record: dict, shown_checks: list[checks.Check]) -> None:
    """Every metric by name with its unit, then the checks."""
    stream = record["stream"]
    print(
        f"== {record['workload']} (seed {record['seed']}, {record['scale']}): "
        f"stream {stream['fingerprint']}, {record['rounds']} untraced round(s), "
        f"digest {record['digest']}"
    )
    print("   " + ", ".join(f"{n} {kind}" for kind, n in sorted(stream["events"].items())))
    for name, metric in record["end_to_end"].items():
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']:<14} n={metric['samples']}")
    attempted = record["attempted"]
    print(
        f"  {'failed_fraction':<28} {record['failed'] / attempted:>14.4f} "
        f"{'ratio':<14} n={attempted}"
    )
    for name, metric in record["per_layer"].items():
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']}")
    for check in shown_checks:
        print(f"  [{'ok' if check.ok else 'FAILED'}] {check.name}: {check.detail}")


def run_workload(args) -> int:
    spec = scaled(SPECS[args.workload], args.scale)
    inputs = build_inputs(spec, args.seed)
    verdicts = _Verdicts(inputs)
    rounds = _untraced_rounds(inputs, args, verdicts)
    metrics = harness.end_to_end(rounds)
    traced = verdicts.take(harness.run_round(inputs, traced=True)) if args.trace else None
    digests = verdicts.digests
    results = verdicts.checks + [checks.check_digests(digests, len(inputs.events))]
    attempted = verdicts.attempted
    failed = min(attempted, sum(check.failed_operations for check in results))
    correct = all(check.ok for check in results)

    per_layer, layer_budget, traced_wall = {}, {}, None
    if traced:
        # Seconds at probe speed, like the end-to-end metrics (the span
        # dump keeps the clock's own readings).
        at_speed = lambda seconds: seconds / traced.speed
        traced_wall = at_speed(traced.wall_s)
        layer_budget = {
            name: at_speed(seconds) for name, seconds in traced.layer_budget.items()
        }
        layer_values = {
            name: at_speed(value) if name.endswith("_s") else value
            for name, value in traced.layer_metrics.items()
        }
        layer_values["trace.overhead_ratio"] = traced_wall / statistics.median(
            r.wall_s / r.speed for r in rounds
        )
        per_layer = {
            entry["name"]: {
                "value": layer_values.get(entry["name"], 0.0),
                "unit": entry["unit"],
            }
            for entry in MANIFEST["per_layer"]
        }

    record = {
        "workload": spec.name,
        "scale": args.scale,
        "seed": args.seed,
        "rounds": len(rounds),
        "provenance": _provenance(),
        "stream": {
            "fingerprint": inputs.fingerprint,
            "events": inputs.counts,
            "warm_up_posts": spec.warm_posts,
            "measured_posts": len(rounds[0].latencies),
        },
        "machine_speed": {
            "measured": [round_.speed for round_ in rounds],
            "setup": [round_.setup_speed for round_ in rounds],
            "traced": traced.speed if traced else None,
        },
        "digest": digests[0],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": [vars(check) for check in results],
        "end_to_end": {
            name: {**metric, **_spread(metric["raw"])} for name, metric in metrics.items()
        },
        "per_layer": per_layer,
        "layer_budget": layer_budget,
        "traced_wall_s": traced_wall,
    }
    _print_table(record, _one_per_name(results))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{spec.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(args.out / f"{spec.name}.spans.jsonl", "w") as handle:
            for span in traced.spans:
                handle.write(json.dumps(span) + "\n")

    reported = per_layer if args.trace else metrics
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in reported.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child, traced; then the cross-checks."""
    status = 0
    records = {}
    for name in SPECS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--trace", "1",
            "--rounds", str(args.rounds or DEFAULT_ROUNDS), "--scale", args.scale,
            "--out", str(args.out),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's last line is the driver's JSON; the table is above it.
        print(child.stdout.rsplit("\n", 2)[0])
        status = status or child.returncode
        if child.returncode == 0:
            records[name] = json.loads((args.out / f"{name}.json").read_text())
    if len(records) == len(SPECS):
        # Single and sharded serve different slates once charging is on
        # (each shard paces its own budget copy), so only the two routers
        # share a digest.
        routers = ("sharded", "procpool")
        for what, values in (
            (
                "stream",
                {n: records[n]["stream"]["fingerprint"] for n in ("steady",) + routers},
            ),
            ("digest", {n: records[n]["digest"] for n in routers}),
        ):
            same = len(set(values.values())) == 1
            print(f"[{'ok' if same else 'FAILED'}] same {what}: {values}")
            status = status or (0 if same else 1)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

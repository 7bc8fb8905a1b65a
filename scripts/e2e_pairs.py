#!/usr/bin/env python
"""Interleaved parent/change pairs of the whole-path benchmark.

    python scripts/e2e_pairs.py --parent DIR --change DIR --workload W [W ...]
        --pairs N [--scale mini] [--first-seed S] [--out DIR] [--rows FILE]

How a performance claim on ``benchmarks/e2e`` is measured (the
choosing-metrics rule; what PRs 12, 14 and 16 each did by hand): N pairs
of runs, one fresh seed per pair, alternating which side runs first so
that a machine drifting between speed levels favours neither. Each side
runs its *own* ``benchmarks/e2e/run.py`` from its own checkout, untraced,
at the benchmark's own run length; this script only reads the result
files those runs write.

Per end-to-end metric it prints both sides' medians and quartiles, how
many pairs the change won (ties count for neither side) and the verdict:
a gain is *claimable* when the change wins at least nine tenths of at
least ten pairs and the medians differ by more than the parent's
interquartile range. Beside it, whether the change's median is within the
metric's ``BENCHMARK.json`` bound of the parent's (the no-regression
rule). It also says whether every run wrote its result record (a run
that wrote none — its checkout crashed — is reported FAILED and its pair
left out), passed its output checks, and matched the other side's output
digest in its pair — and exits non-zero if not. Timings are never gated here. After each workload's
table comes every run made, one markdown row per pair: the seed, the side
that ran first, each metric parent / change, ``failed`` and the digests.
Several workloads (the no-regression sweep every change owes) are
measured one after another, N pairs and one table each, under one exit
status. ``--rows FILE`` keeps the runs as data too: as each pair ends,
one JSON object per run is appended to FILE — the workload, the seed,
the side, the side that ran first, the six metrics, ``failed`` and the
digest (``null`` in all three for a run that wrote no record).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
#: The choosing-metrics rule: pairs needed and the share of them to win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_side(
    checkout: Path, workload: str, scale: str, seed: int, out: Path
) -> dict | None:
    """One untraced run of ``checkout``'s own harness; its result record,
    or None if the run wrote none (it crashed)."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        "--scale", scale, "--out", str(out),
    ]
    record = out / f"{workload}.json"
    # A record left by an earlier sweep into the same --out must not
    # stand in for this run's.
    record.unlink(missing_ok=True)
    # A failed output check exits non-zero but still writes its record.
    subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL, check=False)
    return json.loads(record.read_text()) if record.exists() else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def metric_row(metric: dict, parent: list[float], change: list[float]) -> str:
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    better_by = (c_med - p_med) if higher else (p_med - c_med)
    pairs = len(parent)
    if pairs < MIN_PAIRS:
        verdict = f"no verdict under {MIN_PAIRS} pairs"
    elif wins >= WIN_SHARE * pairs and better_by > p_q3 - p_q1:
        verdict = "gain claimable"
    elif losses >= WIN_SHARE * pairs and -better_by > p_q3 - p_q1:
        verdict = "WORSE"
    else:
        verdict = "no claim"
    # The no-regression rule: the change's median may be worse than the
    # parent's by at most the metric's bound, as a share of the parent's.
    within = -better_by <= metric["bound"] * abs(p_med)
    bound = f"{'within' if within else 'OUTSIDE'} bound {metric['bound'] * 100.0:.0f} %"
    return (
        f"  {metric['name']:<20} parent {p_med:>10.4f} [{p_q1:.4f}, {p_q3:.4f}]  "
        f"change {c_med:>10.4f} [{c_q1:.4f}, {c_q3:.4f}]  "
        f"{(c_med / p_med - 1.0) * 100.0 if p_med else 0.0:>+7.1f} %  "
        f"wins {wins}/{pairs} (losses {losses})  {verdict}; {bound}"
    )


def reading(value: float) -> str:
    """A table cell: whole units from a thousand up, else four digits."""
    return f"{value:.0f}" if abs(value) >= 1000.0 else f"{value:.4g}"


def run_rows(seeds: list[int], firsts: list[str], records, metrics) -> list[str]:
    """Every run made, one markdown row per pair: the seed, the side that
    ran first, each metric parent / change, ``failed`` and the digests."""
    names = [metric["name"] for metric in metrics]
    rows = [
        "| seed | first | " + " | ".join(names) + " | failed | digests |",
        "|" + "---|" * (len(names) + 4),
    ]
    for index, (seed, first) in enumerate(zip(seeds, firsts)):
        parent, change = records["parent"][index], records["change"][index]
        cells = [str(seed), first]
        cells += [
            f"{reading(parent['end_to_end'][name]['value'])} / "
            f"{reading(change['end_to_end'][name]['value'])}"
            for name in names
        ]
        cells.append(f"{parent['failed']} / {change['failed']}")
        cells.append(f"`{parent['digest']}` / `{change['digest']}`")
        rows.append("| " + " | ".join(cells) + " |")
    return rows


def append_rows(
    path: Path, workload: str, seed: int, first: str, runs: dict, metrics
) -> None:
    """One JSON line per run of a pair, appended to ``path``."""
    with path.open("a") as rows:
        for side in SIDES:
            run = runs[side]
            row = {"workload": workload, "seed": seed, "side": side, "first": first}
            if run is None:
                row.update(metrics=None, failed=None, digest=None)
            else:
                row.update(
                    metrics={
                        metric["name"]: run["end_to_end"][metric["name"]]["value"]
                        for metric in metrics
                    },
                    failed=run["failed"],
                    digest=run["digest"],
                )
            rows.write(json.dumps(row) + "\n")


def measure(workload: str, args, checkouts, metrics, out: Path) -> bool:
    """``args.pairs`` interleaved pairs of one workload, their table and
    their runs; whether every run was correct and every pair's digests
    matched."""
    headline = metrics[0]["name"]
    records: dict[str, list[dict]] = {side: [] for side in SIDES}
    seeds, firsts = [], []
    unwritten = 0
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        runs = {
            side: run_side(
                checkouts[side], workload, args.scale, seed,
                out / workload / f"seed{seed}" / side,
            )
            for side in order
        }
        if args.rows is not None:
            append_rows(args.rows, workload, seed, order[0], runs, metrics)
        missing = [side for side in SIDES if runs[side] is None]
        if missing:
            # Counted as failed; the pair stays out of the table.
            unwritten += 1
            print(
                f"{workload} pair {pair + 1}/{args.pairs} seed {seed}: FAILED, "
                f"no result record from {' and '.join(missing)}",
                flush=True,
            )
            continue
        seeds.append(seed)
        firsts.append(order[0])
        for side in SIDES:
            records[side].append(runs[side])
        latest = [records[side][-1] for side in SIDES]
        digests = " / ".join(run["digest"] for run in latest)
        readings = " / ".join(
            f"{run['end_to_end'][headline]['value']:.1f}" for run in latest
        )
        print(
            f"{workload} pair {pair + 1}/{args.pairs} seed {seed} "
            f"({order[0]} first): digests {digests}, {headline} {readings}",
            flush=True,
        )

    print(f"== {workload} ({args.scale}), {len(seeds)} pair(s)")
    written = not unwritten
    print(
        f"[{'ok' if written else 'FAILED'}] every run wrote its result record"
        + ("" if written else f" ({unwritten} pair(s) without)")
    )
    if not seeds:
        return False
    for metric in metrics:
        values = {
            side: [run["end_to_end"][metric["name"]]["value"] for run in records[side]]
            for side in SIDES
        }
        print(metric_row(metric, values["parent"], values["change"]))
    correct = all(run["correct"] for side in SIDES for run in records[side])
    same = all(
        ours["digest"] == theirs["digest"]
        for ours, theirs in zip(records["parent"], records["change"])
    )
    print(f"[{'ok' if correct else 'FAILED'}] every run passed its output checks")
    print(f"[{'ok' if same else 'FAILED'}] digests equal in every pair")
    print(f"\nEvery run of {workload} (parent / change):\n")
    print("\n".join(run_rows(seeds, firsts, records, metrics)), flush=True)
    return written and correct and same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="per workload")
    parser.add_argument("--scale", choices=("full", "mini"), default="full")
    parser.add_argument(
        "--first-seed", type=int, default=101,
        help="pair i runs seed first-seed + i on both sides",
    )
    parser.add_argument("--out", type=Path, help="keep the result files here")
    parser.add_argument(
        "--rows", type=Path, help="append one JSON line per run to this file"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    manifest = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = manifest["end_to_end"]

    with tempfile.TemporaryDirectory() as scratch:
        out = args.out.resolve() if args.out else Path(scratch)
        # A list, not a generator: a failed workload does not stop the sweep.
        passed = [
            measure(workload, args, checkouts, metrics, out)
            for workload in args.workload
        ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())

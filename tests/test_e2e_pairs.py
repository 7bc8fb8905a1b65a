"""Self-test of ``scripts/e2e_pairs.py`` over fake checkouts.

Each fake checkout's ``benchmarks/e2e/run.py`` writes a made-up result
record where the real harness would, so the script's whole path — the
interleaved runs, the per-metric table with its verdict and bound, and
the markdown row of every pair — is read back from a result directory
whose every value is known.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: A fake harness: the value of each metric is the side's base plus the
#: seed's last digit, and the digest is the seed's (or the side's, when
#: the checkout says its output differs).
FAKE_RUN = textwrap.dedent(
    """
    import argparse, json
    from pathlib import Path

    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--trace", "--scale", "--out"):
        parser.add_argument(flag)
    args = parser.parse_args()
    side = json.loads(Path("side.json").read_text())
    if side.get("crashes"):
        raise SystemExit(1)
    seed = int(args.seed)
    record = {
        "digest": f"{side['name'] if side['differs'] else 'same'}{seed}",
        "correct": True,
        "failed": side["failed"],
        "end_to_end": {
            name: {"value": base + seed % 10}
            for name, base in side["metrics"].items()
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}.json").write_text(json.dumps(record))
    """
)


def load_script():
    spec = importlib.util.spec_from_file_location(
        "e2e_pairs", REPO / "scripts" / "e2e_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(
    root: Path, name: str, metrics: dict, *, differs=False, failed=0, crashes=False
):
    harness = root / name / "benchmarks" / "e2e"
    harness.mkdir(parents=True)
    (harness / "run.py").write_text(FAKE_RUN)
    shutil.copy(REPO / "BENCHMARK.json", root / name / "BENCHMARK.json")
    (root / name / "side.json").write_text(
        json.dumps(
            {
                "name": name,
                "metrics": metrics,
                "differs": differs,
                "failed": failed,
                "crashes": crashes,
            }
        )
    )
    return root / name


PARENT = {
    "deliveries_per_s": 1000.0,
    "post_p50_ms": 10.0,
    "post_p99_ms": 20.0,
    "cpu_ms_per_delivery": 1.0,
    "setup_s": 2.0,
    "peak_rss_mb": 100.0,
}


def test_a_claim_a_regression_and_every_run(tmp_path, capsys):
    change = dict(PARENT, deliveries_per_s=1100.0, post_p50_ms=20.0)
    script = load_script()
    status = script.main(
        [
            "--parent", str(checkout(tmp_path, "parent", PARENT)),
            "--change", str(checkout(tmp_path, "change", change)),
            "--workload", "steady",
            "--pairs", "10",
            "--first-seed", "40",
            "--out", str(tmp_path / "out"),
        ]
    )
    printed = capsys.readouterr().out
    assert status == 0
    rows = {line.split()[0]: line for line in printed.splitlines() if line.startswith("  ")}
    # +10 % on every pair, beyond an interquartile range of 5.5: claimable,
    # and within the 20 % bound.
    assert "wins 10/10" in rows["deliveries_per_s"]
    assert "gain claimable; within bound 20 %" in rows["deliveries_per_s"]
    # Twice the latency on every pair: worse, and outside the 25 % bound.
    assert "WORSE; OUTSIDE bound 25 %" in rows["post_p50_ms"]
    # Ties: no claim, within the bound.
    assert "no claim; within bound 15 %" in rows["peak_rss_mb"]
    assert "[ok] digests equal in every pair" in printed
    # Every run made: a header, a rule and one row per pair, in order,
    # the first side alternating.
    table = [line for line in printed.splitlines() if line.startswith("|")]
    assert table[0] == (
        "| seed | first | deliveries_per_s | post_p50_ms | post_p99_ms | "
        "cpu_ms_per_delivery | setup_s | peak_rss_mb | failed | digests |"
    )
    assert len(table) == 12
    assert table[2] == (
        "| 40 | parent | 1000 / 1100 | 10 / 20 | 20 / 20 | 1 / 1 | 2 / 2 | "
        "100 / 100 | 0 / 0 | `same40` / `same40` |"
    )
    assert table[3].startswith("| 41 | change | 1001 / 1101 |")
    assert script.reading(33606.6) == "33607" and script.reading(0.16821) == "0.1682"
    assert (tmp_path / "out" / "steady" / "seed49" / "change" / "steady.json").exists()


@pytest.mark.parametrize("broken", ["digests", "failed"])
def test_a_mismatch_fails_and_a_failed_count_shows(tmp_path, capsys, broken):
    script = load_script()
    status = script.main(
        [
            "--parent", str(checkout(tmp_path, "parent", PARENT)),
            "--change",
            str(
                checkout(
                    tmp_path,
                    "change",
                    PARENT,
                    differs=broken == "digests",
                    failed=3 if broken == "failed" else 0,
                )
            ),
            "--workload", "steady", "sharded",
            "--pairs", "1",
        ]
    )
    printed = capsys.readouterr().out
    assert printed.count("no verdict under 10 pairs") == 12
    if broken == "digests":
        assert status == 1
        assert printed.count("[FAILED] digests equal in every pair") == 2
        assert "`same1` / `change1`" not in printed
        assert "`same101` / `change101` |" in printed
    else:
        # A failed-operation count is reported, not gated: the harness's
        # own ``correct`` says whether a check failed.
        assert status == 0
        assert "| 0 / 3 |" in printed


@pytest.mark.parametrize("reused", [True, False])
def test_a_run_that_writes_nothing_fails(tmp_path, capsys, reused):
    """A change checkout whose harness dies before writing reads as
    FAILED — not as the record an earlier sweep left in ``--out``, and
    not as a crash of the tool — and the sweep goes on to the next
    workload."""
    script = load_script()
    out = tmp_path / "out"
    args = [
        "--parent", str(checkout(tmp_path, "parent", PARENT)),
        "--change", str(checkout(tmp_path, "change", PARENT, crashes=True)),
        "--workload", "steady", "sharded",
        "--pairs", "2",
    ]
    if reused:
        for workload in ("steady", "sharded"):
            for seed in (101, 102):
                stale = out / workload / f"seed{seed}" / "change"
                stale.mkdir(parents=True)
                (stale / f"{workload}.json").write_text(
                    json.dumps(
                        {
                            "digest": f"same{seed}",
                            "correct": True,
                            "failed": 0,
                            "end_to_end": {
                                name: {"value": value}
                                for name, value in PARENT.items()
                            },
                        }
                    )
                )
        args += ["--out", str(out)]
    status = script.main(args)
    printed = capsys.readouterr().out
    assert status == 1
    assert printed.count("FAILED, no result record from change") == 4
    assert printed.count(
        "[FAILED] every run wrote its result record (2 pair(s) without)"
    ) == 2
    assert "same101" not in printed and "[ok]" not in printed

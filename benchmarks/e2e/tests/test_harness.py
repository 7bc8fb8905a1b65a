"""Self-tests of the benchmark harness, at ``--scale mini``.

Not collected by tier-1 (whose ``testpaths`` is ``tests/``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
#: The manifest's four plus the one that runs by hand.
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]] + ["procpool"]


def _run(script: str, *args, cwd=REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(E2E / script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _record(out: Path, workload: str) -> dict:
    return json.loads((out / f"{workload}.json").read_text())


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """One traced pass of all five workloads: (stdout, seconds, out dir)."""
    out = tmp_path_factory.mktemp("mini")
    started = time.perf_counter()
    done = _run("run.py", "--scale", "mini", "--rounds", 2, "--out", out)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, elapsed, out


def test_all_five_workloads_pass_in_under_15_seconds(mini):
    stdout, elapsed, out = mini
    assert elapsed < 15.0
    assert "FAILED" not in stdout
    for workload in WORKLOADS:
        record = _record(out, workload)
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1


def test_every_manifest_name_is_well_formed_and_printed(mini):
    stdout, _, _ = mini
    names = WORKLOADS + [entry["name"] for entry in MANIFEST["end_to_end"]]
    names += [entry["name"] for entry in MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert re.search(rf"(^|\s){re.escape(name)}\s", stdout, re.M), name
    assert "failed_fraction" in stdout


def test_the_driver_line_carries_exactly_the_manifest_metrics(tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(
            "run.py", "--workload", "steady", "--scale", "mini", "--seed", 4,
            "--seconds", 1, "--trace", trace, "--out", tmp_path,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        expected = {entry["name"]: entry["unit"] for entry in MANIFEST[key]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
        if key == "end_to_end":
            assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_reported_times_are_the_measured_ones_at_probe_speed(mini):
    _, _, out = mini
    record = _record(out, "steady")
    speeds = record["machine_speed"]["measured"]
    throughput = record["end_to_end"]["deliveries_per_s"]
    assert len(speeds) == len(throughput["raw"]) == record["rounds"]
    assert all(speed > 0.0 for speed in speeds)
    assert throughput["value"] == pytest.approx(
        statistics.median(raw * speed for raw, speed in zip(throughput["raw"], speeds))
    )


def test_layer_self_times_add_back_to_the_traced_wall(mini):
    _, _, out = mini
    for workload in WORKLOADS:
        record = _record(out, workload)
        budget = record["layer_budget"]
        assert sum(budget.values()) == pytest.approx(record["traced_wall_s"], rel=0.01)
        # Double-counted layers would drive the remainder negative; a
        # boundary nobody wraps would leave it large.
        assert all(seconds >= 0.0 for seconds in budget.values()), budget
        assert record["per_layer"]["unattributed_share"]["value"] <= 0.10


def test_each_mechanism_shows_only_on_its_workload(mini):
    _, _, out = mini
    layer = lambda workload, name: _record(out, workload)["per_layer"][name]["value"]
    assert layer("steady", "rerank.batch_calls_n") == 0
    assert layer("fanout_batch", "rerank.batch_calls_n") > 0
    for workload in WORKLOADS:
        frames = layer(workload, "rpc.frames_n")
        assert (frames > 0) == (workload == "procpool"), workload
    assert layer("adversarial", "ads.launch_n") > 0
    assert layer("adversarial", "qos.shed_n") > 0
    assert layer("steady", "ads.launch_n") == 0
    assert layer("sharded", "router.amplification") > 1.0


def test_streams_and_digests_are_shared_where_they_must_be(mini):
    _, _, out = mini
    steady, sharded, procpool = (
        _record(out, name) for name in ("steady", "sharded", "procpool")
    )
    assert (
        steady["stream"]["fingerprint"]
        == sharded["stream"]["fingerprint"]
        == procpool["stream"]["fingerprint"]
    )
    assert sharded["digest"] == procpool["digest"]


def test_same_seed_same_inputs_and_outputs_different_seed_different(tmp_path):
    identities = []
    for index, seed in enumerate((5, 5, 6)):
        out = tmp_path / str(index)
        done = _run(
            "run.py", "--workload", "steady", "--scale", "mini",
            "--seed", seed, "--rounds", 2, "--out", out,
        )
        assert done.returncode == 0, done.stderr
        record = _record(out, "steady")
        identities.append((record["stream"]["fingerprint"], record["digest"]))
    assert identities[0] == identities[1]
    assert identities[0][0] != identities[2][0]
    assert identities[0][1] != identities[2][1]


def test_spans_carry_parent_and_request(mini):
    _, _, out = mini
    spans = [
        json.loads(line)
        for line in (out / "adversarial.spans.jsonl").read_text().splitlines()
    ]
    roots = [span for span in spans if span["parent"] is None]
    assert {span["name"] for span in roots} >= {
        "engine.post", "ads.click", "ads.launch", "geo.checkin",
    }
    for index, span in enumerate(spans):
        assert span["end_s"] >= span["start_s"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert span["parent"] < index
            assert parent["start_s"] <= span["start_s"] <= span["end_s"] <= parent["end_s"]
    posts = [span for span in roots if span["name"] == "engine.post"]
    assert all(isinstance(span["request"], int) for span in posts)


def test_compare_accepts_a_set_against_itself_and_flags_a_regression(mini, tmp_path):
    _, _, out = mini
    assert _run("compare.py", out, out).returncode == 0
    worse = tmp_path / "worse"
    shutil.copytree(out, worse)
    record = _record(worse, "steady")
    record["end_to_end"]["deliveries_per_s"]["value"] /= 2.0
    (worse / "steady.json").write_text(json.dumps(record))
    done = _run("compare.py", out, worse)
    assert done.returncode == 1
    assert re.search(r"steady\s+deliveries_per_s.*regressed", done.stdout)


def test_a_failed_run_fails_the_comparison(mini, tmp_path):
    _, _, out = mini
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    record = _record(broken, "sharded")
    record["correct"] = False
    (broken / "sharded.json").write_text(json.dumps(record))
    assert _run("compare.py", out, broken).returncode == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own directory exist; it must fail there, without a result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()

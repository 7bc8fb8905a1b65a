"""CLI tests (driven through main(argv) — no subprocesses)."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.index.factory import SEARCHER_KINDS

FAST = ["--users", "30", "--ads", "80", "--posts", "30", "--vocab", "1200", "--topics", "8"]


def summary_rows(out: str) -> list[str]:
    """The replay-summary rows that must not depend on the transport or
    the searcher (padding squeezed out: it follows the table's widest
    value)."""
    wanted = re.compile(r"(posts|deliveries|impressions|revenue) +\|")
    return [
        line.replace(" ", "") for line in out.splitlines() if wanted.match(line)
    ]


#: Rows of the replay summary that read a clock.
TIMING_ROWS = (
    "deliveries/s ", "post p50", "post p99", "batch p50", "batch p99",
    "wall seconds ",
)


def untimed_table(out: str) -> list[str]:
    """The replay summary and its totals line, minus the rows that read a
    clock and the dashboard lines (padding squeezed out)."""
    lines = out.splitlines()
    table = lines[lines.index("Replay summary") :]
    return [
        line.replace(" ", "").replace("-", "")
        for line in table
        if not line.startswith(TIMING_ROWS)
        and not line.startswith(("wrote ", "tracing:", "  breach"))
    ]


def totals_line(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("scenario totals:")]


def exposed(prom: Path, name: str) -> list[str]:
    """The values of the exposition's samples of metric ``name``."""
    return [
        line.split(" ")[1]
        for line in prom.read_text().splitlines()
        if line.startswith(name + " ")
    ]


#: The backend shapes ``replay`` builds, by their flags.
BACKENDS = {
    "default": [],
    "shards1": ["--shards", "1"],
    "shards2": ["--shards", "2"],
    "workers2": ["--workers", "2"],
    "workers2-batch16": ["--workers", "2", "--batch", "16"],
}

#: Scenarios that write beside reads: launches and exhaustion, clicks,
#: check-ins.
WRITES = [
    "--scenario", "budget-burst", "--scenario", "click-flood", "--scenario", "geo-wave",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_replay_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--mode", "warp"])

    def test_replay_searcher_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--searcher", "hnsw"])

    @pytest.mark.parametrize("command", ["replay", "canary"])
    def test_a_deleted_searcher_is_rejected_naming_the_kinds_left(
        self, command, capsys
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--searcher", "maxscore"])
        err = capsys.readouterr().err
        assert "'maxscore'" in err
        assert all(repr(kind) in err for kind in SEARCHER_KINDS)


class TestGenerateAndStats:
    def test_generate_writes_directory(self, tmp_path, capsys):
        out = tmp_path / "wl"
        code = main(["generate", *FAST, "--out", str(out)])
        assert code == 0
        assert (out / "meta.json").exists()
        assert (out / "ads.jsonl").exists()
        captured = capsys.readouterr()
        assert "saved workload" in captured.out

    def test_stats_reads_it_back(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", *FAST, "--out", str(out)])
        capsys.readouterr()
        code = main(["stats", "--workload", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "users" in captured.out
        assert "30" in captured.out

    def test_stats_missing_workload_errors(self, tmp_path, capsys):
        code = main(["stats", "--workload", str(tmp_path / "missing")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestReplay:
    @pytest.mark.parametrize("mode", ["shared", "incremental", "exact"])
    def test_replay_all_modes(self, mode, capsys):
        code = main(
            ["replay", *FAST, "--mode", mode, "--limit", "15", "--no-charging"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deliveries/s" in out
        assert mode in out

    def test_replay_from_saved_workload(self, tmp_path, capsys):
        out = tmp_path / "wl"
        main(["generate", *FAST, "--out", str(out)])
        capsys.readouterr()
        code = main(["replay", "--workload", str(out), "--limit", "10"])
        assert code == 0
        assert "Replay summary" in capsys.readouterr().out

    @pytest.mark.parametrize("searcher", SEARCHER_KINDS)
    def test_replay_searcher_flag(self, searcher, capsys):
        code = main(
            [
                "replay", *FAST, "--searcher", searcher,
                "--limit", "15", "--no-charging",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deliveries/s" in out
        assert "searcher" in out
        assert searcher in out

    @pytest.mark.parametrize(
        "reference, kernel",
        [
            (["--searcher", "ta"], ["--searcher", "vector"]),
            (["--mode", "exact", "--searcher", "ta"],
             ["--mode", "exact", "--searcher", "vector"]),
            (["--mode", "shared", "--searcher", "vector"],
             ["--mode", "exact", "--searcher", "vector"]),
            (["--searcher", "ta", *WRITES], ["--searcher", "vector", *WRITES]),
            (["--searcher", "ta", "--shards", "2", *WRITES],
             ["--searcher", "vector", "--shards", "2", *WRITES]),
        ],
        ids=["shared", "exact", "exact-is-shared", "writes", "writes-shards2"],
    )
    def test_vector_replay_prints_the_reference_rows(self, reference, kernel, capsys):
        """Charged (default) serving through the vector kernel prints the
        pure-Python reference's totals, in SHARED and in EXACT mode; on
        vector EXACT is SHARED's kernel call minus the shared probe. Under
        scenarios that write beside reads, the kernel's resident bid term
        and the charge in columns are held to the reference, on one engine
        and on each shard's own index."""
        rows = []
        for flags in (reference, kernel):
            assert main(["replay", *FAST, *flags]) == 0
            rows.append(summary_rows(capsys.readouterr().out))
        assert len(rows[0]) == 4
        assert rows[1] == rows[0]

    def test_the_default_searcher_is_the_kernel(self, capsys):
        """No ``--searcher`` replays the vector kernel: the summary says
        so, and prints ``--searcher vector``'s rows."""
        rows = {}
        for name, flags in (("default", []), ("vector", ["--searcher", "vector"])):
            assert main(["replay", *FAST, "--limit", "15", *flags]) == 0
            out = capsys.readouterr().out
            assert re.search(r"^searcher +\| vector", out, re.MULTILINE)
            rows[name] = summary_rows(out)
        assert len(rows["default"]) == 4
        assert rows["default"] == rows["vector"]

    @pytest.mark.parametrize("command", ["replay", "canary"])
    def test_engine_flag_defaults_are_the_configs(self, command):
        """One copy of each default: the engine flags read
        :class:`EngineConfig`'s own."""
        from repro.core.config import EngineConfig

        args = build_parser().parse_args([command])
        config = EngineConfig()
        assert args.mode == config.mode.value
        assert args.searcher == config.searcher
        assert args.k == config.k
        if command == "replay":
            assert args.personalize == config.personalize
            assert args.alpha_ucb == config.alpha_ucb
            assert args.linucb_sync == config.linucb_sync_interval_s

    def test_replay_personalize_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--personalize", "thompson"])

    def test_replay_linucb_flag(self, capsys):
        code = main(
            [
                "replay", *FAST, "--limit", "15",
                "--personalize", "linucb",
                "--alpha-ucb", "0.3",
                "--linucb-sync", "600",
            ]
        )
        assert code == 0
        assert "deliveries/s" in capsys.readouterr().out


class TestLiveReplay:
    def test_live_dashboard_lines(self, capsys):
        code = main(["replay", *FAST, "--limit", "20", "--live"])
        assert code == 0
        out = capsys.readouterr().out
        assert "live replay:" in out
        assert "win p99[delivery]" in out
        assert "Replay summary" in out
        assert "SLO verdict" not in out  # plain --live does not grade

    def test_slo_implies_live_and_prints_verdict(self, capsys):
        code = main(
            [
                "replay", *FAST, "--limit", "20", "--slo",
                "--slo-p99-ms", "delivery=1000", "--interval", "10000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "live replay:" in out
        assert "SLO verdict: OK" in out
        assert "[OK]" in out

    def test_metrics_and_prom_sinks(self, tmp_path, capsys):
        from repro.obs import read_timeseries_jsonl

        series = tmp_path / "series.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "replay", *FAST, "--limit", "20", "--slo",
                "--metrics-out", str(series), "--prom-out", str(prom),
            ]
        )
        assert code == 0
        rows = read_timeseries_jsonl(series)
        intervals = [row for row in rows if row["label"] == "interval"]
        assert len(intervals) >= 2
        assert all("health" in row for row in intervals)
        assert rows[-1]["label"] == "summary"
        assert "verdict" in rows[-1]
        text = prom.read_text()
        assert "repro_deliveries_total" in text
        assert 'quantile="0.99"' in text
        assert "wrote" in capsys.readouterr().out

    def test_bad_slo_target_is_a_usage_error(self, capsys):
        code = main(
            ["replay", *FAST, "--limit", "5", "--slo", "--slo-p99-ms", "delivery"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["main", "console"])
    def test_non_positive_interval_is_a_usage_error(self, entry, capsys):
        # A tick that never advances never passes the next event: the
        # replay must refuse the interval, not spin. Through ``main`` run
        # in a daemon thread, through the console entry (``python -m
        # repro``) in a child killed at a timeout, so a regression fails
        # here instead of hanging the suite.
        argv = ["replay", *FAST, "--limit", "5", "--live",
                "--interval", "-5", "--window", "10"]
        if entry == "main":
            codes: list[int] = []
            worker = threading.Thread(
                target=lambda: codes.append(main(argv)), daemon=True
            )
            worker.start()
            worker.join(30)
            assert not worker.is_alive(), "replay hung on a non-positive interval"
            err = capsys.readouterr().err
        else:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            )
            codes, err = [done.returncode], done.stderr
        assert codes == [2]
        assert "interval_s must be positive" in err

    def test_degraded_verdict_on_impossible_target(self, capsys):
        # A 1-nanosecond p99 target cannot be met: the verdict must say so,
        # and a failing run-level verdict must fail the process.
        code = main(
            [
                "replay", *FAST, "--limit", "20", "--slo",
                "--slo-p99-ms", "delivery=0.000001", "--interval", "10000",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "SLO verdict:" in out
        verdict_line = [
            line for line in out.splitlines() if line.startswith("SLO verdict:")
        ][0]
        assert verdict_line.split(": ")[1] in {"DEGRADED", "OVERLOADED"}
        assert "breach" in out


class TestQosReplay:
    def test_qos_implies_live_and_prints_control_rows(self, capsys):
        # Tight admission (0.5/s) sheds most of the fan-out even though
        # the generous default SLO never degrades the ladder.
        code = main(
            [
                "replay", *FAST, "--limit", "20", "--qos",
                "--qos-rate", "0.5", "--interval", "10000",
            ]
        )
        assert code == 0  # generous default target: run-level verdict OK
        out = capsys.readouterr().out
        assert "qos=on" in out
        assert "rung=" in out  # the live dashboard shows the rung
        assert "qos rung" in out
        assert "deliveries shed" in out
        assert "revenue shed (bound)" in out
        shed_line = [
            line for line in out.splitlines() if "deliveries shed" in line
        ][0]
        assert int(shed_line.split("|")[-1]) > 0

    def test_qos_under_impossible_slo_degrades_and_fails(self, tmp_path, capsys):
        # The closed loop on every kind of backend: however far it
        # degrades, an unmeetable target fails the process and leaves a
        # black box that renders.
        for name in ("default", "shards2", "workers2-batch16"):
            flight = tmp_path / f"flight-{name}.jsonl"
            code = main(
                [
                    "replay", *FAST, "--limit", "20", *BACKENDS[name],
                    "--live", "--slo", "--qos", "--slo-p99-ms", "delivery=0.000001",
                    "--interval", "10000", "--trace", "--flight-out", str(flight),
                ]
            )
            assert code == 1, name  # the SLO is unmeetable even degraded
            out = capsys.readouterr().out
            degrade_line = [
                line for line in out.splitlines() if "qos degrade steps" in line
            ][0]
            assert int(degrade_line.split("|")[-1]) > 0, name
            assert main(["trace", "--dump", str(flight), "--top", "3"]) == 0, name
            assert "slowest traces" in capsys.readouterr().out

    def test_qos_floor_caps_the_ladder(self, capsys):
        code = main(
            [
                "replay", *FAST, "--limit", "20", "--qos",
                "--qos-floor", "1",
                "--slo-p99-ms", "delivery=0.000001", "--interval", "10000",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        rung_line = [
            line for line in out.splitlines() if "qos rung" in line
        ][0]
        assert "1:" in rung_line.split("|")[-1]


class TestEffectiveness:
    def test_effectiveness_table(self, capsys):
        code = main(["effectiveness", *FAST, "--max-posts", "25"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("system", "content-only", "popularity", "random"):
            assert name in out


class TestTracing:
    def test_trace_flags_require_trace(self, capsys):
        for stream in ([], ["--scenario", "flash-crowd"]):
            for extra in (
                ["--trace-out", "traces.jsonl"],
                ["--flight-out", "flight.jsonl"],
                ["--trace-sample", "0.5"],
            ):
                code = main(["replay", *FAST, "--limit", "5", *stream, *extra])
                assert code == 2
                assert "requires --trace" in capsys.readouterr().err

    def test_invalid_sample_rate_is_a_usage_error(self, capsys):
        code = main(
            ["replay", *FAST, "--limit", "5", "--trace", "--trace-sample", "2.0"]
        )
        assert code == 2
        assert "sample_rate" in capsys.readouterr().err

    def test_traced_replay_writes_export_and_flight_dump(self, tmp_path, capsys):
        from repro.obs.recorder import read_flight_dump

        traces = tmp_path / "traces.jsonl"
        flight = tmp_path / "flight.jsonl"
        code = main(
            [
                "replay", *FAST, "--limit", "10", "--trace",
                "--trace-sample", "1.0",
                "--trace-out", str(traces), "--flight-out", str(flight),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tracing: started=" in out
        header, exported = read_flight_dump(traces)
        assert header is None, "--trace-out is a bare export"
        # One trace per post: the router's route segment and the shard's.
        assert len({segment.trace_id for segment in exported}) == 10
        assert {segment.process for segment in exported} == {"router", "shard0"}
        header, dumped = read_flight_dump(flight)
        assert header["reason"] == "signal"
        assert header["num_traces"] == len(dumped) > 0

        # The trace subcommand renders either file.
        code = main(["trace", "--dump", str(traces), "--top", "3"])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "slowest traces" in rendered
        assert "critical path" in rendered
        assert "per-stage attribution" in rendered

    def test_traced_workers_replay_dumps_flight(self, tmp_path, capsys):
        flight = tmp_path / "flight.jsonl"
        code = main(
            [
                "replay", *FAST, "--limit", "10", "--workers", "2",
                "--trace", "--trace-sample", "1.0",
                "--flight-out", str(flight),
            ]
        )
        assert code == 0
        assert "tracing: started=" in capsys.readouterr().out
        from repro.obs.recorder import read_flight_dump

        header, segments = read_flight_dump(flight)
        assert header["reason"] == "signal"
        processes = {segment.process for segment in segments}
        assert "router" in processes
        assert any(p.startswith("worker") for p in processes)

    def test_shards_and_workers_replay_the_same_cluster(self, capsys):
        """--shards N and --workers N pick the router's transport and
        nothing else; --shards used to be ignored off the scenario path."""
        base = ["replay", *FAST, "--limit", "20"]
        assert main(base + ["--shards", "2"]) == 0
        local = capsys.readouterr().out
        assert "2 (in-process)" in local
        assert main(base + ["--workers", "2", "--batch", "16"]) == 0
        pool = capsys.readouterr().out
        assert "2 (worker processes)" in pool
        rows = summary_rows(local)
        assert len(rows) == 4
        assert rows == summary_rows(pool)

    def test_traced_live_breach_dumps_flight(self, tmp_path, capsys):
        from repro.obs.recorder import read_flight_dump

        for name in ("default", "shards2", "workers2", "workers2-batch16"):
            flight = tmp_path / f"flight-{name}.jsonl"
            code = main(
                [
                    "replay", *FAST, "--limit", "20", *BACKENDS[name], "--slo",
                    "--slo-p99-ms", "delivery=0.000001", "--interval", "10",
                    "--trace", "--trace-sample", "0.0",
                    "--flight-out", str(flight),
                ]
            )
            out = capsys.readouterr().out
            assert code == 1, "impossible SLO must fail the run"
            assert "SLO verdict" in out
            header, segments = read_flight_dump(flight)
            # The breach fired a dump mid-run; the failing verdict re-dumps
            # to the same path at exit, so that reason wins.
            assert header["reason"].startswith("verdict_")
            assert header["health"] is not None
            # Tail capture: 0% head sampling, yet segments finishing on a
            # shard inside the breach window are force-retained into the
            # black box — the grade reached every shard's tracer.
            assert any(
                seg.retained == "breach" and seg.process != "router"
                for seg in segments
            ), name
            assert main(["trace", "--dump", str(flight)]) == 0
            assert "slowest traces" in capsys.readouterr().out

    def test_trace_subcommand_requires_dump(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_subcommand_missing_file(self, capsys):
        code = main(["trace", "--dump", "/nonexistent/flight.jsonl"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_subcommand_empty_dump(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["trace", "--dump", str(empty)])
        assert code == 0
        assert "no trace segments" in capsys.readouterr().out


class TestScenarioReplay:
    SCENARIO = [
        "replay", *FAST, "--limit", "20",
        "--scenario", "flash-crowd", "--scenario-seed", "4",
    ]

    def test_scenario_replay_prints_totals(self, capsys):
        code = main(self.SCENARIO)
        assert code == 0
        out = capsys.readouterr().out
        assert "Replay summary" in out
        assert "flash-crowd" in out
        assert "scenario totals: posts=" in out

    @pytest.mark.parametrize(
        "storm",
        [
            ["--limit", "20", "--scenario", "flash-crowd", "--scenario-seed", "4"],
            ["--limit", "40", "--scenario", "flash-crowd", "--scenario", "click-flood",
             "--scenario-seed", "7"],
        ],
        ids=["flash-crowd", "flash-crowd+click-flood"],
    )
    def test_record_then_replay_is_byte_identical(self, storm, tmp_path, capsys):
        wl = tmp_path / "wl"
        main(["generate", *FAST, "--out", str(wl)])
        capsys.readouterr()
        for name, backend in BACKENDS.items():
            trace = tmp_path / f"storm-{name}.jsonl"
            code = main([
                "replay", "--workload", str(wl), *backend, *storm,
                "--record", str(trace),
            ])
            assert code == 0
            generating = capsys.readouterr().out
            code = main([
                "replay", "--workload", str(wl), *backend,
                "--replay-trace", str(trace),
            ])
            assert code == 0
            # The whole untimed table: the totals line does not count
            # clicks, which a mis-decoded click changes.
            replayed = untimed_table(capsys.readouterr().out)
            assert replayed == untimed_table(generating), name
            assert len(totals_line(generating)) == 1

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        code = main(["replay", *FAST, "--scenario", "meteor-strike"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_trace_from_wrong_workload_is_rejected(self, tmp_path, capsys):
        trace = tmp_path / "storm.jsonl"
        code = main(self.SCENARIO + ["--record", str(trace)])
        assert code == 0
        capsys.readouterr()
        code = main([
            "replay", *FAST, "--seed", "99", "--replay-trace", str(trace),
        ])
        assert code == 2
        assert "different workload" in capsys.readouterr().err

    def test_scenario_and_trace_are_exclusive(self, tmp_path, capsys):
        code = main(self.SCENARIO + ["--replay-trace", str(tmp_path / "x")])
        assert code == 2
        assert "pick one" in capsys.readouterr().err

    def test_shards_and_workers_are_exclusive(self, capsys):
        """A contradiction in the request — one usage error, whatever the
        command or the stream."""
        for command in (self.SCENARIO, ["replay", *FAST], TestCanary.BASE):
            code = main(command + ["--shards", "2", "--workers", "2"])
            assert code == 2
            assert "drop one" in capsys.readouterr().err

    def test_scenario_replay_on_sharded_backend(self, capsys):
        code = main(self.SCENARIO + ["--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 (in-process)" in out
        assert "scenario totals: posts=" in out


class TestCanary:
    BASE = [
        "canary", *FAST, "--limit", "20",
        "--scenario", "flash-crowd", "--fraction", "0.3",
    ]

    def test_identical_arms_pass_with_zero_diff(self, capsys):
        code = main(self.BASE)
        assert code == 0
        out = capsys.readouterr().out
        assert "canary verdict: PASS" in out
        assert "revenue diff" in out

    def test_regressive_arm_fails_nonzero(self, tmp_path, capsys):
        report = tmp_path / "canary.json"
        code = main(
            self.BASE
            + ["--arm", "charge_impressions=false", "--report-out", str(report)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "canary verdict: FAIL" in out
        assert "revenue dropped" in out
        import json as _json

        payload = _json.loads(report.read_text())
        assert payload["verdict"] == "fail"
        assert payload["treatment"]["revenue"] < payload["control"]["revenue"]

    def test_arm_override_must_name_a_config_field(self, capsys):
        code = main(self.BASE + ["--arm", "warp_factor=9"])
        assert code == 2
        assert "not an EngineConfig field" in capsys.readouterr().err

    def test_arm_override_must_be_key_value(self, capsys):
        code = main(self.BASE + ["--arm", "charge_impressions"])
        assert code == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_arm_bool_coercion_is_strict(self, capsys):
        code = main(self.BASE + ["--arm", "charge_impressions=maybe"])
        assert code == 2
        assert "expects a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arm, codes, said",
        [
            (
                ["context_max_age_s=600", "--mode", "incremental"],
                (0, 1),  # a verdict, either way
                "context_max_age_s=600.0",
            ),
            (["weights=1"], (2,), "--arm cannot set"),
            (["k=abc"], (2,), "--arm k expects int, got 'abc'"),
            (["mode=bogus"], (2,), "--arm mode expects EngineMode, got 'bogus'"),
        ],
        ids=["optional-float", "non-scalar", "bad-int", "bad-enum"],
    )
    def test_arm_coerces_by_the_declared_field_type(
        self, arm, codes, said, capsys
    ):
        """A value is parsed by the field's declared type, not by the
        control's current value; what cannot be parsed is a usage error
        (exit 2), never a traceback or a failed verdict."""
        override, *flags = arm
        code = main(self.BASE + ["--arm", override, *flags])
        assert code in codes
        captured = capsys.readouterr()
        if code == 2:
            assert said in captured.err
            assert "canary verdict" not in captured.out
        else:
            assert said in captured.out
            assert "canary verdict" in captured.out

    def test_arm_optional_field_takes_none(self, capsys):
        code = main(self.BASE + ["--arm", "profile_half_life_s=none"])
        assert code == 0
        assert "profile_half_life_s=None" in capsys.readouterr().out

    def test_canary_on_sharded_backend(self, capsys):
        code = main(self.BASE + ["--shards", "2"])
        assert code == 0
        assert "canary verdict: PASS" in capsys.readouterr().out

    def test_canary_on_worker_processes(self, capsys):
        code = main(self.BASE + ["--workers", "2"])
        assert code == 0
        assert "canary verdict: PASS" in capsys.readouterr().out


def replayed(argv: list[str]) -> tuple[int, str]:
    """Run ``repro replay`` with FAST inputs; (exit code, stdout)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(["replay", *FAST, "--limit", "20", *argv])
    return code, captured.getvalue()


class TestReplayConformance:
    """One replay path: every backend takes every option, and the books
    do not depend on which backend served them."""

    #: Option sets that must compose with every backend ("{F}", "{T}",
    #: "{P}" and "{M}" are the cell's flight-dump, trace-export,
    #: exposition and series paths). The LIVE target is generous on
    #: purpose: those cells test plumbing, not this machine's latency.
    #: GRADED cells are graded against ``--slo``'s default target, so
    #: they read this machine's wall clock: they run on one backend of
    #: each kind only, and a box too loaded to serve 20 posts at that
    #: p99 fails them.
    LIVE = ["--live", "--slo", "--slo-p99-ms", "delivery=5000",
            "--qos", "--qos-rate", "5"]
    GRADED = ["--live", "--slo", "--qos", "--qos-rate", "5", "--interval", "10000"]
    SCENARIOS = ["--scenario", "flash-crowd", "--scenario", "click-flood"]
    TRACED = ["--trace", "--trace-sample", "1.0", "--flight-out", "{F}",
              "--trace-out", "{T}"]
    LEARNED = ["--personalize", "linucb", "--scenario", "click-flood",
               "--prom-out", "{P}"]
    OPTIONS = {
        "plain": [],
        "live": LIVE,
        "graded": GRADED + TRACED,
        "scenario": SCENARIOS,
        "traced": TRACED,
        "learned": LEARNED,
        "all": LIVE + SCENARIOS + TRACED + ["--prom-out", "{P}", "--metrics-out", "{M}"],
    }
    FILES = {"{F}": "flight.jsonl", "{T}": "traces.jsonl", "{P}": "metrics.prom",
             "{M}": "series.jsonl"}

    @pytest.fixture(scope="class")
    def cell(self, tmp_path_factory):
        """``cell(backend, options)`` → (exit code, stdout, the path of each
        file placeholder), each cell replayed once per class."""
        root = tmp_path_factory.mktemp("conformance")
        cache: dict = {}

        def run(backend: str, options: str):
            key = (backend, options)
            if key not in cache:
                files = {
                    placeholder: root / f"{backend}-{options}-{name}"
                    for placeholder, name in self.FILES.items()
                }
                argv = [
                    str(files[arg]) if arg in files else arg
                    for arg in BACKENDS[backend] + self.OPTIONS[options]
                ]
                cache[key] = (*replayed(argv), files)
            return cache[key]

        return run

    #: (backend, options) cells: every pair, GRADED on one backend of
    #: each kind.
    CELLS = [
        (backend, options)
        for options in OPTIONS
        for backend in BACKENDS
        if options != "graded" or backend in ("default", "shards2", "workers2-batch16")
    ]

    @pytest.mark.parametrize(("backend", "options"), CELLS)
    def test_every_combination_runs(self, cell, backend, options, capsys):
        code, out, files = cell(backend, options)
        argv = self.OPTIONS[options]
        assert code == 0, out
        assert len(totals_line(out)) == 1
        assert len(summary_rows(out)) == 4
        for placeholder, path in files.items():
            if placeholder in argv:
                assert path.stat().st_size > 0, placeholder
        if "{F}" in argv:
            assert main(["trace", "--dump", str(files["{F}"])]) == 0
            assert "slowest traces" in capsys.readouterr().out
        if "--live" in argv:
            assert "win p99[delivery]" in out and "qos rung" in out
            assert "SLO verdict: OK" in out
        if "{P}" in argv:
            # Every sink counts once: registry counters are read from the
            # engine stats, so the exposition's deliveries are the table's.
            table = dict(row.split("|") for row in summary_rows(out))
            deliveries = exposed(files["{P}"], "repro_deliveries_total")
            assert deliveries == [table["deliveries"] + ".0"]
        if "linucb" in argv:
            # The learner's are read from one shard (its state is
            # replicated), and its fold count is a function of timestamps
            # alone: the same on every backend.
            syncs = exposed(files["{P}"], "repro_linucb_syncs_total")
            _, _, default = cell("default", options)
            assert syncs and syncs == exposed(default["{P}"], "repro_linucb_syncs_total")

    @pytest.mark.parametrize("options", [name for name in OPTIONS if name != "graded"])
    def test_one_shard_is_the_default(self, cell, options):
        """``--shards 1`` spells the default out: same table, row for
        row, apart from the rows that read a clock (and not under GRADED,
        where a wall-clock grade moves what the ladder sheds)."""
        _, default, _ = cell("default", options)
        _, one_shard, _ = cell("shards1", options)
        assert len(untimed_table(default)) >= 12
        assert untimed_table(one_shard) == untimed_table(default)

    @pytest.mark.parametrize("options", ["plain", "scenario", "traced"])
    def test_the_transport_does_not_move_the_books(self, cell, options):
        """Not asserted under ``--qos-rate``: in-process shards share one
        admission bucket, worker processes hold a copy each."""
        _, local, _ = cell("shards2", options)
        _, pool, _ = cell("workers2", options)
        assert summary_rows(pool) == summary_rows(local)
        assert totals_line(pool) == totals_line(local)

    def test_the_dashboard_counts_posts_not_shard_touches(self):
        code, out = replayed(["--shards", "3", "--live"])
        assert code == 0
        (posts_row,) = [line for line in out.splitlines() if line.startswith("posts ")]
        dashboard = [line for line in out.splitlines() if "win p99[delivery]" in line]
        assert f"posts={posts_row.split('|')[1].strip():>6}" in dashboard[-1]


class TestNoFlagIsSilentlyDropped:
    """On every stream kind a sink flag writes its file (or raises)."""

    SINKS = {
        "prom": ["--prom-out", "{P}"],
        "metrics": ["--metrics-out", "{P}"],
        "trace": ["--trace", "--trace-sample", "1.0", "--trace-out", "{P}"],
        "flight": ["--trace", "--flight-out", "{P}"],
    }

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("recorded") / "storm.jsonl"
        code, _ = replayed(["--scenario", "flash-crowd", "--record", str(trace)])
        assert code == 0
        return trace

    @pytest.mark.parametrize("stream", ["base", "scenario", "replay-trace"])
    @pytest.mark.parametrize("sink", SINKS)
    def test_sink_is_written(self, sink, stream, recorded, tmp_path):
        path = tmp_path / "sink.out"
        streams = {
            "base": ["--limit", "20"],
            "scenario": ["--limit", "20", "--scenario", "flash-crowd"],
            "replay-trace": ["--replay-trace", str(recorded)],
        }
        flags = [arg.replace("{P}", str(path)) for arg in self.SINKS[sink]]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(["replay", *FAST, *streams[stream], *flags])
        assert code == 0
        assert path.exists() and path.stat().st_size > 0


class TestNoFlagIsSilentlyCoerced:
    """A value a flag cannot mean is a usage error naming the flag, not a
    quietly different run."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["replay", "--slo", "--slo-p99-ms", "delivry=0.0001"], "'delivry'"),
            (["replay", "--limit", "-5"], "limit_posts must be >= 1, got -5"),
            (["canary", "--limit", "-5"], "limit_posts must be >= 1, got -5"),
            (["replay", "--batch", "0"], "--batch must be >= 1, got 0"),
            (["replay", "--batch", "-3"], "--batch must be >= 1, got -3"),
            (["replay", "--qos", "--qos-rate", "-5"], "--qos-rate must be >= 0"),
            (["replay", "--workers", "-1"], "--workers must be >= 0, got -1"),
            (["canary", "--shards", "-2"], "--shards must be >= 0, got -2"),
        ],
        ids=[
            "slo-stage", "limit", "canary-limit", "batch-0", "batch-neg",
            "qos-rate", "workers", "canary-shards",
        ],
    )
    def test_usage_error_names_the_flag(self, argv, named, capsys):
        command, *flags = argv
        assert main([command, *FAST, *flags]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "Replay summary" not in captured.out

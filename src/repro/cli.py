"""Command-line interface.

The subcommands cover the library's workflows end-to-end::

    python -m repro generate --users 300 --ads 2000 --posts 300 --out wl/
    python -m repro stats --workload wl/
    python -m repro replay --workload wl/ --mode shared --limit 200
    python -m repro effectiveness --workload wl/ --max-posts 100

``replay``, ``canary`` and ``effectiveness`` also accept generation flags
directly (omit ``--workload``) for one-shot runs.

``replay`` is one path: pick a stream (the workload's own, ``--scenario``
compositions over it, or a ``--replay-trace`` recording), build one
backend — a :class:`~repro.cluster.router.Router` over one in-process
shard, ``--shards N`` of them or ``--workers N`` processes — drive it,
print one table. Every other flag is an option of that path and composes
with every backend and stream:

* ``--live`` prints a dashboard line per sampling interval of *stream*
  time from the router's merged :class:`~repro.obs.registry.MetricsRegistry`;
  ``--slo`` grades each interval (``--slo-p99-ms stage=ms``,
  ``--slo-min-dps``) and ends with an OK / DEGRADED / OVERLOADED verdict
  — a failing one exits nonzero; ``--metrics-out`` appends one JSON line
  per interval, ``--prom-out`` writes the final snapshot as Prometheus text.
* ``--qos`` closes the loop: each raw grade steps every shard's
  :class:`~repro.qos.controller.QosController` ladder once
  (:meth:`~repro.cluster.router.Router.observe_health`) and, with
  ``--qos-rate``, value-aware admission stands in front of the fan-out.
* ``--trace`` attaches distributed request tracing (:mod:`repro.obs.trace`):
  head-sample ``--trace-sample``, tail-capture the interesting rest,
  export with ``--trace-out``, arm the flight recorder with
  ``--flight-out``. ``repro trace --dump PATH`` renders either file.
"""

from __future__ import annotations

import argparse
import sys
import typing
from collections.abc import Sequence
from pathlib import Path

from repro.core.config import EngineConfig, EngineMode
from repro.datagen.workload import Workload, WorkloadConfig, generate_workload
from repro.errors import ConfigError, ReproError
from repro.eval.report import ascii_table
from repro.index.factory import SEARCHER_KINDS
from repro.io.serialize import load_workload, save_workload

#: Where every engine flag's default comes from: one copy, the config's.
_DEFAULTS = EngineConfig()


def _add_generation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=300)
    parser.add_argument("--ads", type=int, default=2000)
    parser.add_argument("--posts", type=int, default=300)
    parser.add_argument("--topics", type=int, default=20)
    parser.add_argument("--vocab", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=7)


def _workload_from_args(args: argparse.Namespace) -> Workload:
    if getattr(args, "workload", None):
        return load_workload(args.workload)
    return generate_workload(
        WorkloadConfig(
            num_users=args.users,
            num_ads=args.ads,
            num_posts=args.posts,
            num_topics=args.topics,
            vocab_size=args.vocab,
            seed=args.seed,
        )
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    save_workload(args.out, workload)
    print(f"saved workload to {args.out}")
    print(ascii_table(
        ["statistic", "value"],
        [[key, value] for key, value in workload.stats().items()],
    ))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    workload = load_workload(args.workload)
    print(ascii_table(
        ["statistic", "value"],
        [[key, value] for key, value in workload.stats().items()],
        title=f"Workload statistics: {args.workload}",
    ))
    return 0


def _parse_slo_targets(entries: Sequence[str] | None) -> dict[str, float]:
    """Parse repeated ``--slo-p99-ms stage=ms`` flags into a target map."""
    targets: dict[str, float] = {}
    for entry in entries or ():
        stage, sep, value = entry.partition("=")
        if not sep or not stage.strip():
            raise ConfigError(
                f"--slo-p99-ms expects stage=milliseconds, got {entry!r}"
            )
        try:
            targets[stage.strip()] = float(value)
        except ValueError as error:
            raise ConfigError(
                f"--slo-p99-ms expects a numeric target, got {entry!r}"
            ) from error
    return targets


def _dashboard_line(snapshot, report, qos_summary=None) -> str:
    """One fixed-width live dashboard line per sampling interval."""
    delivery = snapshot.windows.get("stage_delivery")
    p99_ms = delivery.p99 * 1e3 if delivery is not None and delivery.count else 0.0
    parts = [
        f"t={snapshot.at:>10.1f}s",
        f"posts={int(snapshot.counters.get('posts', 0)):>6d}",
        f"deliveries={int(snapshot.counters.get('deliveries', 0)):>8d}",
        f"win p99[delivery]={p99_ms:8.3f}ms",
    ]
    if report is not None:
        parts.append(f"dps={report.deliveries_per_s:>9.1f}")
        parts.append(f"burn={report.burn_rate:5.2f}")
        parts.append(f"[{report.state.value.upper()}]")
    if qos_summary is not None:
        parts.append(f"rung={qos_summary['rung']}:{qos_summary['rung_name']}")
    return "  ".join(parts)


def _build_qos_controller(args: argparse.Namespace):
    """Wire the ``--qos`` flags into a QoS controller (None without --qos)."""
    if args.qos_rate < 0.0:
        raise ConfigError(
            f"--qos-rate must be >= 0 (0 disables admission), got {args.qos_rate:g}"
        )
    if not args.qos:
        return None
    from repro.qos import AdmissionController, DegradationLadder, QosController

    admission = None
    if args.qos_rate > 0.0:
        admission = AdmissionController(
            rate_per_s=args.qos_rate,
            burst_s=args.qos_burst_s,
            max_queue_s=args.qos_queue_s,
        )
    return QosController(
        ladder=DegradationLadder(floor=args.qos_floor),
        admission=admission,
        recover_after=args.qos_recover_after,
    )


def _build_request_tracer(args: argparse.Namespace):
    """Wire the ``--trace`` flags into a RequestTracer (None without
    --trace; the dependent flags then raise instead of silently no-op)."""
    if not args.trace:
        for value, flag in (
            (args.trace_out, "--trace-out"),
            (args.flight_out, "--flight-out"),
            (args.trace_sample, "--trace-sample"),
        ):
            if value is not None:
                raise ConfigError(
                    f"{flag} requires --trace (tracing is off by default)"
                )
        return None
    from repro.obs.trace import RequestTracer

    sample = args.trace_sample if args.trace_sample is not None else 0.01
    return RequestTracer(sample_rate=sample, seed=args.seed, process="main")


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """What ``replay`` and ``canary`` share: the workload, the engine
    config, the stream composed over it and the backend that serves it."""
    _add_generation_flags(parser)
    parser.add_argument("--workload", help="saved workload directory")
    parser.add_argument(
        "--mode",
        choices=[mode.value for mode in EngineMode],
        default=_DEFAULTS.mode.value,
    )
    parser.add_argument(
        "--searcher",
        choices=list(SEARCHER_KINDS),
        default=_DEFAULTS.searcher,
        help="top-k searcher for every index probe: 'vector' (the default) "
        "runs the compact numpy hot path, 'ta' is the pure-Python "
        "reference oracle",
    )
    parser.add_argument("--k", type=int, default=_DEFAULTS.k)
    parser.add_argument("--limit", type=int, help="base-stream posts to drive")
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="compose a named adversarial scenario over the base stream "
        "(repeatable; flash-crowd, celebrity-spike, budget-burst, "
        "geo-wave, click-flood; default: the base stream alone)",
    )
    parser.add_argument(
        "--scenario-seed",
        type=int,
        default=0,
        help="seed for the scenario generators (not the workload's --seed)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="user shards behind the router, hosted in this process "
        "(default: one — the single engine)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="host N user shards in worker processes behind the same "
        "router instead",
    )


def _backend_from_args(args: argparse.Namespace) -> dict[str, int]:
    """The ``build_backend`` shape ``--shards`` / ``--workers`` ask for."""
    for flag, count in (("--shards", args.shards), ("--workers", args.workers)):
        if count < 0:
            raise ConfigError(f"{flag} must be >= 0, got {count}")
    if args.shards and args.workers:
        raise ConfigError(
            "--shards and --workers each say where the shards live — drop one"
        )
    return {"shards": args.shards or 1, "workers": args.workers}


def _replay_stream(args: argparse.Namespace, workload: Workload):
    """The stream ``replay`` drives: a recorded trace, or the base stream
    with the ``--scenario`` compositions over it (none by default)."""
    from repro.scenarios import (
        build_scenario_stream,
        read_trace,
        workload_fingerprint,
        write_trace,
    )

    if args.replay_trace:
        if args.scenario:
            raise ConfigError(
                "--replay-trace replays a recorded stream; --scenario "
                "generates a fresh one — pick one"
            )
        stream = read_trace(args.replay_trace)
        expected = workload_fingerprint(workload)
        if stream.workload_fingerprint != expected:
            raise ConfigError(
                f"trace was recorded over a different workload "
                f"(trace {stream.workload_fingerprint}, this run {expected})"
            )
    else:
        stream = build_scenario_stream(
            workload,
            args.scenario or [],
            seed=args.scenario_seed,
            limit_posts=args.limit,
        )
    if args.record:
        count = write_trace(args.record, stream)
        print(f"recorded {count} events to {args.record}")
    return stream


def _cmd_replay(args: argparse.Namespace) -> int:
    """Drive one stream through one backend and report it: every flag is
    an option of this one path, on every backend and stream kind.

    The canonical ``scenario totals:`` line at the end is the replay
    contract: a recorded trace replayed on the same backend reproduces
    it byte-identically (CI diffs the two lines).
    """
    import json
    from contextlib import ExitStack

    from repro.obs.health import HealthMonitor, HealthState, SloSpec
    from repro.obs.prometheus import TimeseriesWriter, render_prometheus
    from repro.obs.registry import MetricsRegistry
    from repro.scenarios import ScenarioDriver, ScriptedClick, build_backend
    from repro.util.timers import LatencyRecorder

    if args.batch < 1:
        raise ConfigError(f"--batch must be >= 1, got {args.batch}")
    targets = _parse_slo_targets(args.slo_p99_ms)
    if not targets and args.slo_min_dps <= 0.0:
        # A bare --slo still needs something to judge: a permissive
        # default target on the end-to-end delivery stage.
        targets = {"delivery": 50.0}
    # Validated before anything is built: a misspelt stage exits 2.
    slo = SloSpec(
        stage_p99_ms=targets, min_deliveries_per_s=max(args.slo_min_dps, 0.0)
    )
    workload = _workload_from_args(args)
    shape = _backend_from_args(args)
    request_tracer = _build_request_tracer(args)
    controller = _build_qos_controller(args)
    stream = _replay_stream(args, workload)
    events = stream.events
    config = EngineConfig(
        mode=EngineMode(args.mode),
        k=args.k,
        searcher=args.searcher,
        # Click intents resolve against the served slates.
        collect_deliveries=any(isinstance(e, ScriptedClick) for e in events),
        charge_impressions=not args.no_charging,
        personalize=args.personalize,
        alpha_ucb=args.alpha_ucb,
        linucb_sync_interval_s=args.linucb_sync,
    )
    grading = args.slo or controller is not None  # --qos reacts to grades
    registry = interval = None
    if grading or args.live or args.metrics_out or args.prom_out:
        span = events[-1].timestamp - events[0].timestamp
        interval = args.interval if args.interval else max(span / 12.0, 1e-6)
        window = args.window if args.window else interval * 5.0
        registry = MetricsRegistry(window_s=window)
        print(
            f"live replay: mode={args.mode} interval={interval:g}s "
            f"window={window:g}s slo={'on' if grading else 'off'} "
            f"qos={'on' if controller else 'off'}"
        )
    writer = TimeseriesWriter(args.metrics_out) if args.metrics_out else None

    with ExitStack() as stack:
        backend = build_backend(
            workload,
            config,
            **shape,
            stack=stack,
            metrics=registry,
            qos=controller,
            request_tracer=request_tracer,
            flight_path=args.flight_out,
        )
        monitor = None
        dumped: list[str] = []

        def dump_flight(reason: str) -> None:
            # The black box, from the cluster's roll-ups (every shard's
            # segments, ledgers, windows); at most one dump per reason.
            if args.flight_out and reason not in dumped:
                dumped.append(reason)
                backend.dump_flight(
                    args.flight_out,
                    reason=reason,
                    health=monitor.summary() if monitor else None,
                )

        if grading:
            monitor = HealthMonitor(
                lambda: backend.metrics,  # re-merged from every shard
                slo,
                # Raw-grade breach: snapshot the black box at the *first*
                # bad interval, not the hysteresis-confirmed one.
                on_breach=lambda report: dump_flight("slo_breach"),
            )

        def on_interval(now: float, wall_seconds: float) -> None:
            snapshot = backend.metrics.snapshot(now)
            report = None
            if monitor is not None:
                report = monitor.evaluate(now, wall_seconds=wall_seconds)
                # Closed loop: the raw grade steps every ladder once and
                # opens or closes the breach window on every tracer.
                backend.observe_health(report.grade)
            print(_dashboard_line(snapshot, report, backend.qos_summary()))
            if writer is not None:
                writer.append(snapshot, health=report)

        driver = ScenarioDriver(backend, workload, batch_size=args.batch)
        totals = driver.run(events, interval_s=interval, on_interval=on_interval)

        stats = backend.cluster_stats()
        latency = LatencyRecorder(samples=driver.post_latencies)
        sample = "post" if driver.batch_size == 1 else "batch"
        wall = max(totals.wall_seconds, 1e-9)
        rows: list[list[object]] = [
            ["mode", args.mode],
            ["searcher", args.searcher],
            ["batch size", driver.batch_size],
            ["posts", stats.posts],
            ["deliveries", stats.deliveries],
            ["deliveries/s", round(stats.deliveries / wall, 1)],
            [f"{sample} p50 (ms)", round(latency.p50() * 1e3, 3)],
            [f"{sample} p99 (ms)", round(latency.p99() * 1e3, 3)],
            ["fallback rate", round(stats.fallback_rate(), 4)],
            ["impressions", stats.impressions],
            ["revenue", round(stats.revenue, 2)],
            ["wall seconds", round(totals.wall_seconds, 3)],
        ]
        if backend.num_shards > 1:
            where = "worker processes" if args.workers else "in-process"
            rows.extend([
                ["shards", f"{backend.num_shards} ({where})"],
                ["amplification", round(backend.amplification(), 3)],
                ["load imbalance", round(backend.load_imbalance(), 3)],
            ])
        if monitor is not None:
            summary = monitor.summary()
            rows.extend([
                ["intervals", summary["intervals"]],
                ["violating intervals", summary["violating_intervals"]],
                ["compliance", round(summary["compliance"], 4)],
                ["burn rate", round(summary["burn_rate"], 3)],
            ])
            if writer is not None:
                writer.append_summary(summary)
        if controller is not None:
            qos = backend.qos_summary()
            rows.extend([
                ["qos rung", f"{qos['rung']}:{qos['rung_name']}"],
                ["qos degrade steps", qos["degrade_steps"]],
                ["qos recover steps", qos["recover_steps"]],
                ["deliveries shed", stats.deliveries_shed],
                ["deliveries degraded", stats.deliveries_degraded],
                ["revenue shed (bound)", round(stats.revenue_shed_upper_bound, 4)],
            ])
        if args.scenario or args.replay_trace:
            rows.extend([
                ["scenarios", ",".join(stream.scenarios) or "(trace)"],
                ["scenario seed", stream.seed],
                ["events", len(events)],
                *totals.rows(),
            ])
        print(ascii_table(["metric", "value"], rows, title="Replay summary"))
        print(f"scenario totals: {totals.canonical()}")

        if args.prom_out:
            _write_text(args.prom_out, render_prometheus(backend.metrics.snapshot()))
            print(f"wrote Prometheus exposition to {args.prom_out}")
        if writer is not None:
            print(f"wrote {writer.rows} timeseries rows to {args.metrics_out}")
        exit_code = 0
        if monitor is not None:
            verdict = monitor.verdict()
            print(f"SLO verdict: {verdict.value.upper()}")
            for report in monitor.reports:
                for breach in report.breaches:
                    print(f"  breach @ t={report.at:.1f}s: {breach}")
            # A failing run-level verdict fails the process: CI and scripts
            # gate on the exit code, not on scraping the verdict line.
            if verdict is not HealthState.OK:
                # The black box for the failing run, dumped before exit.
                dump_flight(f"verdict_{verdict.value}")
                exit_code = 1
        if request_tracer is not None:
            if args.trace_out:
                segments = backend.request_traces()
                _write_text(
                    args.trace_out,
                    "".join(json.dumps(s.to_dict()) + "\n" for s in segments),
                )
                print(f"wrote {len(segments)} trace segments to {args.trace_out}")
            if args.flight_out:
                if not dumped:  # healthy run: still honour --flight-out
                    dump_flight("signal")
                print(f"wrote flight dump ({dumped[-1]}) to {args.flight_out}")
            summary = backend.request_tracer.summary()
            print(
                f"tracing: started={summary['started']} "
                f"finished={summary['finished']} retained={summary['retained']} "
                f"ring={summary['ring']} dropped={summary['dropped']}"
            )
    return exit_code


def _coerce_override(name: str, raw: str) -> object:
    """Parse an ``--arm name=value`` string by the field's declared type
    in :class:`EngineConfig`, so the treatment config stays validated:
    an Optional field also takes ``none``, a non-scalar field is refused,
    and a value that does not parse is a usage error."""
    known = typing.get_type_hints(EngineConfig)
    if name not in known:
        raise ConfigError(
            f"--arm {name!r} is not an EngineConfig field; known: {sorted(known)}"
        )
    declared = known[name]
    options = typing.get_args(declared)
    if type(None) in options:
        if raw.lower() == "none":
            return None
        (declared,) = [kind for kind in options if kind is not type(None)]
    if declared is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"--arm {name} expects a boolean, got {raw!r}")
    if declared not in (int, float, str, EngineMode):
        raise ConfigError(
            f"--arm {name} is a {declared.__name__}, which --arm cannot set"
        )
    try:
        return declared(raw)
    except ValueError:
        raise ConfigError(
            f"--arm {name} expects {declared.__name__}, got {raw!r}"
        ) from None


def _cmd_canary(args: argparse.Namespace) -> int:
    """Drive a canary A/B rollout over an adversarial stream and gate on
    the cohort's paired revenue/latency diff."""
    from dataclasses import replace

    from repro.scenarios import build_scenario_stream, run_canary

    workload = _workload_from_args(args)
    shape = _backend_from_args(args)
    control = EngineConfig(
        mode=EngineMode(args.mode),
        k=args.k,
        searcher=args.searcher,
        collect_deliveries=True,
    )
    overrides: dict[str, object] = {}
    for item in args.arm or []:
        name, separator, raw = item.partition("=")
        if not separator:
            raise ConfigError(f"--arm expects NAME=VALUE, got {item!r}")
        name = name.strip()
        overrides[name] = _coerce_override(name, raw.strip())
    treatment = replace(control, **overrides) if overrides else control
    stream = build_scenario_stream(
        workload,
        args.scenario or [],
        seed=args.scenario_seed,
        limit_posts=args.limit,
    )
    report = run_canary(
        workload,
        stream.events,
        control_config=control,
        treatment_config=treatment,
        fraction=args.fraction,
        seed=args.canary_seed,
        **shape,
        max_revenue_drop=args.max_revenue_drop,
        max_p99_ratio=args.max_p99_ratio,
    )
    if args.report_out:
        _write_text(args.report_out, report.to_json() + "\n")
        print(f"wrote canary report to {args.report_out}")
    rows = [
        ["scenarios", ",".join(stream.scenarios) or "(base stream)"],
        ["cohort", f"{report.cohort_size}/{report.total_users} users"],
        ["arm overrides", ", ".join(f"{k}={v}" for k, v in overrides.items()) or "(none)"],
        ["control revenue", round(report.control.revenue, 4)],
        ["treatment revenue", round(report.treatment.revenue, 4)],
        ["revenue diff", report.revenue_diff],
        ["revenue drop", f"{report.revenue_drop_fraction:.2%}"],
        ["control clicks", report.control.clicks],
        ["treatment clicks", report.treatment.clicks],
        ["control p99 (ms)", round(report.control.p99_ms, 3)],
        ["treatment p99 (ms)", round(report.treatment.p99_ms, 3)],
    ]
    print(ascii_table(["metric", "value"], rows, title="Canary rollout"))
    print(f"canary verdict: {report.verdict.upper()}")
    for reason in report.reasons:
        print(f"  {reason}")
    return 0 if report.verdict == "pass" else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a flight dump / trace export: slowest-trace table, the
    slowest trace's critical path, and its per-stage attribution."""
    from repro.obs.recorder import read_flight_dump
    from repro.obs.trace import group_traces

    header, segments = read_flight_dump(args.dump)
    if header is not None:
        tracer_info = header.get("tracer") or {}
        print(
            f"flight dump: reason={header.get('reason')} "
            f"traces={header.get('num_traces')} "
            f"process={tracer_info.get('process', '?')} "
            f"dropped={tracer_info.get('dropped', 0)}"
        )
    if not segments:
        print("no trace segments in dump")
        return 0

    grouped = group_traces(segments)
    summaries = []
    for trace_id, parts in grouped.items():
        start = min(part.start for part in parts)
        end = max(part.start + part.duration_s for part in parts)
        summaries.append({
            "trace_id": trace_id,
            "parts": parts,
            "start": start,
            "duration_ms": (end - start) * 1e3,
            "spans": sum(len(part.spans) for part in parts),
            "processes": sorted({part.process for part in parts}),
            "status": (
                "error"
                if any(part.status == "error" for part in parts)
                else "ok"
            ),
            "retained": next(
                (part.retained for part in parts if part.retained), None
            ),
        })
    summaries.sort(key=lambda row: row["duration_ms"], reverse=True)

    top = summaries[: max(args.top, 1)]
    print(ascii_table(
        ["trace", "ms", "segments", "spans", "processes", "status", "retained"],
        [
            [
                f"{row['trace_id']:016x}",
                round(row["duration_ms"], 3),
                len(row["parts"]),
                row["spans"],
                ",".join(row["processes"]),
                row["status"],
                row["retained"] or "-",
            ]
            for row in top
        ],
        title=f"slowest traces ({len(grouped)} total)",
    ))

    slowest = summaries[0]
    print(
        f"critical path — trace {slowest['trace_id']:016x} "
        f"({slowest['duration_ms']:.3f} ms, status={slowest['status']}, "
        f"retained={slowest['retained'] or '-'})"
    )
    path_rows: list[list[object]] = []
    for part in slowest["parts"]:
        offset_ms = (part.start - slowest["start"]) * 1e3
        path_rows.append([
            f"{offset_ms:+.3f}",
            part.process,
            f"{part.name}",
            round(part.duration_s * 1e3, 3),
            part.status,
            "",
        ])
        for span in sorted(part.spans, key=lambda span: span.offset_s):
            path_rows.append([
                f"{(offset_ms + span.offset_s * 1e3):+.3f}",
                "",
                f"  {span.name} [{span.kind}]",
                round(span.seconds * 1e3, 3),
                "",
                f"x{span.count}",
            ])
    print(ascii_table(
        ["offset ms", "process", "segment / span", "ms", "status", "count"],
        path_rows,
    ))

    stage_totals: dict[str, tuple[float, int]] = {}
    for part in slowest["parts"]:
        for span in part.spans:
            if span.kind == "stage":
                total, count = stage_totals.get(span.name, (0.0, 0))
                stage_totals[span.name] = (
                    total + span.seconds, count + span.count
                )
    if stage_totals:
        total_all = sum(total for total, _count in stage_totals.values())
        print(ascii_table(
            ["stage", "ms", "count", "% of stage time"],
            [
                [
                    name,
                    round(total * 1e3, 3),
                    count,
                    round(100.0 * total / total_all, 1) if total_all else 0.0,
                ]
                for name, (total, count) in sorted(
                    stage_totals.items(), key=lambda item: -item[1][0]
                )
            ],
            title="per-stage attribution (slowest trace)",
        ))
    return 0


def _cmd_effectiveness(args: argparse.Namespace) -> int:
    from repro.baselines.base import BaselineState
    from repro.baselines.content_only import ContentOnlyRecommender
    from repro.baselines.engine_adapter import SystemRecommender
    from repro.baselines.popularity import PopularityRecommender
    from repro.baselines.profile_only import ProfileOnlyRecommender
    from repro.baselines.random_rec import RandomRecommender
    from repro.eval.harness import EffectivenessHarness

    workload = _workload_from_args(args)

    def state() -> BaselineState:
        return BaselineState(
            workload.build_corpus(),
            {user.user_id: user.home for user in workload.users},
        )

    recommenders = {
        "system": SystemRecommender(state()),
        "content-only": ContentOnlyRecommender(state()),
        "profile-only": ProfileOnlyRecommender(state()),
        "popularity": PopularityRecommender(state()),
        "random": RandomRecommender(state()),
    }
    if args.with_lda:
        from repro.baselines.lda_rec import LdaRecommender

        recommenders["lda"] = LdaRecommender.fit_on_posts(
            state(),
            [post.text for post in workload.posts],
            num_topics=workload.config.num_topics,
            iterations=args.lda_iterations,
        )
    harness = EffectivenessHarness(
        workload, k=args.k, max_posts=args.max_posts, fanout_cap=args.fanout_cap
    )
    results = harness.evaluate(recommenders)
    print(ascii_table(
        ["method", "P@k", "R@k", "F1", "NDCG", "MAP", "samples"],
        [result.row() for result in results],
        title=f"Effectiveness (k={args.k})",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-aware advertisement recommendation for "
        "high-speed social news feeding (ICDE'16 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate and save a workload")
    _add_generation_flags(generate)
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    stats = commands.add_parser("stats", help="describe a saved workload")
    stats.add_argument("--workload", required=True)
    stats.set_defaults(handler=_cmd_stats)

    replay = commands.add_parser(
        "replay", help="drive a stream through a backend, observe, measure"
    )
    _add_backend_flags(replay)
    replay.add_argument("--no-charging", action="store_true")
    replay.add_argument(
        "--personalize",
        choices=["static", "linucb"],
        default=_DEFAULTS.personalize,
        help="slate rerank strategy: 'linucb' layers a hybrid contextual "
        "bandit (one shared ridge model plus a smoothed per-ad CTR) over "
        "the mode's personalisation, learning online from click feedback "
        "(default: the static paper scoring)",
    )
    replay.add_argument(
        "--alpha-ucb",
        type=float,
        default=_DEFAULTS.alpha_ucb,
        help="LinUCB exploration width; 0 disables the bonus entirely "
        "(the slate is then byte-identical to --personalize static)",
    )
    replay.add_argument(
        "--linucb-sync",
        type=float,
        default=_DEFAULTS.linucb_sync_interval_s,
        help="bandit sync-epoch length in stream seconds: updates fold "
        "into the serving snapshot at each epoch boundary",
    )
    replay.add_argument(
        "--batch",
        type=int,
        default=1,
        help="consecutive posts sent as one dispatch (default 1 on every "
        "backend: a post is a dispatch and the latency rows time a post; "
        "raise it with --workers, where IPC is paid per dispatch)",
    )
    replay.add_argument(
        "--live",
        action="store_true",
        help="attach a live metrics registry; print one dashboard line "
        "per sampling interval of stream time",
    )
    replay.add_argument(
        "--slo",
        action="store_true",
        help="grade each interval against SLO targets and end with an "
        "OK/DEGRADED/OVERLOADED verdict (implies --live)",
    )
    replay.add_argument(
        "--interval",
        type=float,
        help="sampling interval in stream seconds (default: stream span / 12)",
    )
    replay.add_argument(
        "--window",
        type=float,
        help="trailing telemetry window in stream seconds (default: 5x interval)",
    )
    replay.add_argument(
        "--slo-p99-ms",
        action="append",
        metavar="STAGE=MS",
        help="per-stage windowed p99 target in ms (repeatable, "
        "e.g. --slo-p99-ms delivery=5)",
    )
    replay.add_argument(
        "--slo-min-dps",
        type=float,
        default=0.0,
        help="deliveries/s floor for the SLO (0 disables)",
    )
    replay.add_argument(
        "--qos",
        action="store_true",
        help="attach the QoS control plane: a degradation ladder stepped "
        "by interval health grades, plus admission control when "
        "--qos-rate is set (implies --live and SLO grading)",
    )
    replay.add_argument(
        "--qos-rate",
        type=float,
        default=0.0,
        help="admission token-bucket rate in deliveries per stream second "
        "(0 disables admission; the ladder still runs)",
    )
    replay.add_argument(
        "--qos-burst-s",
        type=float,
        default=1.0,
        help="admission burst capacity in seconds of rate",
    )
    replay.add_argument(
        "--qos-queue-s",
        type=float,
        default=0.0,
        help="bounded stream-time queue (debt) high-value batches may "
        "borrow into, in seconds of rate",
    )
    replay.add_argument(
        "--qos-floor",
        type=int,
        help="deepest degradation rung the ladder may reach "
        "(default: the full ladder, down to shedding)",
    )
    replay.add_argument(
        "--qos-recover-after",
        type=int,
        default=2,
        help="consecutive OK intervals required to climb back one rung",
    )
    replay.add_argument(
        "--metrics-out",
        help="append one JSON line per interval to this timeseries file "
        "(implies --live)",
    )
    replay.add_argument(
        "--prom-out",
        help="write the final snapshot in Prometheus text exposition "
        "format (implies --live)",
    )
    replay.add_argument(
        "--trace",
        action="store_true",
        help="attach distributed request tracing: head-sample a fraction "
        "of requests, tail-capture errors/slow/shed/degraded ones, and "
        "keep a flight-recorder ring per process",
    )
    replay.add_argument(
        "--trace-sample",
        type=float,
        metavar="RATE",
        help="head-sampling rate in [0, 1] (default 0.01; requires --trace)",
    )
    replay.add_argument(
        "--trace-out",
        help="write retained trace segments as JSONL (requires --trace; "
        "inspect with `repro trace --dump PATH`)",
    )
    replay.add_argument(
        "--flight-out",
        help="flight-recorder dump path, written on SLO breach, worker "
        "crash, or end of run (requires --trace)",
    )
    replay.add_argument(
        "--record",
        metavar="PATH",
        help="record the stream to a versioned JSONL trace before driving it",
    )
    replay.add_argument(
        "--replay-trace",
        metavar="PATH",
        help="replay a trace recorded with --record instead of "
        "generating; the workload must match the trace's fingerprint",
    )
    replay.set_defaults(handler=_cmd_replay)

    canary = commands.add_parser(
        "canary",
        help="A/B canary rollout: drive control and treatment configs "
        "with one adversarial stream, gate on the cohort's paired diff",
    )
    _add_backend_flags(canary)
    canary.add_argument(
        "--fraction",
        type=float,
        default=0.1,
        help="fraction of users hashed into the canary cohort",
    )
    canary.add_argument(
        "--canary-seed",
        type=int,
        default=0,
        help="salt for the user->arm hash (rotates the cohort)",
    )
    canary.add_argument(
        "--arm",
        action="append",
        metavar="NAME=VALUE",
        help="EngineConfig override for the treatment arm (repeatable, "
        "e.g. --arm personalize=linucb --arm k=5); no overrides runs "
        "an A/A check",
    )
    canary.add_argument(
        "--max-revenue-drop",
        type=float,
        default=0.02,
        help="fail the rollout when cohort revenue on treatment falls "
        "more than this fraction below control",
    )
    canary.add_argument(
        "--max-p99-ratio",
        type=float,
        help="fail when treatment post p99 exceeds control by this "
        "factor (off by default: wall-clock is noisy in CI)",
    )
    canary.add_argument(
        "--report-out",
        help="write the structured canary report as JSON",
    )
    canary.set_defaults(handler=_cmd_canary)

    trace = commands.add_parser(
        "trace", help="inspect a flight-recorder dump or trace export"
    )
    trace.add_argument(
        "--dump",
        required=True,
        help="path to a --flight-out dump or --trace-out export",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest traces to list",
    )
    trace.set_defaults(handler=_cmd_trace)

    effectiveness = commands.add_parser(
        "effectiveness", help="score the system and baselines vs ground truth"
    )
    _add_generation_flags(effectiveness)
    effectiveness.add_argument("--workload")
    effectiveness.add_argument("--k", type=int, default=10)
    effectiveness.add_argument("--max-posts", type=int, default=150)
    effectiveness.add_argument("--fanout-cap", type=int, default=3)
    effectiveness.add_argument("--with-lda", action="store_true")
    effectiveness.add_argument("--lda-iterations", type=int, default=30)
    effectiveness.set_defaults(handler=_cmd_effectiveness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

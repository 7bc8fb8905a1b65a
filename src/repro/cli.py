"""Command-line interface.

Four subcommands cover the library's workflows end-to-end::

    python -m repro generate --users 300 --ads 2000 --posts 300 --out wl/
    python -m repro stats --workload wl/
    python -m repro replay --workload wl/ --mode shared --limit 200
    python -m repro effectiveness --workload wl/ --max-posts 100

``replay`` and ``effectiveness`` also accept generation flags directly
(omit ``--workload``) for one-shot runs.

``replay --live`` switches on the live telemetry layer: a
:class:`~repro.obs.registry.MetricsRegistry` rides along with the engine
and a dashboard line prints at every sampling interval of *stream* time.
Add ``--slo`` to grade each interval against p99/throughput targets
(``--slo-p99-ms stage=ms``, ``--slo-min-dps``) and finish with an
OK / DEGRADED / OVERLOADED verdict; ``--metrics-out`` appends one JSON
line per interval and ``--prom-out`` writes the final snapshot in
Prometheus text exposition format. A failing run-level verdict exits
nonzero, so scripts and CI can gate on SLO compliance.

``replay --qos`` closes the loop: a
:class:`~repro.qos.controller.QosController` steps a degradation ladder
from the interval grades (shrink the over-fetch, shrink the slate, skip
the certificate fallback, serve candidates-only, shed) and, with
``--qos-rate``, puts a value-aware admission controller in front of the
fan-out. The dashboard line then shows the live rung.

``replay --trace`` attaches distributed request tracing (see
:mod:`repro.obs.trace`): head-sample ``--trace-sample`` of requests,
tail-capture the interesting rest (errors, tail latency, shed/degraded,
retries, failovers, breach intervals), export retained segments with
``--trace-out`` and arm the flight recorder with ``--flight-out``.
``repro trace --dump PATH`` reads either file back and renders the
slowest-trace table, the critical path and per-stage attribution.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.config import EngineConfig, EngineMode
from repro.datagen.workload import Workload, WorkloadConfig, generate_workload
from repro.errors import ConfigError, ReproError
from repro.eval.perf import run_perf
from repro.eval.report import ascii_table
from repro.index.factory import SEARCHER_KINDS
from repro.io.serialize import load_workload, save_workload


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


def _dashboard_line(snapshot, report, controller=None) -> str:
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
    if controller is not None:
        parts.append(
            f"rung={controller.rung_index}:{controller.rung.name}"
        )
    return "  ".join(parts)


def _build_qos_controller(args: argparse.Namespace):
    """Wire the ``--qos`` flags into a QoS controller (None without --qos)."""
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
    ladder = DegradationLadder(
        floor=args.qos_floor if args.qos_floor is not None else None
    )
    return QosController(
        ladder=ladder,
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


def _write_trace_export(path: str, segments) -> int:
    """Write retained trace segments as JSONL (the --trace-out sink;
    same line schema as flight dumps, so `repro trace` reads both)."""
    import json
    from pathlib import Path

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        for segment in segments:
            handle.write(json.dumps(segment.to_dict()) + "\n")
    return len(segments)


def _print_trace_summary(request_tracer) -> None:
    summary = request_tracer.summary()
    print(
        f"tracing: started={summary['started']} "
        f"finished={summary['finished']} retained={summary['retained']} "
        f"ring={summary['ring']} dropped={summary['dropped']}"
    )


def _replay_live(
    args: argparse.Namespace,
    workload: Workload,
    config: EngineConfig,
    request_tracer=None,
) -> int:
    """The ``replay --live`` path: windowed registry, interval dashboard,
    optional SLO grading and timeseries/Prometheus sinks."""
    from repro.obs.health import HealthMonitor, HealthState, SloSpec
    from repro.obs.prometheus import TimeseriesWriter, render_prometheus
    from repro.obs.registry import MetricsRegistry

    posts = workload.posts if args.limit is None else workload.posts[: args.limit]
    if not posts:
        raise ConfigError("no posts to replay (empty workload or --limit 0)")
    timestamps = [post.timestamp for post in posts]
    span = max(timestamps) - min(timestamps)
    interval = args.interval if args.interval else max(span / 12.0, 1e-6)
    window = args.window if args.window else interval * 5.0
    registry = MetricsRegistry(window_s=window)
    controller = _build_qos_controller(args)

    monitor = None
    recorder = None
    if request_tracer is not None and args.flight_out:
        from repro.obs.recorder import FlightRecorder

        # Providers are evaluated at dump time; `monitor` is assigned
        # just below, before any interval can fire.
        recorder = FlightRecorder(
            request_tracer,
            args.flight_out,
            health=lambda: monitor.summary() if monitor is not None else None,
            qos=lambda: controller.summary() if controller is not None else None,
            registry=lambda: registry.snapshot().to_dict(),
        )

    def on_breach(report) -> None:
        # Raw-grade breach: snapshot the black box at the *first* bad
        # interval (rate-limited to one dump per reason).
        if recorder is not None:
            recorder.dump("slo_breach")

    if args.slo or controller is not None:  # --qos needs grades to react to
        targets = _parse_slo_targets(args.slo_p99_ms)
        if not targets and args.slo_min_dps <= 0.0:
            # A bare --slo still needs something to judge: a permissive
            # default target on the end-to-end delivery stage.
            targets = {"delivery": 50.0}
        monitor = HealthMonitor(
            registry,
            SloSpec(
                stage_p99_ms=targets,
                min_deliveries_per_s=max(args.slo_min_dps, 0.0),
            ),
            on_breach=on_breach if request_tracer is not None else None,
        )
    writer = TimeseriesWriter(args.metrics_out) if args.metrics_out else None

    print(
        f"live replay: mode={args.mode} interval={interval:g}s "
        f"window={window:g}s slo={'on' if monitor else 'off'} "
        f"qos={'on' if controller else 'off'}"
    )

    def on_interval(now: float, wall_seconds: float) -> None:
        snapshot = registry.snapshot(now)
        report = (
            monitor.evaluate(now, wall_seconds=wall_seconds) if monitor else None
        )
        if controller is not None and report is not None:
            # Closed loop: the raw interval grade steps the ladder (the
            # controller applies its own hysteresis on top).
            controller.observe(report.grade)
        if request_tracer is not None and report is not None:
            # Segments finishing inside a breach window are force-kept.
            request_tracer.set_breach(report.grade is not HealthState.OK)
        print(_dashboard_line(snapshot, report, controller))
        if writer is not None:
            writer.append(snapshot, health=report)

    result = run_perf(
        workload,
        config,
        label=args.mode,
        limit_posts=args.limit,
        metrics_registry=registry,
        interval_s=interval,
        on_interval=on_interval,
        qos=controller,
        request_tracer=request_tracer,
    )

    rows: list[list[object]] = [
        ["mode", args.mode],
        ["posts", result.posts],
        ["deliveries", result.deliveries],
        ["deliveries/s", round(result.deliveries_per_s, 1)],
        ["post p50 (ms)", round(result.post_latency_p50_ms, 3)],
        ["post p99 (ms)", round(result.post_latency_p99_ms, 3)],
        ["fallback rate", round(result.fallback_rate, 4)],
        ["impressions", result.impressions],
    ]
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
        qos_summary = controller.summary()
        rows.extend([
            ["qos rung", f"{qos_summary['rung']}:{qos_summary['rung_name']}"],
            ["qos degrade steps", qos_summary["degrade_steps"]],
            ["qos recover steps", qos_summary["recover_steps"]],
            ["deliveries shed", result.deliveries_shed],
            ["deliveries degraded", result.deliveries_degraded],
            ["revenue shed (bound)", round(result.revenue_shed_upper_bound, 4)],
        ])
    print(ascii_table(["metric", "value"], rows, title="Replay summary"))
    if args.prom_out:
        from pathlib import Path

        text = render_prometheus(registry.snapshot())
        path = Path(args.prom_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
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
            if recorder is not None:
                # The black box for the failing run, dumped before exit.
                recorder.dump(f"verdict_{verdict.value}", force=True)
            exit_code = 1
    if request_tracer is not None:
        if args.trace_out:
            count = _write_trace_export(
                args.trace_out, list(request_tracer.retained)
            )
            print(f"wrote {count} trace segments to {args.trace_out}")
        if recorder is not None:
            if recorder.dumps == 0:  # healthy run: still honour --flight-out
                recorder.dump("signal")
            print(
                f"flight recorder: {recorder.dumps} dump(s) at {args.flight_out}"
            )
        _print_trace_summary(request_tracer)
    return exit_code


def _cluster_backend(args: argparse.Namespace) -> tuple[str, int]:
    """The ``build_backend`` flavour ``--workers N`` / ``--shards N``
    pick: the router over worker processes or over in-process shards."""
    if args.workers and args.shards:
        raise ConfigError("--workers and --shards pick different backends — drop one")
    if args.workers:
        return "procpool", args.workers
    if args.shards:
        return "sharded", args.shards
    return "single", 0


def _replay_cluster(
    args: argparse.Namespace,
    workload: Workload,
    config: EngineConfig,
    request_tracer=None,
) -> int:
    """The ``replay --workers N`` / ``--shards N`` path: drive the
    cluster router.

    The two flags pick the router's transport — real worker processes or
    in-process shards — and nothing else; the stream is dispatched in
    post batches so IPC is paid per batch, not per delivery. The
    live/SLO/QoS dashboards ride on the single-engine simulator and are
    not available here (yet) — combining them raises. ``--trace`` *is*
    supported: contexts ride inside the events, the router drains shard
    segments at the end, and a worker crash auto-dumps the flight
    recorder before the error surfaces.
    """
    from contextlib import ExitStack
    from time import perf_counter

    from repro.scenarios import build_backend

    backend, num_shards = _cluster_backend(args)
    if args.live or args.slo or args.qos or args.metrics_out or args.prom_out:
        raise ConfigError(
            "--workers/--shards drive the cluster router; the --live/--slo/"
            "--qos dashboards run on the single engine — drop one"
        )
    posts = workload.posts if args.limit is None else workload.posts[: args.limit]
    if not posts:
        raise ConfigError("no posts to replay (empty workload or --limit 0)")
    batch = max(args.batch, 1)
    router_options = {"request_tracer": request_tracer}
    if backend == "procpool" and request_tracer is not None:
        router_options["flight_path"] = args.flight_out
    started = perf_counter()
    with ExitStack() as stack:
        engine = build_backend(
            workload, config, backend=backend, num_shards=num_shards,
            stack=stack, **router_options,
        )
        for offset in range(0, len(posts), batch):
            engine.post_batch(posts[offset : offset + batch])
        elapsed = perf_counter() - started
        stats = engine.cluster_stats()
        imbalance = engine.load_imbalance()
        amplification = engine.amplification()
        if request_tracer is not None:
            # Pull shard segments while the shards are still reachable.
            traces = engine.request_traces()
            if args.flight_out:
                engine.dump_flight(args.flight_out, reason="signal")
    print(ascii_table(
        ["metric", "value"],
        [
            ["mode", args.mode],
            ["shards", num_shards],
            ["batch size", batch],
            ["posts", stats.posts],
            ["deliveries", stats.deliveries],
            ["posts/s", round(stats.posts / elapsed, 1)],
            ["deliveries/s", round(stats.deliveries / elapsed, 1)],
            ["impressions", stats.impressions],
            ["revenue", round(stats.revenue, 2)],
            ["amplification", round(amplification, 3)],
            ["load imbalance", round(imbalance, 3)],
        ],
        title=f"Replay summary ({backend} backend)",
    ))
    if request_tracer is not None:
        if args.trace_out:
            count = _write_trace_export(args.trace_out, traces)
            print(f"wrote {count} trace segments to {args.trace_out}")
        if args.flight_out:
            print(f"wrote flight dump to {args.flight_out}")
        _print_trace_summary(request_tracer)
    return 0


def _replay_scenario(
    args: argparse.Namespace, workload: Workload, config: EngineConfig
) -> int:
    """The ``replay --scenario`` / ``--replay-trace`` path: drive a
    composed adversarial stream (or a recorded trace of one) through the
    chosen backend and print the replay-contract totals.

    The canonical ``scenario totals:`` line at the end is the replay
    contract: a recorded trace replayed on the same backend reproduces
    it byte-identically (CI diffs the two lines).
    """
    from contextlib import ExitStack
    from dataclasses import replace

    from repro.scenarios import (
        ScenarioDriver,
        build_backend,
        build_scenario_stream,
        read_trace,
        workload_fingerprint,
        write_trace,
    )

    if args.live or args.slo or args.qos or args.trace or args.metrics_out:
        raise ConfigError(
            "--scenario/--replay-trace drive the scripted-event path; the "
            "--live/--slo/--qos/--trace dashboards run on the post-stream "
            "simulator — drop one side"
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
            args.scenario,
            seed=args.scenario_seed,
            limit_posts=args.limit,
        )
    if args.record:
        count = write_trace(args.record, stream)
        print(f"recorded {count} events to {args.record}")
    backend, num_shards = _cluster_backend(args)
    # Click-intent resolution reads the served slates off every result.
    config = replace(config, collect_deliveries=True)
    with ExitStack() as stack:
        engine = build_backend(
            workload, config, backend=backend, num_shards=num_shards, stack=stack
        )
        totals = ScenarioDriver(engine, workload).run(stream.events)
    rows = [
        ["backend", backend if num_shards == 0 else f"{backend}x{num_shards}"],
        ["scenarios", ",".join(stream.scenarios) or "(trace)"],
        ["scenario seed", stream.seed],
        ["events", len(stream.events)],
    ]
    rows.extend(totals.rows())
    rows.append(["wall seconds", round(totals.wall_seconds, 3)])
    print(ascii_table(["metric", "value"], rows, title="Scenario replay"))
    print(f"scenario totals: {totals.canonical()}")
    return 0


def _coerce_override(name: str, raw: str, current) -> object:
    """Parse an ``--arm name=value`` string against the control config's
    field type, so the treatment config stays validated."""
    if isinstance(current, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"--arm {name} expects a boolean, got {raw!r}")
    if isinstance(current, EngineMode):
        return EngineMode(raw)
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def _cmd_canary(args: argparse.Namespace) -> int:
    """Drive a canary A/B rollout over an adversarial stream and gate on
    the cohort's paired revenue/latency diff."""
    from dataclasses import fields, replace

    from repro.scenarios import build_scenario_stream, run_canary

    workload = _workload_from_args(args)
    control = EngineConfig(
        mode=EngineMode(args.mode),
        k=args.k,
        searcher=args.searcher,
        collect_deliveries=True,
    )
    known = {spec.name for spec in fields(EngineConfig)}
    overrides: dict[str, object] = {}
    for item in args.arm or []:
        name, separator, raw = item.partition("=")
        if not separator:
            raise ConfigError(f"--arm expects NAME=VALUE, got {item!r}")
        name = name.strip()
        if name not in known:
            raise ConfigError(
                f"--arm {name!r} is not an EngineConfig field; "
                f"known: {sorted(known)}"
            )
        overrides[name] = _coerce_override(
            name, raw.strip(), getattr(control, name)
        )
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
        backend="sharded" if args.shards else "single",
        num_shards=args.shards or 0,
        max_revenue_drop=args.max_revenue_drop,
        max_p99_ratio=args.max_p99_ratio,
    )
    if args.report_out:
        from pathlib import Path

        out = Path(args.report_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n", encoding="utf-8")
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


def _cmd_replay(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    config = EngineConfig(
        mode=EngineMode(args.mode),
        k=args.k,
        searcher=args.searcher,
        exact_fallback=not args.approximate,
        collect_deliveries=False,
        charge_impressions=not args.no_charging,
        personalize=args.personalize,
        alpha_ucb=args.alpha_ucb,
        linucb_sync_interval_s=args.linucb_sync,
    )
    if args.scenario or args.replay_trace:
        return _replay_scenario(args, workload, config)
    request_tracer = _build_request_tracer(args)
    if args.workers or args.shards:
        return _replay_cluster(args, workload, config, request_tracer)
    if args.live or args.slo or args.qos or args.metrics_out or args.prom_out:
        return _replay_live(args, workload, config, request_tracer)
    result = run_perf(
        workload,
        config,
        label=args.mode,
        limit_posts=args.limit,
        request_tracer=request_tracer,
    )
    print(ascii_table(
        ["metric", "value"],
        [
            ["mode", args.mode],
            ["searcher", args.searcher],
            ["posts", result.posts],
            ["deliveries", result.deliveries],
            ["deliveries/s", round(result.deliveries_per_s, 1)],
            ["post p50 (ms)", round(result.post_latency_p50_ms, 3)],
            ["post p99 (ms)", round(result.post_latency_p99_ms, 3)],
            ["fallback rate", round(result.fallback_rate, 4)],
            ["impressions", result.impressions],
            ["revenue", round(result.revenue, 2)],
        ],
        title="Replay summary",
    ))
    if request_tracer is not None:
        if args.trace_out:
            count = _write_trace_export(
                args.trace_out, list(request_tracer.retained)
            )
            print(f"wrote {count} trace segments to {args.trace_out}")
        if args.flight_out:
            from repro.obs.recorder import write_flight_dump

            write_flight_dump(
                args.flight_out,
                request_tracer.flight_traces(),
                reason="signal",
                extra={"tracer": request_tracer.summary()},
            )
            print(f"wrote flight dump to {args.flight_out}")
        _print_trace_summary(request_tracer)
    return 0


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

    replay = commands.add_parser("replay", help="replay a post stream, measure")
    _add_generation_flags(replay)
    replay.add_argument("--workload", help="saved workload directory")
    replay.add_argument(
        "--mode",
        choices=[mode.value for mode in EngineMode],
        default="shared",
    )
    replay.add_argument(
        "--searcher",
        choices=list(SEARCHER_KINDS),
        default="ta",
        help="top-k searcher for every index probe: 'vector' runs the "
        "compact numpy hot path, 'ta' is the pure-Python reference oracle",
    )
    replay.add_argument("--k", type=int, default=10)
    replay.add_argument("--limit", type=int, default=None)
    replay.add_argument(
        "--approximate",
        action="store_true",
        help="disable the exact fallback (production mode); read by the "
        "'ta' reference and INCREMENTAL — the vector SHARED kernel cuts "
        "the exact top-k and has no fallback to disable",
    )
    replay.add_argument("--no-charging", action="store_true")
    replay.add_argument(
        "--personalize",
        choices=["static", "linucb"],
        default="static",
        help="slate rerank strategy: 'linucb' layers a hybrid contextual "
        "bandit (one shared ridge model plus a smoothed per-ad CTR) over "
        "the mode's personalisation, learning online from click feedback "
        "(default: the static paper scoring)",
    )
    replay.add_argument(
        "--alpha-ucb",
        type=float,
        default=0.5,
        help="LinUCB exploration width; 0 disables the bonus entirely "
        "(the slate is then byte-identical to --personalize static)",
    )
    replay.add_argument(
        "--linucb-sync",
        type=float,
        default=300.0,
        help="bandit sync-epoch length in stream seconds: updates fold "
        "into the serving snapshot at each epoch boundary",
    )
    replay.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run N user shards as real worker processes behind the "
        "router (0 = in-process single engine; --shards runs the same "
        "router over in-process shards); incompatible with the "
        "--live/--slo/--qos dashboards",
    )
    replay.add_argument(
        "--batch",
        type=int,
        default=32,
        help="posts per dispatch batch on the --workers/--shards path "
        "(IPC is amortised per batch)",
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
        default=None,
        help="sampling interval in stream seconds (default: stream span / 12)",
    )
    replay.add_argument(
        "--window",
        type=float,
        default=None,
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
        default=None,
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
        default=None,
        help="append one JSON line per interval to this timeseries file "
        "(implies --live)",
    )
    replay.add_argument(
        "--prom-out",
        default=None,
        help="write the final snapshot in Prometheus text exposition "
        "format (implies --live)",
    )
    replay.add_argument(
        "--trace",
        action="store_true",
        help="attach distributed request tracing: head-sample a fraction "
        "of requests, tail-capture errors/slow/shed/degraded ones, and "
        "keep a flight-recorder ring per process (works with --workers)",
    )
    replay.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="head-sampling rate in [0, 1] (default 0.01; requires --trace)",
    )
    replay.add_argument(
        "--trace-out",
        default=None,
        help="write retained trace segments as JSONL (requires --trace; "
        "inspect with `repro trace --dump PATH`)",
    )
    replay.add_argument(
        "--flight-out",
        default=None,
        help="flight-recorder dump path, written on SLO breach, worker "
        "crash, or end of run (requires --trace)",
    )
    replay.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="compose a named adversarial scenario over the base stream "
        "(repeatable; flash-crowd, celebrity-spike, budget-burst, "
        "geo-wave, click-flood); switches replay onto the scripted path",
    )
    replay.add_argument(
        "--scenario-seed",
        type=int,
        default=0,
        help="seed for the scenario generators (the workload keeps its "
        "own --seed)",
    )
    replay.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="record the scripted stream to a versioned JSONL trace "
        "before driving it",
    )
    replay.add_argument(
        "--replay-trace",
        default=None,
        metavar="PATH",
        help="replay a trace recorded with --record instead of "
        "generating; the workload must match the trace's fingerprint",
    )
    replay.add_argument(
        "--shards",
        type=int,
        default=0,
        help="drive the router over N in-process shards (0 = single "
        "engine; --workers picks worker processes instead)",
    )
    replay.set_defaults(handler=_cmd_replay)

    canary = commands.add_parser(
        "canary",
        help="A/B canary rollout: drive control and treatment configs "
        "with one adversarial stream, gate on the cohort's paired diff",
    )
    _add_generation_flags(canary)
    canary.add_argument("--workload", help="saved workload directory")
    canary.add_argument(
        "--mode",
        choices=[mode.value for mode in EngineMode],
        default="shared",
    )
    canary.add_argument(
        "--searcher", choices=list(SEARCHER_KINDS), default="ta"
    )
    canary.add_argument("--k", type=int, default=10)
    canary.add_argument("--limit", type=int, default=None)
    canary.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="adversarial scenario(s) to stress both arms with "
        "(repeatable; default: the base stream alone)",
    )
    canary.add_argument("--scenario-seed", type=int, default=0)
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
        default=None,
        metavar="NAME=VALUE",
        help="EngineConfig override for the treatment arm (repeatable, "
        "e.g. --arm personalize=linucb --arm k=5); no overrides runs "
        "an A/A check",
    )
    canary.add_argument(
        "--shards",
        type=int,
        default=0,
        help="drive both arms on the in-process sharded router with N "
        "shards (0 = single engine)",
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
        default=None,
        help="fail when treatment post p99 exceeds control by this "
        "factor (off by default: wall-clock is noisy in CI)",
    )
    canary.add_argument(
        "--report-out",
        default=None,
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

"""Observability layer: stage tracers, quantile sketches, export sinks,
and the live telemetry stack (windowed metrics, SLO health, Prometheus).

See DESIGN.md § Observability and § Live telemetry & SLOs.
"""

from repro.obs.export import (
    read_stage_jsonl,
    stage_rows,
    stage_table,
    tracer_table,
    write_stage_jsonl,
)
from repro.obs.health import HealthMonitor, HealthReport, HealthState, SloSpec
from repro.obs.histogram import QuantileSketch
from repro.obs.prometheus import (
    TimeseriesWriter,
    export_cluster_gauges,
    metric_name,
    read_timeseries_jsonl,
    render_prometheus,
)
from repro.obs.recorder import (
    FlightRecorder,
    read_flight_dump,
    write_flight_dump,
)
from repro.obs.trace import (
    NOOP_REQUEST_TRACER,
    SPAN_KINDS,
    NoopRequestTracer,
    RequestTracer,
    Span,
    TraceContext,
    TraceSegment,
    group_traces,
    splitmix64,
    trace_id_for,
)
from repro.obs.registry import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    RegistrySnapshot,
    WindowStats,
)
from repro.obs.tracer import (
    STAGES,
    NoopTracer,
    RecordingTracer,
    Seam,
    StageStats,
    StageTracer,
)
from repro.obs.window import WindowedSketch

__all__ = [
    "NOOP_REQUEST_TRACER",
    "NULL_METRICS",
    "SPAN_KINDS",
    "STAGES",
    "FlightRecorder",
    "HealthMonitor",
    "HealthReport",
    "HealthState",
    "MetricsRegistry",
    "NoopRequestTracer",
    "NoopTracer",
    "NullMetrics",
    "QuantileSketch",
    "RecordingTracer",
    "RegistrySnapshot",
    "RequestTracer",
    "Seam",
    "SloSpec",
    "Span",
    "StageStats",
    "StageTracer",
    "TimeseriesWriter",
    "TraceContext",
    "TraceSegment",
    "WindowStats",
    "WindowedSketch",
    "export_cluster_gauges",
    "group_traces",
    "metric_name",
    "read_flight_dump",
    "read_stage_jsonl",
    "read_timeseries_jsonl",
    "render_prometheus",
    "splitmix64",
    "stage_rows",
    "stage_table",
    "trace_id_for",
    "tracer_table",
    "write_flight_dump",
    "write_stage_jsonl",
]

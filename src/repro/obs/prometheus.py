"""Prometheus text exposition and the interval timeseries JSONL sink.

Two render targets for one :class:`~repro.obs.registry.RegistrySnapshot`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` plus sample lines), counters as ``_total``,
  windowed histograms as summaries with ``quantile`` labels. A real
  deployment would serve this from an HTTP endpoint; here the CLI writes
  it to a file (``replay --prom-out``) so the format is exercised and
  scrape-able artefacts land next to the benchmark tables.
* :class:`TimeseriesWriter` — one JSON line per sampling interval (the
  :mod:`repro.obs.export` style: appendable, streamable, concatenable),
  carrying the snapshot plus the health report. ``benchmarks/results/
  t4_live_timeseries.jsonl`` is this format.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.health import HealthReport
    from repro.obs.registry import RegistrySnapshot

__all__ = [
    "TimeseriesWriter",
    "export_cluster_gauges",
    "metric_name",
    "read_timeseries_jsonl",
    "render_prometheus",
]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))


def metric_name(name: str, *, namespace: str = "repro") -> str:
    """Sanitise a registry name into a legal Prometheus metric name."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{namespace}_{cleaned}" if namespace else cleaned


def _format_value(value: float) -> str:
    # repr keeps full precision; Prometheus accepts Go-style floats.
    return repr(float(value))


def export_cluster_gauges(
    *, dispatch_seconds: list[float], imbalance: float
) -> dict[str, float]:
    """The router-side skew signals as registry gauges, which
    :func:`render_prometheus` exposes as ``repro_load_imbalance`` and
    ``repro_dispatch_seconds_shard_<i>``: the max/mean load imbalance and
    the per-shard dispatch busy time."""
    gauges = {"load_imbalance": float(imbalance)}
    for shard, seconds in enumerate(dispatch_seconds):
        gauges[f"dispatch_seconds_shard_{shard}"] = float(seconds)
    return gauges


def render_prometheus(
    snapshot: "RegistrySnapshot", *, namespace: str = "repro"
) -> str:
    """Render one snapshot in Prometheus text exposition format."""
    lines: list[str] = []
    for name in sorted(snapshot.counters):
        metric = metric_name(name, namespace=namespace) + "_total"
        lines.append(f"# HELP {metric} Cumulative {name} count.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(snapshot.counters[name])}")
    for name in sorted(snapshot.gauges):
        metric = metric_name(name, namespace=namespace)
        lines.append(f"# HELP {metric} Current {name}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(snapshot.gauges[name])}")
    for name in sorted(snapshot.windows):
        stats = snapshot.windows[name]
        metric = metric_name(name, namespace=namespace)
        lines.append(
            f"# HELP {metric} Trailing-window distribution of {name}."
        )
        lines.append(f"# TYPE {metric} summary")
        for quantile, attr in _QUANTILES:
            value = getattr(stats, attr)
            lines.append(
                f'{metric}{{quantile="{quantile}"}} {_format_value(value)}'
            )
        lines.append(f"{metric}_count {stats.count}")
        lines.append(f"{metric}_sum {_format_value(stats.mean * stats.count)}")
    return "\n".join(lines) + "\n"


class TimeseriesWriter:
    """Appendable JSONL sink: one snapshot (+ optional health) per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._rows = 0

    @property
    def rows(self) -> int:
        return self._rows

    def append(
        self,
        snapshot: "RegistrySnapshot",
        *,
        health: "HealthReport | None" = None,
        label: str = "interval",
    ) -> None:
        """Append one interval snapshot (and its health report, if any)."""
        row: dict = {"label": label, **snapshot.to_dict()}
        if health is not None:
            row["health"] = health.to_dict()
        with self.path.open("a", encoding="utf-8") as sink:
            sink.write(json.dumps(row, sort_keys=True) + "\n")
        self._rows += 1

    def append_summary(self, summary: dict, *, label: str = "summary") -> None:
        """Append a run-level roll-up line (e.g. the SLO compliance story)."""
        with self.path.open("a", encoding="utf-8") as sink:
            sink.write(json.dumps({"label": label, **summary}, sort_keys=True) + "\n")
        self._rows += 1


def read_timeseries_jsonl(path: str | Path) -> list[dict]:
    """Parse a timeseries JSONL file back into row dictionaries."""
    rows: list[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows

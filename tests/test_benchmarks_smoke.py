"""Smoke tests for the benchmark suite: every ``benchmarks/test_f*``
scenario must import and run at miniature scale.

The benchmark files live outside the tier-1 test run, so their code paths
could rot silently (API drift in ``helpers``/``conftest``, renamed config
knobs, broken report plumbing). Each scenario is loaded here with:

* the workload fixtures/factory replaced by miniature workloads (tiny
  corpus, few users, a dozen posts);
* ``save_table`` replaced by an in-memory collector, so mini-scale numbers
  never overwrite ``benchmarks/results/``;
* a shim for the pytest-benchmark fixture that just calls the function;
* one parametrization point per sweep — cross-sweep shape assertions are
  deliberately left to the full benchmark run, but the whole measured code
  path (engine build, replay, metric math) executes.

The T-series scenarios (stage breakdown, live timeseries, overload
control) are driven the same way, with their ``RESULTS_DIR`` pointed at a
temp dir — they write JSONL timeseries directly, not just tables. The
remaining benchmark modules (a*/b*) are import-checked.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import json
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.datagen.workload import WorkloadConfig, generate_workload

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
F_FILES = sorted(BENCH_DIR.glob("test_f*.py"))
# T-series modules are auto-discovered: each must declare ``SMOKE_MINI``
# (True = miniaturise and run here, False = import-check only), so a new
# benchmark can't land without deciding its smoke coverage.
T_FILES = sorted(BENCH_DIR.glob("test_t*.py"))
OTHER_FILES = sorted(
    path
    for path in BENCH_DIR.glob("test_*.py")
    if path not in F_FILES and path not in T_FILES
)

# Size knobs forced down to smoke scale; everything else passes through.
_MINI_CAPS = {
    "num_users": 24,
    "num_ads": 120,
    "num_posts": 16,
    "num_topics": 6,
    "vocab_size": 900,
    "follows_per_user": 4,
}
_MINI_LIMIT = 12
_MINI_EVENTS = 400


@functools.lru_cache(maxsize=32)
def _mini_workload_cached(items: frozenset):
    return generate_workload(WorkloadConfig(**dict(items)))


def mini_workload(**overrides):
    """A miniature stand-in for ``benchmarks.conftest.workload_with``."""
    params = dict(_MINI_CAPS)
    for key, value in overrides.items():
        if key in _MINI_CAPS:
            params[key] = min(value, _MINI_CAPS[key])
        elif key != "seed":
            params[key] = value
    params["seed"] = overrides.get("seed", 21)
    return _mini_workload_cached(frozenset(params.items()))


class BenchmarkShim:
    """Duck-types the pytest-benchmark fixture: runs the function once and
    exposes a real elapsed time as ``benchmark.stats.stats.mean``."""

    def __init__(self) -> None:
        self.extra_info: dict = {}
        self.stats = SimpleNamespace(stats=SimpleNamespace(mean=1e-9, min=1e-9))

    def _run(self, target, args, kwargs):
        started = time.perf_counter()
        result = target(*args, **(kwargs or {}))
        elapsed = max(time.perf_counter() - started, 1e-9)
        self.stats.stats.mean = elapsed
        self.stats.stats.min = elapsed
        return result

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1):
        return self._run(target, args, kwargs)

    def __call__(self, target, *args, **kwargs):
        return self._run(target, args, kwargs)


def load_benchmark_module(path: Path):
    """Import one benchmark file with the benchmarks dir importable (the
    files do ``from conftest import ...`` / ``from helpers import ...``)."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        name = f"_bench_smoke_{path.stem}"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH_DIR))


def miniaturise(module, saved: dict) -> None:
    """Swap the module's scale-bearing knobs for smoke-scale stand-ins."""
    if hasattr(module, "save_table"):
        module.save_table = lambda name, text: saved.__setitem__(name, text)
    if hasattr(module, "workload_with"):
        module.workload_with = mini_workload
    if hasattr(module, "LIMIT"):
        module.LIMIT = min(module.LIMIT, _MINI_LIMIT)
    if hasattr(module, "EVENTS"):
        # Replay-stream scenarios (T8): a smoke-length logged stream.
        module.EVENTS = min(module.EVENTS, _MINI_EVENTS)
    if hasattr(module, "BENCH_FILE"):
        # Perf-trajectory files (BENCH_*.json at the repo root) are
        # baselines for the CI regression gate; mini-scale numbers must
        # never overwrite them.
        module.BENCH_FILE = Path(tempfile.mkdtemp()) / module.BENCH_FILE.name


def first_parametrization(fn) -> dict:
    """First value of every ``@pytest.mark.parametrize`` on ``fn``."""
    point: dict = {}
    for mark in getattr(fn, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        argnames, argvalues = mark.args[0], mark.args[1]
        names = [name.strip() for name in argnames.split(",")]
        first = argvalues[0]
        if len(names) == 1:
            point[names[0]] = first
        else:
            point.update(zip(names, first))
    return point


def scenario_functions(module):
    return [
        fn
        for name, fn in vars(module).items()
        if name.startswith("test_") and inspect.isfunction(fn)
    ]


def run_scenarios(path, module) -> None:
    """Call every test function in ``module`` with smoke-scale fixtures."""
    functions = scenario_functions(module)
    assert functions, f"{path.name} defines no test functions"
    for fn in functions:
        kwargs = first_parametrization(fn)
        for name in inspect.signature(fn).parameters:
            if name == "benchmark":
                kwargs[name] = BenchmarkShim()
            elif name in ("default_workload", "small_workload"):
                kwargs[name] = mini_workload()
            elif name not in kwargs:
                pytest.fail(
                    f"{path.name}::{fn.__name__} takes unknown fixture "
                    f"{name!r} — teach the smoke driver about it"
                )
        fn(**kwargs)


@pytest.mark.parametrize("path", F_FILES, ids=[p.stem for p in F_FILES])
def test_f_scenario_runs_at_mini_scale(path):
    saved: dict = {}
    module = load_benchmark_module(path)
    miniaturise(module, saved)
    run_scenarios(path, module)


@pytest.mark.parametrize("path", T_FILES, ids=[p.stem for p in T_FILES])
def test_t_scenario_runs_at_mini_scale(path, tmp_path):
    saved: dict = {}
    module = load_benchmark_module(path)
    smoke = getattr(module, "SMOKE_MINI", None)
    if smoke is None:
        pytest.fail(
            f"{path.name} declares no SMOKE_MINI flag — set SMOKE_MINI = "
            f"True to run it here at mini scale, or SMOKE_MINI = False "
            f"for an import-only check"
        )
    if smoke is False:
        assert scenario_functions(module), (
            f"{path.name} opted out of the mini run but defines no test "
            f"functions either"
        )
        return
    miniaturise(module, saved)
    # The T-series write timeseries JSONL straight to RESULTS_DIR;
    # re-point it so mini-scale runs never touch benchmarks/results/.
    if hasattr(module, "RESULTS_DIR"):
        module.RESULTS_DIR = tmp_path
    run_scenarios(path, module)


def test_f_files_cover_known_scenarios():
    """The driver actually exercises the sweep suite (guards against the
    glob silently matching nothing after a rename)."""
    names = {path.stem for path in F_FILES}
    assert {"test_f3_throughput_vs_ads", "test_f15_sharding"} <= names
    assert len(names) >= 10


def test_t_files_cover_known_scenarios():
    """Auto-discovery still sees the load-bearing T-series modules."""
    names = {path.stem for path in T_FILES}
    assert {
        "test_t5_overload_control",
        "test_t10_adversarial_scenarios",
    } <= names
    assert len(names) >= 8


@pytest.mark.parametrize("path", OTHER_FILES, ids=[p.stem for p in OTHER_FILES])
def test_other_benchmarks_import_cleanly(path):
    module = load_benchmark_module(path)
    assert scenario_functions(module) or path.stem in ("conftest", "helpers")


# -- perf-trajectory gate (F3 JSON + scripts/check_bench_regression.py) ------

REPO_ROOT = BENCH_DIR.parent


def load_gate_script():
    path = REPO_ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("_bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_series(f3, vector_dps: float, shared_dps: float) -> dict:
    series = {}
    for num_ads in f3.AD_COUNTS:
        for method in f3.METHODS:
            series[(method, num_ads)] = 100.0
        series[("car-vector", num_ads)] = vector_dps
        series[("car-shared", num_ads)] = shared_dps
    return series


def synthetic_t8_series(t8, linucb_ctr: float, static_ctr: float) -> dict:
    """A full T8 series with exact replay CTRs on every seed."""
    from repro.learn.replay import ReplayResult

    series = {}
    for seed in t8.SEEDS:
        series[("static-ctr", seed)] = ReplayResult(
            "static-ctr", 4000, 1000, int(round(1000 * static_ctr))
        )
        series[("linucb", seed)] = ReplayResult(
            "linucb", 4000, 1000, int(round(1000 * linucb_ctr))
        )
    return series


class TestBenchRegressionGate:
    """The F3 JSON writer and the CI gate that consumes it."""

    def test_committed_baseline_exists_and_clears_its_own_gate(self):
        payload = json.loads((REPO_ROOT / "BENCH_f3_throughput.json").read_text())
        gate = payload["gate"]
        at = str(gate["at"])
        assert payload["benchmark"] == "f3_throughput_vs_ads"
        assert payload["vector_speedup"][at] >= gate["min_speedup"]

    def test_f3_json_round_trips_through_the_gate(self, tmp_path):
        f3 = load_benchmark_module(BENCH_DIR / "test_f3_throughput_vs_ads.py")
        gate = load_gate_script()
        baseline = tmp_path / "baseline.json"
        f3.write_bench_json(synthetic_series(f3, 600.0, 100.0), baseline)
        # Same payload on both sides: no regression by construction.
        assert gate.main(
            ["--baseline", str(baseline), "--candidate", str(baseline)]
        ) == 0

    def test_gate_fails_on_relative_loss(self, tmp_path):
        f3 = load_benchmark_module(BENCH_DIR / "test_f3_throughput_vs_ads.py")
        gate = load_gate_script()
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        f3.write_bench_json(synthetic_series(f3, 900.0, 100.0), baseline)
        # 9x -> 6x is a 33% loss: over the 20% budget even though the
        # absolute 5x floor still holds.
        f3.write_bench_json(synthetic_series(f3, 600.0, 100.0), candidate)
        assert gate.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        ) == 1

    def test_gate_fails_under_absolute_floor(self, tmp_path):
        f3 = load_benchmark_module(BENCH_DIR / "test_f3_throughput_vs_ads.py")
        gate = load_gate_script()
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        f3.write_bench_json(synthetic_series(f3, 550.0, 100.0), baseline)
        # 5.5x -> 4.5x: within the 20% relative budget but under the
        # tentpole's 5x floor.
        f3.write_bench_json(synthetic_series(f3, 450.0, 100.0), candidate)
        assert gate.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        ) == 1

    def test_gate_rejects_mismatched_benchmarks(self, tmp_path):
        f3 = load_benchmark_module(BENCH_DIR / "test_f3_throughput_vs_ads.py")
        t8 = load_benchmark_module(BENCH_DIR / "test_t8_linucb_lift.py")
        gate = load_gate_script()
        f3_json = tmp_path / "f3.json"
        t8_json = tmp_path / "t8.json"
        f3.write_bench_json(synthetic_series(f3, 600.0, 100.0), f3_json)
        t8.write_bench_json(synthetic_t8_series(t8, 0.210, 0.200), t8_json)
        assert gate.main(
            ["--baseline", str(f3_json), "--candidate", str(t8_json)]
        ) == 1


class TestT8BenchRegressionGate:
    """The T8 CTR-lift JSON writer and the (shared) CI gate consuming it."""

    def test_committed_baseline_exists_and_clears_its_own_gate(self):
        payload = json.loads((REPO_ROOT / "BENCH_t8_ctr_lift.json").read_text())
        gate = payload["gate"]
        at = str(gate["at"])
        assert payload["benchmark"] == "t8_ctr_lift"
        assert gate["metric"] == "ctr_lift"
        assert payload["ctr_lift"][at] >= gate["min_lift"]

    def test_t8_json_round_trips_through_the_gate(self, tmp_path):
        t8 = load_benchmark_module(BENCH_DIR / "test_t8_linucb_lift.py")
        gate = load_gate_script()
        baseline = tmp_path / "baseline.json"
        t8.write_bench_json(synthetic_t8_series(t8, 0.210, 0.200), baseline)
        # Same payload on both sides: no regression by construction.
        assert gate.main(
            ["--baseline", str(baseline), "--candidate", str(baseline)]
        ) == 0

    def test_gate_fails_on_relative_loss(self, tmp_path):
        t8 = load_benchmark_module(BENCH_DIR / "test_t8_linucb_lift.py")
        gate = load_gate_script()
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        t8.write_bench_json(synthetic_t8_series(t8, 0.220, 0.200), baseline)
        # 1.10x -> 1.01x is an 8% loss: over the 5% budget even though
        # the absolute 1.0x floor still holds.
        t8.write_bench_json(synthetic_t8_series(t8, 0.202, 0.200), candidate)
        assert gate.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        ) == 1

    def test_gate_fails_under_lift_floor(self, tmp_path):
        t8 = load_benchmark_module(BENCH_DIR / "test_t8_linucb_lift.py")
        gate = load_gate_script()
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        t8.write_bench_json(synthetic_t8_series(t8, 0.204, 0.200), baseline)
        # 1.02x -> 0.99x: within the 5% relative budget but the learned
        # policy now loses to the static baseline — the 1.0x floor trips.
        t8.write_bench_json(synthetic_t8_series(t8, 0.198, 0.200), candidate)
        assert gate.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        ) == 1


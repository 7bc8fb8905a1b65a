"""The conformance matrix: one set of claims, on every backend × mode ×
charging × rider cell.

Two streams over the tiny workload drive every cell through
:class:`~repro.scenarios.ScenarioDriver`, on backends the library builds
(``from_workload(...).engine`` for the bare engine, ``build_backend`` for
every router), and three claims are asserted once:

* **a rider never perturbs** — on ``storm``, each identity rider (stage
  tracer, registry + health monitor, passive QoS controller, request
  tracer, frozen LinUCB, the canary's control arm) leaves every result
  bit-equal to the bare run of the same cell;
* **a cluster serves what one engine serves** — on ``base``, each
  backend's bare run matches the single engine (ids exact, scores and
  revenue to float-summation order), worker processes match the
  in-process router bit for bit on both streams, and live LinUCB ends
  every backend with the engine's slates and learner state;
* **every cell keeps the books** (:func:`tests.conftest.assert_books`),
  an actively shedding admission controller included.

``base`` runs with pacing off: the pacing multiplier reads per-shard
spend, which a cluster splits. ``storm`` keeps the default config and so
also carries ROADMAP item 1's gate: spend within budget and the single
engine's retirements, which only one shard keeps today (strict xfail).
Both streams are kept short: every cell is a run, and INCREMENTAL
rescoring costs the most of the three modes per delivery.

Each run is built and driven once per module (``serve``) and read by
every claim about it.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cache, cached_property

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.io.checkpoint import engine_state_dict
from repro.obs.health import HealthMonitor, SloSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import RequestTracer
from repro.obs.tracer import RecordingTracer
from repro.qos import AdmissionController, QosController
from repro.scenarios import (
    ScenarioDriver,
    ScenarioTotals,
    build_backend,
    build_scenario_stream,
    run_canary,
)
from tests.conftest import (
    FROZEN,
    LINUCB,
    PARITY,
    assert_books,
    canonical,
    click_on,
    merged_slates,
    workload_events,
)

#: name → (``build_backend`` shape, or None for the bare engine; posts
#: per dispatch).
SHAPES = {
    "engine": (None, 1),
    "engine-batch16": (None, 16),
    "router-1": ({"shards": 1}, 1),
    "sharded-2": ({"shards": 2}, 1),
    "sharded-2-batch16": ({"shards": 2}, 16),
    "sharded-3": ({"shards": 3}, 1),
    "sharded-4": ({"shards": 4}, 1),
    "procpool-2": ({"workers": 2}, 1),
    "procpool-2-batch16": ({"workers": 2}, 16),
}
BACKENDS = ["engine", "router-1", "sharded-3", "procpool-2", "procpool-2-batch16"]
CLUSTERS = BACKENDS[1:]
#: Worker processes are held bit for bit to the in-process router of
#: their shard count, batched alike and one post at a time.
TWINS = {
    "procpool-2": ["sharded-2"],
    "procpool-2-batch16": ["sharded-2-batch16", "sharded-2"],
}
MODES = [mode.value for mode in EngineMode]
CHARGING = {"charged": True, "uncharged": False}
#: Riders that must leave every result as the bare run serves it.
IDENTITY = ["tracer", "metrics", "qos", "request-tracer", "frozen", "canary"]
#: Runs whose books are checked: the bare run, every identity rider that
#: serves through its own backend, and active admission.
BOOKED = ["bare", "tracer", "metrics", "qos", "request-tracer", "frozen", "admission"]


def config_for(mode: str, charging: str) -> EngineConfig:
    """A cell's bare config: the defaults, in one mode, charged or not."""
    return EngineConfig(mode=EngineMode(mode), charge_impressions=CHARGING[charging])


def rider_options(rider: str) -> dict:
    """The constructor arguments one rider adds (fresh objects per run)."""
    if rider == "tracer":
        return {"tracer": RecordingTracer()}
    if rider == "metrics":
        return {"metrics": MetricsRegistry(window_s=3600.0)}
    if rider == "qos":
        # No admission and never graded: rung 0, nothing to consult.
        return {"qos": QosController()}
    if rider == "request-tracer":
        return {"request_tracer": RequestTracer(sample_rate=1.0, seed=7)}
    if rider == "admission":
        # ~1 token per 2 stream-seconds: far below the storm's fan-out.
        return {
            "qos": QosController(
                admission=AdmissionController(rate_per_s=0.5, burst_s=2.0)
            ),
            "metrics": MetricsRegistry(window_s=3600.0),
        }
    return {}


@dataclass
class Served:
    """What one driven stream left behind, read before its backend closed."""

    results: list  # (msg_id, [PostResult, ...]) per post, in stream order
    totals: ScenarioTotals
    stats: object  # the engine's EngineStats, or the router's cluster_stats()
    state: dict  # the logical checkpoint payload
    stages: dict  # the stage tracer's snapshot ({} without one)
    counters: dict | None  # the registry's counters, when one rides
    finished: int  # request-trace segments finished (0 without a tracer)
    retained: int  # request-trace segments retained
    intervals: int = 0  # health-monitor intervals graded
    qos: dict | None = None  # the QoS controllers' summary, when one rides
    shards: list = ()  # ShardStats per shard (routers only)
    stages_by_shard: list = ()
    counters_by_shard: list = ()
    amplification: float = 1.0
    load_imbalance: float = 1.0
    busy_imbalance: float = 1.0

    @property
    def parts(self) -> list:
        return [part for _, parts in self.results for part in parts]

    @cached_property
    def canonical(self) -> list[str]:
        """Each post's results, byte-stable: a mismatch names its post."""
        return [canonical(parts) for _, parts in self.results]

    def slates(self) -> list:
        """Every scored slate, sorted by (user, ads): comparable across
        backends whose delivery order differs."""
        return sorted(
            (d.user_id, tuple((s.ad_id, s.score, s.content, s.static) for s in d.slate))
            for part in self.parts
            for d in part.deliveries
        )


def read(backend, results, totals, monitor, *, single: bool) -> Served:
    """The books of one driven stream, read off ``backend`` (``single``:
    a bare engine, else a router)."""
    metrics, tracer = backend.metrics, backend.request_tracer
    served = Served(
        results=results,
        totals=totals,
        stats=backend.stats if single else backend.cluster_stats(),
        state=engine_state_dict(backend) if single else backend.state_dict(),
        stages=backend.tracer.snapshot() if single else backend.stage_report(),
        counters=metrics.snapshot().counters if metrics.enabled else None,
        finished=tracer.finished if tracer.enabled else 0,
        retained=len(tracer.retained) if tracer.enabled else 0,
        intervals=monitor.intervals if monitor else 0,
    )
    if backend.qos is not None:
        served.qos = backend.qos.summary() if single else backend.qos_summary()
    if single:
        return served
    served.shards = backend.stats_by_shard()
    served.stages_by_shard = backend.stage_report_by_shard()
    if metrics.enabled:
        served.counters_by_shard = [
            view.snapshot().counters for view in backend.metrics_by_shard()
        ]
    served.amplification = backend.amplification()
    served.load_imbalance = backend.load_imbalance()
    served.busy_imbalance = backend.load_imbalance(stage="personalize")
    return served


@pytest.fixture(scope="module")
def streams(tiny_workload) -> dict:
    """``base``: the workload's check-ins and first posts. ``storm``: a
    budget burst and a click flood over the first 20 posts (a 4-post
    burst, half the users clicking as bots)."""
    return {
        "base": workload_events(tiny_workload, limit_posts=30),
        "storm": build_scenario_stream(
            tiny_workload,
            ["budget-burst", "click-flood"],
            limit_posts=20,
            knobs={"budget-burst": {"posts": 4}, "click-flood": {"bot_fraction": 0.5}},
        ).events,
    }


@pytest.fixture(scope="module")
def serve(tiny_workload, streams):
    """``serve(stream, backend, mode, charging, rider)``: one cell's run,
    built and driven once per module."""

    @cache
    def run(stream, backend, mode, charging="charged", rider="bare") -> Served:
        config = config_for(mode, charging)
        if stream == "base":
            config = replace(config, pacing_enabled=False)
        if rider == "frozen":
            config = replace(config, **FROZEN)
        if rider == "linucb":
            config = replace(config, **PARITY, **LINUCB)
        shape, batch = SHAPES[backend]
        options = rider_options(rider)
        with ExitStack() as stack:
            if shape is None:
                engine = ContextAwareRecommender.from_workload(
                    tiny_workload, config, **options
                ).engine
            else:
                engine = build_backend(
                    tiny_workload, config, stack=stack, **shape, **options
                )
                stack.callback(engine.close)
            results = []

            def on_result(msg_id, parts):
                results.append((msg_id, parts))
                if rider == "linucb":
                    click_on(engine, parts)

            driver = ScenarioDriver(
                engine, tiny_workload, batch_size=batch, on_result=on_result
            )
            monitor = None
            if engine.metrics.enabled:
                monitor = HealthMonitor(
                    lambda: engine.metrics, SloSpec(stage_p99_ms={"delivery": 50.0})
                )
                totals = driver.run(
                    streams[stream],
                    interval_s=3600.0,
                    on_interval=lambda now, wall: monitor.evaluate(
                        now, wall_seconds=wall
                    ),
                )
            else:
                totals = driver.run(streams[stream])
            return read(engine, results, totals, monitor, single=shape is None)

    return run


AXES = {
    "backend": BACKENDS,
    "cluster": CLUSTERS,
    "mode": MODES,
    "charging": list(CHARGING),
    "identity": IDENTITY,
    "booked": BOOKED,
}


def cells(*axes):
    """Every combination of the named axes, as pytest params."""
    return pytest.mark.parametrize(
        ",".join(axes),
        [
            pytest.param(*combo, id="-".join(combo))
            for combo in itertools.product(*map(AXES.get, axes))
        ],
    )


@cells("backend", "mode", "charging", "identity")
def test_a_rider_never_perturbs(
    tiny_workload, streams, serve, backend, mode, charging, identity
):
    bare = serve("storm", backend, mode, charging)
    if identity == "canary":
        # An A/A canary: the harness drives a control and a treatment arm
        # through build_backend (the engine's cell: one in-process shard).
        config = config_for(mode, charging)
        shape, _ = SHAPES[backend]
        report = run_canary(
            tiny_workload,
            streams["storm"],
            control_config=config,
            treatment_config=config,
            fraction=0.25,
            seed=7,
            **(shape or {}),
        )
        control, treatment = report.control, report.treatment
        assert report.control_totals.canonical() == bare.totals.canonical()
        assert report.control_totals.rows() == bare.totals.rows()
        assert 0 < control.deliveries < report.control_totals.deliveries
        # The paired counterfactual cancels exactly: 0.0, not a tolerance.
        assert report.revenue_diff == 0.0
        assert (treatment.deliveries, treatment.impressions, treatment.clicks) == (
            control.deliveries, control.impressions, control.clicks
        )
        assert report.treatment_totals.canonical() == report.control_totals.canonical()
        assert report.verdict == "pass"
        return
    ridden = serve("storm", backend, mode, charging, identity)
    assert ridden.canonical == bare.canonical
    assert ridden.totals.canonical() == bare.totals.canonical()
    assert ridden.totals.rows() == bare.totals.rows()
    if identity == "qos":
        # Passive: rung 0, nothing admitted or shed.
        assert (ridden.qos["rung"], ridden.qos["attempted"]) == (0, 0)
    assert ridden.stats == bare.stats
    assert bare.totals.clicks > 0 and bare.totals.launches > 0
    # The rider really rode, and the bare run carried none of it.
    assert bare.stages == {} and bare.counters is None and bare.finished == 0
    if identity == "tracer":
        assert set(ridden.stages) >= {"personalize", "delivery"}
    elif identity == "metrics":
        assert ridden.counters is not None and ridden.intervals >= 1
    elif identity == "request-tracer":
        assert ridden.retained > 0
    elif identity == "frozen":
        assert ridden.state["learn"] is not None
    for run in (bare, ridden):
        assert run.stats.deliveries_shed == run.stats.deliveries_degraded == 0
        assert run.stats.revenue_shed_upper_bound == 0.0
        assert run.totals.shed == run.totals.degraded == 0


@cells("backend", "mode", "charging", "booked")
def test_every_cell_keeps_the_books(
    tiny_workload, streams, serve, backend, mode, charging, booked
):
    served = serve("storm", backend, mode, charging, booked)
    assert_books(tiny_workload, streams["storm"], served, k=EngineConfig().k)
    if booked == "admission":
        # The tiny rate really shed, and something was still served.
        assert served.stats.deliveries_shed > 0 < served.stats.deliveries
        assert served.qos["attempted"] > 0


@cells("cluster", "mode", "charging")
def test_a_cluster_serves_what_one_engine_serves(serve, cluster, mode, charging):
    reference = serve("base", "engine", mode, charging)
    routed = serve("base", cluster, mode, charging)
    assert [msg_id for msg_id, _ in routed.results] == [
        msg_id for msg_id, _ in reference.results
    ]
    for (_, parts), (_, expected) in zip(routed.results, reference.results):
        assert merged_slates(parts) == {
            user: [(ad, pytest.approx(score)) for ad, score in slate]
            for user, slate in merged_slates(expected).items()
        }
        assert sum(p.revenue for p in parts) == pytest.approx(
            sum(p.revenue for p in expected)
        )
    stats, single = routed.stats, reference.stats
    assert stats.posts == single.posts == routed.totals.posts
    assert stats.deliveries == single.deliveries
    assert stats.impressions == single.impressions
    assert stats.revenue == pytest.approx(single.revenue)
    assert (stats.revenue > 0.0) == CHARGING[charging]
    assert routed.state["retired"] == reference.state["retired"]
    # Worker processes are the in-process router, bit for bit: the results
    # crossed a pickle boundary, so == means identical bytes.
    for stream, name in itertools.product(("base", "storm"), TWINS.get(cluster, ())):
        pool = serve(stream, cluster, mode, charging)
        twin = serve(stream, name, mode, charging)
        assert pool.canonical == twin.canonical
        assert pool.stats == twin.stats
        assert pool.state == twin.state
        assert pool.amplification == twin.amplification
        assert pool.load_imbalance == twin.load_imbalance
        assert [
            (s.users, s.deliveries, s.probes, s.probe_depth_total) for s in pool.shards
        ] == [
            (s.users, s.deliveries, s.probes, s.probe_depth_total) for s in twin.shards
        ]
    # ... and so are its telemetry roll-ups, merged and per shard.
    for rider in ("tracer", "metrics") if cluster in TWINS else ():
        pool = serve("storm", cluster, mode, charging, rider)
        twin = serve("storm", TWINS[cluster][0], mode, charging, rider)
        assert span_counts(pool.stages) == span_counts(twin.stages)
        assert list(map(span_counts, pool.stages_by_shard)) == list(
            map(span_counts, twin.stages_by_shard)
        )
        assert pool.counters == twin.counters
        assert pool.counters_by_shard == twin.counters_by_shard


def span_counts(report: dict) -> dict:
    return {name: stage.spans for name, stage in report.items()}


def test_an_engine_batch_serves_and_books_as_single_posts(
    tiny_workload, streams, serve
):
    """A bare engine's own ``post_batch`` (a router batches through its
    shards' hosts instead) serves what one post at a time serves, and
    books its spans the same."""
    batched = serve("storm", "engine-batch16", "shared", rider="tracer")
    single = serve("storm", "engine", "shared")
    assert batched.canonical == single.canonical
    assert batched.totals.canonical() == single.totals.canonical()
    assert batched.stats == single.stats
    assert_books(tiny_workload, streams["storm"], batched, k=EngineConfig().k)


def test_live_linucb_reranks(serve):
    """The bandit is live, not a no-op: it moves slates and folds
    evidence, clicks included, across at least one sync."""
    live, static = serve("base", "engine", "shared", rider="linucb"), serve(
        "base", "engine", "shared"
    )
    assert live.slates() != static.slates()
    learn = live.state["learn"]
    assert learn["arms"] and learn["epoch"] > 0
    assert learn["shared"]["b"] != [0.0] * 4


@cells("cluster", "mode")
def test_live_linucb_ends_where_one_engine_ends(serve, cluster, mode):
    """Every sync epoch folds cluster-wide at the single engine's stream
    point: same slates, same shared model, arms and pending residue. A
    batched backend is held to an engine batched alike (clicks follow
    each dispatch on both)."""
    _, batch = SHAPES[cluster]
    reference = serve(
        "base", "engine" if batch == 1 else "engine-batch16", mode, rider="linucb"
    )
    routed = serve("base", cluster, mode, rider="linucb")
    assert routed.slates() == reference.slates()
    assert routed.state["learn"] == reference.state["learn"]
    assert routed.state["learn"]["epoch"] > 0


#: ROADMAP item 1: each shard keeps its own copy of every budget, so a
#: cluster overspends and retires late. The mending change removes this.
ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
LEDGER_BACKENDS = [
    "engine",
    "router-1",
    *(
        pytest.param(name, marks=ITEM_1)
        for name in ("sharded-2", "sharded-3", "sharded-4", "procpool-2")
    ),
]


@pytest.mark.parametrize("backend", LEDGER_BACKENDS)
def test_spend_never_passes_a_budget(tiny_workload, serve, backend):
    served = serve("storm", backend, "shared")
    budgets = {ad.ad_id: ad.budget for ad in tiny_workload.ads}
    budgets.update(
        (ad["ad_id"], ad["budget"]) for ad in served.state["launched_ads"]
    )
    assert served.state["launched_ads"]
    overspent = {
        ad_id: spent / budgets[int(ad_id)]
        for ad_id, spent in served.state["budgets"].items()
        if budgets[int(ad_id)] is not None and spent > budgets[int(ad_id)] + 1e-9
    }
    assert overspent == {}


@pytest.mark.parametrize("backend", LEDGER_BACKENDS)
def test_retires_what_one_engine_retires(serve, backend):
    single = serve("storm", "engine", "shared").stats.retired_ads
    assert single > 0
    assert serve("storm", backend, "shared").stats.retired_ads == single

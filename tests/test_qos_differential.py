"""Differential tests: the QoS control plane is disabled by default.

An engine with no controller — or with a passive one (no admission, rung
0) — must be byte-identical to the pre-QoS engine in every mode and
under sharding. With an active controller attached, every shed delivery
must reconcile exactly across the engine stats, the stream counters and
the metrics registry, and the reported revenue-shed bound must actually
bound the revenue lost to shedding.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.sharded import ShardedEngine
from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.obs.health import HealthState
from repro.obs.registry import MetricsRegistry
from repro.qos.admission import AdmissionController
from repro.qos.controller import QosController
from repro.qos.degrade import DEFAULT_LADDER
from repro.scenarios import ScenarioDriver
from tests.conftest import workload_events


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadConfig(
            num_users=35,
            num_ads=120,
            num_posts=60,
            num_topics=8,
            vocab_size=1200,
            follows_per_user=5,
            seed=19,
        )
    )


def engine_for(workload, mode, *, qos=None, metrics=None, config=None):
    config = config or EngineConfig(mode=mode)
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
        metrics=metrics,
        qos=qos,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    return engine


def drive(engine, workload):
    """Replay the workload's posts and check-ins; returns the totals, the
    summed per-post revenue-shed bound and every per-post result."""
    results: list = []
    driver = ScenarioDriver(
        engine, workload, on_result=lambda msg_id, parts: results.extend(parts)
    )
    totals = driver.run(workload_events(workload))
    return totals, sum(r.revenue_shed for r in results), results


def canonical(results) -> str:
    return json.dumps(
        [
            {
                "msg_id": r.msg_id,
                "revenue": round(r.revenue, 12),
                "deliveries": [
                    {
                        "user": d.user_id,
                        "slate": [(s.ad_id, round(s.score, 12)) for s in d.slate],
                        "certified": d.certified,
                        "fell_back": d.fell_back,
                        "exact": d.exact,
                        "degraded": d.degraded,
                    }
                    for d in r.deliveries
                ],
            }
            for r in results
        ],
        sort_keys=True,
    )


@pytest.mark.parametrize("mode", list(EngineMode))
class TestDisabledByDefault:
    """No controller and a passive controller are both exact no-ops."""

    def test_passive_controller_is_byte_identical(self, workload, mode):
        bare = engine_for(workload, mode)
        # A controller with no admission that never observes a grade sits
        # at rung 0 and must never touch the data path.
        passive = engine_for(workload, mode, qos=QosController())

        bare_totals, bare_shed, bare_results = drive(bare, workload)
        passive_totals, passive_shed, passive_results = drive(passive, workload)

        assert not passive.qos.active
        assert canonical(bare_results) == canonical(passive_results)
        assert bare_totals.deliveries == passive_totals.deliveries
        assert bare.stats.revenue == pytest.approx(
            passive.stats.revenue, abs=1e-12
        )
        for engine, totals, revenue_shed in (
            (bare, bare_totals, bare_shed),
            (passive, passive_totals, passive_shed),
        ):
            assert engine.stats.deliveries_shed == 0
            assert engine.stats.deliveries_degraded == 0
            assert engine.stats.revenue_shed_upper_bound == 0.0
            assert engine.stats.attempted_deliveries == engine.stats.deliveries
            assert totals.shed == 0
            assert totals.degraded == 0
            assert revenue_shed == 0.0


class TestShardedDisabledByDefault:
    def test_passive_controller_parity_under_sharding(self, workload):
        config = EngineConfig(pacing_enabled=False)
        bare = ShardedEngine(workload, 3, config=config)
        passive = ShardedEngine(
            workload, 3, config=config, qos=QosController()
        )
        for post in workload.posts[:40]:
            bare_results = bare.post(post.author_id, post.text, post.timestamp)
            passive_results = passive.post(
                post.author_id, post.text, post.timestamp
            )
            assert canonical(bare_results) == canonical(passive_results)
        stats = passive.cluster_stats()
        assert stats.deliveries_shed == 0
        assert stats.deliveries_degraded == 0


class TestActiveControllerReconciles:
    #: Charging/pacing off so the only effect of shedding is the shed
    #: deliveries themselves — the precondition for the revenue bound.
    CONFIG = EngineConfig(charge_impressions=False, pacing_enabled=False)

    def controller(self):
        # ~1 token per 2 stream-seconds: far below the workload's fan-out,
        # so the bucket sheds on most posts.
        return QosController(
            admission=AdmissionController(rate_per_s=0.5, burst_s=2.0)
        )

    def test_every_counter_reconciles(self, workload):
        registry = MetricsRegistry(window_s=3600.0)
        controller = self.controller()
        engine = engine_for(
            workload,
            EngineMode.SHARED,
            qos=controller,
            metrics=registry,
            config=self.CONFIG,
        )
        totals, revenue_shed, results = drive(engine, workload)
        stats = engine.stats

        assert stats.deliveries_shed > 0
        assert stats.deliveries > 0
        # The ledger: every attempted delivery is either served or shed.
        assert stats.attempted_deliveries == stats.deliveries + stats.deliveries_shed
        # Stream counters mirror the engine stats exactly.
        assert totals.deliveries == stats.deliveries
        assert totals.shed == stats.deliveries_shed
        assert revenue_shed == pytest.approx(
            stats.revenue_shed_upper_bound, abs=1e-9
        )
        # So does the registry.
        assert registry.counter("deliveries") == stats.deliveries
        assert registry.counter("deliveries_shed") == stats.deliveries_shed
        assert registry.counter("revenue_shed_upper_bound") == pytest.approx(
            stats.revenue_shed_upper_bound, abs=1e-9
        )
        # And the admission controller's own books balance.
        admission = controller.admission
        assert admission.attempted == admission.admitted + admission.shed
        assert admission.shed == stats.deliveries_shed
        # Per-post results agree with the run totals.
        assert sum(r.num_shed for r in results) == stats.deliveries_shed
        assert sum(r.num_deliveries for r in results) == stats.deliveries

    def test_revenue_shed_bound_actually_bounds_the_loss(self, workload):
        # Charging ON so deliveries actually earn revenue; pacing off so
        # the served deliveries score identically in both runs.
        config = EngineConfig(pacing_enabled=False)
        bare = engine_for(workload, EngineMode.SHARED, config=config)
        shed = engine_for(
            workload,
            EngineMode.SHARED,
            qos=self.controller(),
            config=config,
        )
        drive(bare, workload)
        drive(shed, workload)
        lost = bare.stats.revenue - shed.stats.revenue
        assert lost > 0.0  # the run really shed revenue-bearing deliveries
        assert lost <= shed.stats.revenue_shed_upper_bound + 1e-9


    def test_a_ladder_stepped_through_the_router_reconciles(self, workload):
        """The closed loop's cluster leg: ``Router.observe_health`` steps
        the one shared ladder onto its shedding rung mid-stream, and the
        books still balance — across shard stats, the merged registry and
        the controller — with the shed bound still bounding the loss."""
        from repro.qos.degrade import DegradationLadder, Rung

        config = EngineConfig(pacing_enabled=False)
        registry = MetricsRegistry(window_s=3600.0)
        controller = QosController(
            # Shedding is this ladder's only trade, so every dollar lost
            # is a shed delivery's.
            ladder=DegradationLadder((Rung("full"), Rung("shed", shed_fraction=0.5))),
            admission=AdmissionController(rate_per_s=0.5, burst_s=2.0),
        )
        bare = ShardedEngine(workload, 2, config=config)
        shed = ShardedEngine(
            workload, 2, config=config, qos=controller, metrics=registry
        )
        for index, post in enumerate(workload.posts):
            if index == len(workload.posts) // 3:
                shed.observe_health(HealthState.OVERLOADED)
            bare.post(post.author_id, post.text, post.timestamp)
            shed.post(post.author_id, post.text, post.timestamp)
        stats, summary = shed.cluster_stats(), shed.qos_summary()
        counters = shed.metrics.snapshot().counters

        assert (summary["rung_name"], summary["degrade_steps"]) == ("shed", 1)
        assert stats.deliveries_shed > 0 and stats.deliveries > 0
        assert summary["attempted"] == summary["admitted"] + summary["shed"]
        assert summary["attempted"] == stats.attempted_deliveries
        assert summary["shed"] == stats.deliveries_shed
        assert counters["deliveries_shed"] == stats.deliveries_shed
        assert counters["deliveries"] == stats.deliveries
        assert summary["revenue_shed_upper_bound"] == pytest.approx(
            stats.revenue_shed_upper_bound, abs=1e-9
        )
        lost = bare.cluster_stats().revenue - stats.revenue
        assert 0.0 < lost <= stats.revenue_shed_upper_bound + 1e-9


class TestDegradedRunCountsAndFlags:
    def test_forced_degradation_is_counted_and_flagged(self, workload):
        registry = MetricsRegistry(window_s=3600.0)
        controller = QosController(degrade_after=1)
        # Push the ladder to its candidates-only rung before the run.
        for _ in range(4):
            controller.observe(HealthState.OVERLOADED)
        assert controller.candidates_only
        engine = engine_for(
            workload, EngineMode.SHARED, qos=controller, metrics=registry
        )
        totals, _, results = drive(engine, workload)
        stats = engine.stats

        assert stats.deliveries > 0
        # Every delivery of the run was served degraded.
        assert stats.deliveries_degraded == stats.deliveries
        assert totals.degraded == stats.deliveries_degraded
        assert registry.counter("deliveries_degraded") == stats.deliveries_degraded
        half_k = controller.slate_k(engine.config.k)
        for result in results:
            for delivery in result.deliveries:
                assert delivery.degraded
                assert len(delivery.slate) <= half_k
        assert sum(r.num_degraded for r in results) == stats.deliveries_degraded


class TestRungsOnTheBatchedPath:
    """A vector, uncharged engine hands a whole fan-out to the personalize
    kernel in one call. A degrading rung must shape that call — its slate
    size — exactly as it shapes the same engine serving one follower at a
    time."""

    CONFIG = EngineConfig(searcher="vector", charge_impressions=False, overfetch=20)

    @staticmethod
    def observed(delivery):
        return (
            delivery.user_id,
            delivery.slate,
            delivery.certified,
            delivery.fell_back,
            delivery.exact,
            delivery.degraded,
        )

    def test_every_rung_matches_one_follower_at_a_time(self, workload):
        batched = engine_for(
            workload, EngineMode.SHARED, qos=QosController(), config=self.CONFIG
        )
        single = engine_for(
            workload, EngineMode.SHARED, qos=QosController(), config=self.CONFIG
        )
        stage = batched.pipeline.personalize_stage
        kernel_calls: list[tuple[int, int]] = []  # (rung, fan-out)
        original = stage.personalize_batch

        def spying(event, candidates, resolved, served):
            assert batched.qos is not None
            kernel_calls.append((batched.qos.rung_index, len(resolved)))
            return original(event, candidates, resolved, served)

        stage.personalize_batch = spying

        rungs = batched.qos.ladder.rungs
        per_rung = len(workload.posts) // len(rungs)
        served = {index: [] for index in range(len(rungs))}
        for index, rung in enumerate(rungs):
            assert batched.qos.rung_index == single.qos.rung_index == index
            for post in workload.posts[index * per_rung : (index + 1) * per_rung]:
                result = batched.post(post.author_id, post.text, post.timestamp)
                event = single.make_event(
                    post.author_id, post.text, post.timestamp
                )
                single.ingest_event(event)
                alone = [
                    single.pipeline.deliver(event, follower)
                    for follower in sorted(
                        single.graph.followers(post.author_id)
                    )
                ]
                # A shedding rung drops the tail of a fan-out; a fan-out
                # of one is never shed. Everything the batch did serve
                # must match follower for follower.
                admitted = len(result.deliveries)
                assert admitted == len(alone) - result.num_shed
                assert (result.num_shed > 0) <= (rung.shed_fraction > 0.0)
                assert [self.observed(d) for d in result.deliveries] == [
                    self.observed(d) for d in alone[:admitted]
                ]
                served[index].extend(result.deliveries)
            batched.qos.ladder.degrade()
            single.qos.ladder.degrade()

        # The batched leg was reached with a controller attached, on every
        # rung that still personalizes, with real (> 1) fan-outs.
        personalizing = {
            index for index, rung in enumerate(rungs) if not rung.candidates_only
        }
        assert {rung for rung, _ in kernel_calls} == personalizing
        for index in personalizing:
            assert max(size for rung, size in kernel_calls if rung == index) > 1
        # And the rung knobs really bit inside it.
        k = self.CONFIG.k
        assert any(len(d.slate) == k for d in served[0])
        for index, rung in enumerate(rungs):
            assert all(
                len(d.slate) <= int(k * rung.k_scale) for d in served[index]
            )
            assert all(d.degraded == rung.degraded for d in served[index])


class TestEveryRungTradesSomething:
    """On the default engine — the vector kernel, charged — each rung of
    the default ladder serves different slates than the rung above it,
    or sheds more: a rung that serves what its predecessor serves would
    spend the controller's ``degrade_after`` intervals for nothing."""

    @staticmethod
    def parked_at(workload, index):
        """The default engine under a controller parked on rung
        ``index``, driven over the workload's fixed stream."""
        controller = QosController()
        for _ in range(index):
            assert controller.ladder.degrade()
        engine = engine_for(workload, EngineMode.SHARED, qos=controller)
        assert engine.config.searcher == "vector"
        _, _, results = drive(engine, workload)
        # What was served, not how it was flagged: every rung below full
        # marks its deliveries degraded.
        slates = [
            (d.user_id, [(s.ad_id, s.score) for s in d.slate])
            for r in results
            for d in r.deliveries
        ]
        return slates, engine.stats.deliveries_shed

    @pytest.mark.parametrize(
        "index",
        range(1, len(DEFAULT_LADDER)),
        ids=[
            f"{upper.name}>{deeper.name}"
            for upper, deeper in zip(DEFAULT_LADDER, DEFAULT_LADDER[1:])
        ],
    )
    def test_a_deeper_rung_serves_differently_or_sheds_more(
        self, workload, index
    ):
        upper_slates, upper_shed = self.parked_at(workload, index - 1)
        slates, shed = self.parked_at(workload, index)
        assert slates != upper_slates or shed > upper_shed

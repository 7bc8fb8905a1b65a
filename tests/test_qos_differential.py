"""Differential tests for an active QoS control plane.

That no controller, or a passive one (no admission, rung 0), serves what
the bare engine serves — in every mode, on every backend — and that an
admission controller's ledger reconciles with the stats and the registry
are cells of ``tests/test_conformance.py``. What stays here: the
reported revenue-shed bound actually bounds the revenue lost to
shedding, a ladder stepped through the router keeps the books, and every
rung trades something on both the batched and the per-follower path.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedEngine
from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
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


def drive(engine, workload):
    """Replay the workload's posts and check-ins; returns the totals and
    every per-post result."""
    results: list = []
    driver = ScenarioDriver(
        engine, workload, on_result=lambda msg_id, parts: results.extend(parts)
    )
    totals = driver.run(workload_events(workload))
    return totals, results


class TestActiveControllerReconciles:
    def controller(self):
        # ~1 token per 2 stream-seconds: far below the workload's fan-out,
        # so the bucket sheds on most posts.
        return QosController(
            admission=AdmissionController(rate_per_s=0.5, burst_s=2.0)
        )

    def test_revenue_shed_bound_actually_bounds_the_loss(self, workload):
        # Charging ON so deliveries actually earn revenue; pacing off so
        # the served deliveries score identically in both runs.
        config = EngineConfig(pacing_enabled=False)
        bare = ContextAwareRecommender.from_workload(workload, config).engine
        shed = ContextAwareRecommender.from_workload(
            workload, config, qos=self.controller()
        ).engine
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
        engine = ContextAwareRecommender.from_workload(
            workload, qos=controller, metrics=registry
        ).engine
        totals, results = drive(engine, workload)
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
        batched = ContextAwareRecommender.from_workload(
            workload, self.CONFIG, qos=QosController()
        ).engine
        single = ContextAwareRecommender.from_workload(
            workload, self.CONFIG, qos=QosController()
        ).engine
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
        engine = ContextAwareRecommender.from_workload(workload, qos=controller).engine
        assert engine.config.searcher == "vector"
        _, results = drive(engine, workload)
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

"""Seeded long-horizon soak: global ledger invariants at every interval.

One seeded driver replays a workload through a fully-loaded engine —
campaign churn (mid-stream launches with budgets, early endings),
simulated clicks graded by the workload's ground truth, geo check-ins,
and an active QoS controller being walked up and down the degradation
ladder by a seeded health-grade stream. At every interval boundary the
suite audits the global books:

* **admission ledger** — ``attempted == admitted + shed`` on the QoS
  summary, and the engine's own shed/attempted counters agree with it;
* **revenue ledger** — the engine's cumulative revenue equals the sum of
  per-post GSP charges, and no budgeted campaign ever spends past its
  cap;
* **slate contract** — every slate has at most ``k`` entries, no
  duplicate ads, and scores in non-increasing order.

The mini variant runs in CI on every push; the full variant (a larger
generated workload, same driver) is ``@pytest.mark.slow``. A second leg
replays the same churn-and-clicks stream through the multiprocess
backend and the in-process router side by side and demands bit-parity.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AdEngine
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.errors import EvaluationError
from repro.geo.point import GeoPoint
from repro.obs.health import HealthState
from repro.qos import AdmissionController, QosController
from repro.stream.clicks import ClickSimulator

#: Grades the controller is walked with — weighted towards OK so the run
#: spends time at every rung, not pinned at the floor.
GRADES = [
    HealthState.OK,
    HealthState.OK,
    HealthState.DEGRADED,
    HealthState.OVERLOADED,
]


def build_engine(workload, *, qos=None, ctr_feedback=True, **overrides) -> AdEngine:
    config = EngineConfig(
        pacing_enabled=False,
        ctr_feedback=ctr_feedback,
        collect_deliveries=True,
        **overrides,
    )
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
        qos=qos,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    return engine


class SoakDriver:
    """Deterministic churn + clicks + geo + health stream over one engine.

    Everything is drawn from one seeded ``random.Random``, so two engines
    driven with the same seed see byte-identical operation sequences.
    """

    def __init__(self, workload, seed: int = 7) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.clicks = ClickSimulator(random.Random(seed + 1))
        self.launched: list = []
        self._next_ad_id = 900_000

    def grade_of(self, msg_id: int, user_id: int, timestamp: float):
        truth = self.workload.ground_truth

        def grade(ad_id: int) -> float:
            try:
                return truth.grade(ad_id, msg_id, user_id, timestamp)
            except EvaluationError:
                return 0.0  # mid-stream launched clone: unknown to truth

        return grade

    def churn(self, engine, timestamp: float) -> None:
        roll = self.rng.random()
        if roll < 0.15:
            template = self.rng.choice(self.workload.ads)
            ad = replace(
                template, ad_id=self._next_ad_id, budget=self.rng.uniform(0.5, 3.0)
            )
            self._next_ad_id += 1
            engine.launch_campaign(ad, timestamp)
            self.launched.append(ad)
        elif roll < 0.25:
            victim = self.rng.choice(self.workload.ads)
            engine.end_campaign(victim.ad_id, timestamp)

    def geo(self, engine, timestamp: float) -> None:
        if self.rng.random() < 0.2:
            user = self.rng.choice(self.workload.users)
            point = GeoPoint(
                self.rng.uniform(-60.0, 60.0), self.rng.uniform(-150.0, 150.0)
            )
            engine.checkin(user.user_id, point, timestamp)

    def click(self, engine, result) -> None:
        for delivery in result.deliveries:
            if not delivery.slate or self.rng.random() > 0.3:
                continue
            grade = self.grade_of(
                result.msg_id, delivery.user_id, result.timestamp
            )
            for event in self.clicks.click_events(delivery, grade):
                engine.record_click(
                    event.ad_id,
                    user_id=event.user_id,
                    slot_index=event.slot_index,
                )

    def health(self, controller) -> None:
        controller.observe(self.rng.choice(GRADES))


def assert_slate_contract(result, k: int) -> None:
    for delivery in result.deliveries:
        assert len(delivery.slate) <= k
        ids = [scored.ad_id for scored in delivery.slate]
        assert len(ids) == len(set(ids)), f"duplicate ads in slate: {ids}"
        scores = [scored.score for scored in delivery.slate]
        assert scores == sorted(scores, reverse=True)


def audit_books(engine, qos, revenue_ledger: float) -> None:
    summary = qos.summary()
    if qos.admission is not None:
        assert summary["attempted"] == summary["admitted"] + summary["shed"]
        assert engine.stats.deliveries_shed == summary["shed"]
        assert engine.stats.attempted_deliveries == summary["attempted"]
        assert engine.stats.revenue_shed_upper_bound == pytest.approx(
            summary["revenue_shed_upper_bound"]
        )
    assert engine.stats.revenue == pytest.approx(revenue_ledger)
    for ad_id, state in engine.budget.states().items():
        assert state.spent <= state.budget + 1e-9, (
            f"campaign {ad_id} overspent: {state.spent} > {state.budget}"
        )


def run_soak(workload, *, interval: int = 10, seed: int = 7, **overrides) -> AdEngine:
    qos = QosController(
        admission=AdmissionController(rate_per_s=1.0, burst_s=2.0),
        degrade_after=1,
        recover_after=2,
    )
    engine = build_engine(workload, qos=qos, **overrides)
    driver = SoakDriver(workload, seed=seed)
    revenue_ledger = 0.0
    intervals_audited = 0
    for index, post in enumerate(workload.posts):
        driver.churn(engine, post.timestamp)
        driver.geo(engine, post.timestamp)
        result = engine.post(post.author_id, post.text, post.timestamp)
        assert_slate_contract(result, engine.config.k)
        revenue_ledger += result.revenue
        driver.click(engine, result)
        if (index + 1) % interval == 0:
            driver.health(qos)
            audit_books(engine, qos, revenue_ledger)
            intervals_audited += 1
    audit_books(engine, qos, revenue_ledger)
    assert intervals_audited >= 3, "soak too short to mean anything"
    assert engine.stats.posts == len(workload.posts)
    assert engine.stats.revenue > 0.0
    assert engine.stats.deliveries_shed > 0, "admission never sheds: no soak"
    assert driver.launched, "churn never launched a campaign"
    return engine


class TestSoakMini:
    def test_ledgers_hold_at_every_interval(self, tiny_workload):
        run_soak(tiny_workload, interval=8)

    def test_soak_is_deterministic(self, tiny_workload):
        first = run_soak(tiny_workload, interval=8, seed=23)
        second = run_soak(tiny_workload, interval=8, seed=23)
        assert first.stats == second.stats

    def test_linucb_leg_ledgers_hold_under_churn(self, tiny_workload):
        """The full soak gauntlet — churn, geo, QoS shedding/degradation,
        budget audits — with the bandit live and learning from clicks."""
        engine = run_soak(
            tiny_workload,
            interval=8,
            personalize="linucb",
            alpha_ucb=0.4,
            linucb_sync_interval_s=3600.0,
        )
        learner = engine.services.learner
        assert learner is not None
        assert learner.epoch > 0, "stream never crossed a sync boundary"
        assert learner.num_arms > 0, "no update ever folded"

    def test_linucb_soak_is_deterministic(self, tiny_workload):
        knobs = dict(
            interval=8,
            seed=23,
            personalize="linucb",
            alpha_ucb=0.4,
            linucb_sync_interval_s=3600.0,
        )
        first = run_soak(tiny_workload, **knobs)
        second = run_soak(tiny_workload, **knobs)
        assert first.stats == second.stats
        assert (
            first.services.learner.state_dict()
            == second.services.learner.state_dict()
        )


@pytest.mark.slow
class TestSoakFull:
    def test_ledgers_hold_on_a_long_run(self):
        workload = generate_workload(
            WorkloadConfig(
                num_users=80,
                num_ads=200,
                num_posts=400,
                num_topics=10,
                vocab_size=2000,
                follows_per_user=6,
                seed=29,
            )
        )
        engine = run_soak(workload, interval=25)
        assert engine.stats.posts == 400


class TestSoakClusterParity:
    def test_process_backend_survives_the_same_stream(self, tiny_workload):
        """Drive the multiprocess pool and the in-process router with the
        identical seeded churn/click/geo stream (QoS off for parity —
        the process backend shards the controller) and demand
        bit-identical results and books at every step."""
        from repro.cluster import ProcessShardedEngine, ShardedEngine

        config = EngineConfig(
            pacing_enabled=False, ctr_feedback=True, collect_deliveries=True
        )
        sharded = ShardedEngine(tiny_workload, 3, config=config)
        with ProcessShardedEngine(
            tiny_workload, 3, config=config
        ) as pool:
            drivers = {
                "sharded": SoakDriver(tiny_workload, seed=31),
                "pool": SoakDriver(tiny_workload, seed=31),
            }
            for post in tiny_workload.posts[:40]:
                outputs = {}
                for name, engine in (("sharded", sharded), ("pool", pool)):
                    driver = drivers[name]
                    driver.churn(engine, post.timestamp)
                    driver.geo(engine, post.timestamp)
                    results = engine.post(
                        post.author_id, post.text, post.timestamp
                    )
                    for result in results:
                        assert_slate_contract(result, config.k)
                        driver.click(engine, result)
                    outputs[name] = results
                assert outputs["pool"] == outputs["sharded"]
            assert pool.cluster_stats() == sharded.cluster_stats()
            assert pool.state_dict() == sharded.state_dict()


class TestSoakAdversarial:
    """The soak gauntlet under scripted adversarial traffic.

    A flash-crowd retweet storm plus a bot click flood are composed over
    the base stream and driven through a QoS-fronted engine while a
    seeded health-grade walk steps the degradation ladder. The global
    books must hold at every interval *and* at the end — the admission
    ledger balances and no campaign (including scenario-launched clones)
    ever spends past its budget cap.
    """

    SCENARIOS = ["flash-crowd", "click-flood", "budget-burst"]

    def run_adversarial(self, workload, *, seed: int = 13):
        from repro.scenarios import ScenarioDriver, build_scenario_stream

        stream = build_scenario_stream(workload, self.SCENARIOS, seed=seed)
        qos = QosController(
            admission=AdmissionController(rate_per_s=1.0, burst_s=2.0),
            degrade_after=1,
            recover_after=2,
        )
        engine = build_engine(workload, qos=qos)
        health = random.Random(seed + 1)
        ledger = {"revenue": 0.0}

        def on_result(msg_id, results):
            for result in results:
                assert_slate_contract(result, engine.config.k)
                ledger["revenue"] += result.revenue

        audits = {"count": 0}

        def on_interval(now, wall_seconds):
            qos.observe(health.choice(GRADES))
            audit_books(engine, qos, ledger["revenue"])
            audits["count"] += 1

        driver = ScenarioDriver(engine, workload, on_result=on_result)
        span = stream.events[-1].timestamp - stream.events[0].timestamp
        totals = driver.run(
            stream.events, interval_s=span / 12, on_interval=on_interval
        )
        audit_books(engine, qos, ledger["revenue"])
        assert audits["count"] >= 6, "adversarial soak audited too rarely"
        return engine, totals

    def test_books_hold_under_adversarial_burst(self, tiny_workload):
        engine, totals = self.run_adversarial(tiny_workload)
        assert totals.posts > len(tiny_workload.posts), "no burst traffic ran"
        assert engine.stats.deliveries_shed > 0, (
            "the burst never tripped admission — not adversarial enough"
        )
        assert totals.clicks > 0, "the click flood never landed a click"
        assert totals.launches > 0, "budget-burst never launched a clone"
        # Scenario-launched clones carry tiny budgets; the cap held for
        # them too (audit_books walked every budget state), and at least
        # one clone actually spent.
        scenario_spend = [
            state.spent
            for ad_id, state in engine.budget.states().items()
            if ad_id >= 800_000
        ]
        assert scenario_spend, "no scenario clone ever entered the books"
        assert any(spent > 0.0 for spent in scenario_spend)

    def test_adversarial_soak_is_deterministic(self, tiny_workload):
        first_engine, first_totals = self.run_adversarial(tiny_workload)
        second_engine, second_totals = self.run_adversarial(tiny_workload)
        assert first_engine.stats == second_engine.stats
        assert first_totals.canonical() == second_totals.canonical()
        assert first_totals.clicks == second_totals.clicks

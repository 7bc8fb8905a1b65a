"""Fault injection and shard failover tests.

The cluster story under test: a shard outage must not lose deliveries
(the deterministic fallback serves them profile-less), duplicates from
at-least-once dispatch must be suppressed exactly, and once the dead
shard recovers and replays its buffered ingestions, the cluster must be
byte-identical to a run that never saw the fault. The fault path speaks
only transport ops, so ``TestFailoverOnWorkers`` reruns every failover
assertion over worker processes.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import EngineConfig
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.errors import StreamError
from repro.qos.faults import FaultInjector, ShardOutage, ShardSlowdown
from tests.conftest import router_factory


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


#: Parity-friendly config: no budget churn, no pacing — the only state a
#: fault can perturb is profiles/contexts, which reintegration restores.
PARITY = EngineConfig(charge_impressions=False, pacing_enabled=False)


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
                        "degraded": d.degraded,
                    }
                    for d in r.deliveries
                ],
            }
            for r in results
        ],
        sort_keys=True,
    )


def drive(engine, posts):
    """Replay posts one by one; returns per-post result lists."""
    return [
        engine.post(post.author_id, post.text, post.timestamp)
        for post in posts
    ]


def span_of(posts):
    times = [post.timestamp for post in posts]
    return min(times), max(times)


class TestInjector:
    def test_validation(self):
        with pytest.raises(Exception):
            ShardOutage(-1, 0.0, 1.0)
        with pytest.raises(Exception):
            ShardOutage(0, 5.0, 5.0)
        with pytest.raises(Exception):
            ShardSlowdown(0, 0.0, 1.0, factor=1.0)
        with pytest.raises(Exception):
            FaultInjector(duplicate_every=-1)

    def test_windows(self):
        faults = FaultInjector(
            outages=(ShardOutage(1, 10.0, 20.0),),
            slowdowns=(ShardSlowdown(0, 5.0, 15.0, factor=3.0),),
            duplicate_every=4,
        )
        assert not faults.is_down(1, 9.9)
        assert faults.is_down(1, 10.0)
        assert faults.is_down(1, 19.9)
        assert not faults.is_down(1, 20.0)  # half-open interval
        assert not faults.is_down(0, 15.0)
        assert faults.slowdown_factor(0, 10.0) == 3.0
        assert faults.slowdown_factor(0, 20.0) == 1.0
        assert faults.slowdown_factor(1, 10.0) == 1.0
        # msg_id 3, 7, 11, ... lose their ack
        assert [m for m in range(12) if faults.should_duplicate(m)] == [3, 7, 11]

    def test_overlapping_slowdowns_take_the_max(self):
        faults = FaultInjector(
            slowdowns=(
                ShardSlowdown(0, 0.0, 10.0, factor=2.0),
                ShardSlowdown(0, 5.0, 15.0, factor=4.0),
            )
        )
        assert faults.slowdown_factor(0, 7.0) == 4.0

    def test_random_plan_is_seed_deterministic(self):
        a = FaultInjector.random_plan(
            4, 1000.0, seed=11, num_outages=2, num_slowdowns=1
        )
        b = FaultInjector.random_plan(
            4, 1000.0, seed=11, num_outages=2, num_slowdowns=1
        )
        assert a.outages == b.outages
        assert a.slowdowns == b.slowdowns
        c = FaultInjector.random_plan(
            4, 1000.0, seed=12, num_outages=2, num_slowdowns=1
        )
        assert (a.outages, a.slowdowns) != (c.outages, c.slowdowns)


class TestFailover:
    NUM_SHARDS = 3
    TRANSPORT = "local"

    @pytest.fixture()
    def router(self):
        yield from router_factory(self.TRANSPORT)

    def outage_for(self, posts, shard=1):
        start, end = span_of(posts)
        width = end - start
        return ShardOutage(shard, start + width * 0.25, start + width * 0.6)

    def test_no_delivery_is_lost_under_an_outage(self, workload, router):
        posts = workload.posts
        outage = self.outage_for(posts)
        plain = router(workload, self.NUM_SHARDS, config=PARITY)
        faulty = router(
            workload,
            self.NUM_SHARDS,
            config=PARITY,
            faults=FaultInjector(outages=(outage,)),
        )
        plain_results = drive(plain, posts)
        faulty_results = drive(faulty, posts)

        def total(results):
            return sum(r.num_deliveries for batch in results for r in batch)

        # Availability: the cluster served the exact same fan-out.
        assert total(faulty_results) == total(plain_results)
        stats = faulty.failover_stats()
        assert stats.failovers > 0
        assert stats.redirected_deliveries > 0
        assert stats.retries >= stats.failovers  # backoff probes ran first
        # Redirected slates are served profile-less and flagged degraded.
        degraded = [
            d
            for batch in faulty_results
            for r in batch
            for d in r.deliveries
            if d.degraded
        ]
        assert len(degraded) == stats.redirected_deliveries

    def test_post_recovery_parity_after_reintegration(self, workload, router):
        posts = workload.posts
        outage = self.outage_for(posts)
        plain = router(workload, self.NUM_SHARDS, config=PARITY)
        faulty = router(
            workload,
            self.NUM_SHARDS,
            config=PARITY,
            faults=FaultInjector(outages=(outage,)),
        )
        plain_results = drive(plain, posts)
        faulty_results = drive(faulty, posts)

        stats = faulty.failover_stats()
        assert stats.reintegrated_events > 0
        assert stats.pending_reintegration == 0
        # Every post at or after recovery is byte-identical to the
        # no-fault run: the replayed ingestions restored profile state.
        recovered = [
            (p_res, f_res)
            for post, p_res, f_res in zip(posts, plain_results, faulty_results)
            if post.timestamp >= outage.end
        ]
        assert recovered, "outage must end before the stream does"
        for plain_batch, faulty_batch in recovered:
            assert canonical(plain_batch) == canonical(faulty_batch)
        # Before recovery, the fallback's profile-less slates may differ —
        # but outside the outage window nothing may.
        before = [
            (p_res, f_res)
            for post, p_res, f_res in zip(posts, plain_results, faulty_results)
            if post.timestamp < outage.start
        ]
        for plain_batch, faulty_batch in before:
            assert canonical(plain_batch) == canonical(faulty_batch)

    def test_duplicate_dispatches_are_suppressed_exactly(
        self, workload, router
    ):
        posts = workload.posts[:40]
        plain = router(workload, self.NUM_SHARDS, config=PARITY)
        noisy = router(
            workload,
            self.NUM_SHARDS,
            config=PARITY,
            faults=FaultInjector(duplicate_every=1),  # every ack lost
        )
        plain_results = drive(plain, posts)
        noisy_results = drive(noisy, posts)
        # At-least-once delivery with suppression == exactly-once results.
        assert canonical(
            [r for batch in plain_results for r in batch]
        ) == canonical([r for batch in noisy_results for r in batch])
        stats = noisy.failover_stats()
        assert stats.duplicates_suppressed > 0

    def test_slowdown_shows_up_as_busy_time_not_different_results(
        self, workload, router
    ):
        posts = workload.posts[:25]
        start, end = span_of(posts)
        slow = router(
            workload,
            self.NUM_SHARDS,
            config=PARITY,
            faults=FaultInjector(
                slowdowns=(ShardSlowdown(0, start, end + 1.0, factor=5.0),)
            ),
        )
        plain = router(workload, self.NUM_SHARDS, config=PARITY)
        plain_results = drive(plain, posts)
        slow_results = drive(slow, posts)
        assert canonical(
            [r for batch in plain_results for r in batch]
        ) == canonical([r for batch in slow_results for r in batch])
        # The slowed shard's busy time stretches against the same shard
        # doing the same work unslowed (factor 5 leaves >= 2x headroom
        # over scheduler noise; comparing across shards of one router
        # does not — an unslowed shard can have a slow moment too).
        slowed = slow.dispatch_seconds_by_shard()[0]
        unslowed = plain.dispatch_seconds_by_shard()[0]
        assert unslowed > 0.0
        assert slowed > 2.0 * unslowed

    def test_all_shards_down_raises(self, workload, router):
        posts = workload.posts[:5]
        start, end = span_of(workload.posts)
        outages = tuple(
            ShardOutage(shard, start, end + 1.0)
            for shard in range(self.NUM_SHARDS)
        )
        doomed = router(
            workload,
            self.NUM_SHARDS,
            config=PARITY,
            faults=FaultInjector(outages=outages),
        )
        with pytest.raises(StreamError):
            drive(doomed, posts)

    def test_reintegrate_now_flushes_a_trailing_outage(self, workload, router):
        posts = workload.posts
        start, end = span_of(posts)
        # Outage runs past the end of the stream: nothing triggers replay.
        outage = ShardOutage(1, start + (end - start) * 0.5, end + 10.0)
        faulty = router(
            workload,
            self.NUM_SHARDS,
            config=PARITY,
            faults=FaultInjector(outages=(outage,)),
        )
        drive(faulty, posts)
        pending = faulty.failover_stats().pending_reintegration
        assert pending > 0
        replayed = faulty.reintegrate_now(end + 20.0)
        assert replayed == pending
        assert faulty.failover_stats().pending_reintegration == 0


class TestFailoverOnWorkers(TestFailover):
    """Every failover assertion again, with the shards as processes."""

    TRANSPORT = "process"

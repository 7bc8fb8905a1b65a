"""Tests for the user-sharded deployment simulation: routing and
scale-out metrics. That any shard count serves the single engine's
slates and revenue, posted one at a time or batched, is
``tests/test_conformance.py``'s."""

from __future__ import annotations

import pytest

from repro.cluster import ShardedEngine, hash_shard
from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.errors import ConfigError


def build(workload, shards, **config_kwargs) -> ShardedEngine:
    return ShardedEngine(
        workload,
        shards,
        config=EngineConfig(charge_impressions=False, **config_kwargs),
    )


class TestRouting:
    def test_shard_count_validation(self, tiny_workload):
        with pytest.raises(ConfigError):
            ShardedEngine(tiny_workload, 0)

    def test_hash_shard_is_stable_and_in_range(self):
        for user in range(200):
            shard = hash_shard(user, 7)
            assert 0 <= shard < 7
            assert shard == hash_shard(user, 7)

    def test_assignment_spreads_users(self, tiny_workload):
        sharded = build(tiny_workload, 4)
        stats = sharded.stats_by_shard()
        assert sum(stat.users for stat in stats) == len(tiny_workload.users)
        assert all(stat.users > 0 for stat in stats)

    def test_single_shard_equals_plain_engine(self, tiny_workload):
        """With one shard, deliveries must match the unsharded engine."""
        sharded = build(tiny_workload, 1)
        plain = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(charge_impressions=False)
        )
        for post in tiny_workload.posts[:15]:
            shard_results = sharded.post(post.author_id, post.text, post.timestamp)
            plain_result = plain.post(post.author_id, post.text, post.timestamp)
            assert sum(r.num_deliveries for r in shard_results) == (
                plain_result.num_deliveries
            )

    def test_every_follower_served_exactly_once(self, tiny_workload):
        sharded = build(tiny_workload, 3)
        for post in tiny_workload.posts[:20]:
            results = sharded.post(post.author_id, post.text, post.timestamp)
            served = [
                delivery.user_id
                for result in results
                for delivery in result.deliveries
            ]
            expected = sorted(tiny_workload.graph.followers(post.author_id))
            assert sorted(served) == expected

    def test_deliveries_land_on_owning_shard(self, tiny_workload):
        sharded = build(tiny_workload, 3)
        post = tiny_workload.posts[0]
        results = sharded.post(post.author_id, post.text, post.timestamp)
        touched = [
            (result, shard)
            for result, shard in zip(
                results,
                sorted(
                    {sharded.shard_of(post.author_id)}
                    | {
                        sharded.shard_of(f)
                        for f in tiny_workload.graph.followers(post.author_id)
                    }
                ),
            )
        ]
        for result, shard in touched:
            for delivery in result.deliveries:
                assert sharded.shard_of(delivery.user_id) == shard


class TestScaleOutMetrics:
    def test_amplification_bounds(self, tiny_workload):
        sharded = build(tiny_workload, 4)
        for post in tiny_workload.posts[:30]:
            sharded.post(post.author_id, post.text, post.timestamp)
        amplification = sharded.amplification()
        assert 1.0 <= amplification <= 4.0

    def test_amplification_grows_with_shards(self, tiny_workload):
        small = build(tiny_workload, 2)
        large = build(tiny_workload, 8)
        for post in tiny_workload.posts[:30]:
            small.post(post.author_id, post.text, post.timestamp)
            large.post(post.author_id, post.text, post.timestamp)
        assert large.amplification() >= small.amplification()

    def test_load_imbalance_reported(self, tiny_workload):
        sharded = build(tiny_workload, 4)
        for post in tiny_workload.posts[:30]:
            sharded.post(post.author_id, post.text, post.timestamp)
        assert sharded.load_imbalance() >= 1.0

    def test_checkin_broadcast(self, tiny_workload):
        from repro.geo.point import GeoPoint

        sharded = build(tiny_workload, 3)
        sharded.checkin(0, GeoPoint(1.0, 2.0), 5.0)
        for host in sharded.transport.hosts:
            assert host.engine.location_of(0) == GeoPoint(1.0, 2.0)

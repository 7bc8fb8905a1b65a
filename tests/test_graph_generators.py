"""Tests for synthetic follow-graph generators."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.graph.generators import (
    preferential_attachment_graph,
    random_follow_graph,
)


class TestRandomGraph:
    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            random_follow_graph(10, 1.5, random.Random(0))

    def test_zero_probability_no_edges(self):
        graph = random_follow_graph(10, 0.0, random.Random(0))
        assert graph.num_edges == 0

    def test_full_probability_complete_digraph(self):
        graph = random_follow_graph(5, 1.0, random.Random(0))
        assert graph.num_edges == 5 * 4

    def test_deterministic_given_seed(self):
        first = random_follow_graph(20, 0.2, random.Random(3))
        second = random_follow_graph(20, 0.2, random.Random(3))
        assert first.num_edges == second.num_edges
        for user in range(20):
            assert first.followers(user) == second.followers(user)


class TestPreferentialAttachment:
    def test_validation(self):
        with pytest.raises(ConfigError):
            preferential_attachment_graph(10, 0, random.Random(0))
        with pytest.raises(ConfigError):
            preferential_attachment_graph(0, 3, random.Random(0))

    def test_every_late_user_follows_enough(self):
        m = 4
        graph = preferential_attachment_graph(60, m, random.Random(1))
        for user in range(m + 1, 60):
            assert len(graph.followees(user)) == m

    def test_early_users_follow_fewer(self):
        graph = preferential_attachment_graph(30, 5, random.Random(1))
        assert len(graph.followees(0)) == 0
        assert len(graph.followees(3)) == 3

    def test_degree_skew(self):
        """Follower counts should be heavy-tailed: the maximum far exceeds
        the mean."""
        graph = preferential_attachment_graph(300, 4, random.Random(2))
        stats = graph.stats()
        assert stats.max_fanout > 3 * stats.avg_fanout

    def test_no_self_follows(self):
        graph = preferential_attachment_graph(50, 3, random.Random(4))
        for user in range(50):
            assert user not in graph.followees(user)


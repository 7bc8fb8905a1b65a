"""Synthetic follow-graph generators.

Two models with increasingly realistic degree skew:

* ``random_follow_graph`` — Erdős–Rényi-style, every potential edge with the
  same probability (a sanity baseline).
* ``preferential_attachment_graph`` — rich-get-richer follower counts, the
  standard model for power-law in-degree in social networks.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError
from repro.graph.social import SocialGraph


def _empty_graph(num_users: int) -> SocialGraph:
    if num_users <= 0:
        raise ConfigError(f"num_users must be positive, got {num_users}")
    graph = SocialGraph()
    for user_id in range(num_users):
        graph.add_user(user_id)
    return graph


def random_follow_graph(
    num_users: int, edge_probability: float, rng: random.Random
) -> SocialGraph:
    """Each ordered (follower, followee) pair exists with fixed probability."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    graph = _empty_graph(num_users)
    for follower in range(num_users):
        for followee in range(num_users):
            if follower != followee and rng.random() < edge_probability:
                graph.follow(follower, followee)
    return graph


def preferential_attachment_graph(
    num_users: int, follows_per_user: int, rng: random.Random
) -> SocialGraph:
    """Rich-get-richer follower growth.

    Users join in id order; each new user follows ``follows_per_user``
    distinct earlier users chosen proportionally to (1 + current follower
    count), which yields a heavy-tailed follower distribution like Twitter's.
    """
    if follows_per_user < 1:
        raise ConfigError(
            f"follows_per_user must be >= 1, got {follows_per_user}"
        )
    graph = _empty_graph(num_users)
    # Repeated-node urn: each occurrence of an id is one unit of attachment
    # probability mass (the classic Barabási–Albert trick).
    urn: list[int] = list(range(min(num_users, follows_per_user + 1)))
    for joiner in range(1, num_users):
        candidates = set()
        attempts = 0
        wanted = min(follows_per_user, joiner)
        while len(candidates) < wanted and attempts < 50 * wanted:
            attempts += 1
            pick = rng.choice(urn)
            if pick != joiner and pick < joiner:
                candidates.add(pick)
        # Fall back to uniform sampling if the urn kept repeating.
        while len(candidates) < wanted:
            pick = rng.randrange(joiner)
            candidates.add(pick)
        for followee in candidates:
            graph.follow(joiner, followee)
            urn.append(followee)
        urn.append(joiner)
    return graph


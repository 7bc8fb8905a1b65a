"""Social-graph substrate: follower adjacency and synthetic generators."""

from repro.graph.generators import (
    preferential_attachment_graph,
    random_follow_graph,
)
from repro.graph.social import GraphStats, SocialGraph

__all__ = [
    "GraphStats",
    "SocialGraph",
    "preferential_attachment_graph",
    "random_follow_graph",
]

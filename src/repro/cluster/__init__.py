"""Scale-out: user-sharded engines behind one router.

:class:`Router` holds the cluster logic once — routing, epoch sync,
failover, telemetry roll-ups, checkpointing — and reaches its shards
through a :class:`ShardTransport`; every shard answers through
:class:`ShardHost`. The two public constructors pick the transport:
:class:`ShardedEngine` keeps the hosts in-process (:class:`LocalTransport`
— load balance and amplification measurements, the bit-parity
reference); :class:`ProcessShardedEngine` runs each host as a real worker
process (:class:`ProcessTransport` — wall-clock parallelism, real crash
semantics).
"""

from repro.cluster.host import (
    ShardHost,
    build_shard_engine,
    build_shard_graph,
    build_shard_map,
    hash_shard,
)
from repro.cluster.procpool import ProcessShardedEngine, ProcessTransport
from repro.cluster.router import (
    FailoverStats,
    LocalTransport,
    Router,
    ShardStats,
    ShardTransport,
    merge_cluster_stats,
)
from repro.cluster.sharded import ShardedEngine

__all__ = [
    "FailoverStats",
    "LocalTransport",
    "ProcessShardedEngine",
    "ProcessTransport",
    "Router",
    "ShardHost",
    "ShardStats",
    "ShardTransport",
    "ShardedEngine",
    "build_shard_engine",
    "build_shard_graph",
    "build_shard_map",
    "hash_shard",
    "merge_cluster_stats",
]

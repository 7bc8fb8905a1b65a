"""The in-process deployment: every shard host lives in the router's process.

Running the shards in one process cannot show wall-clock speedup, but it
measures exactly what determines real scalability — load balance and
fan-out amplification (:meth:`Router.stats_by_shard`, experiment F15) —
and it is the bit-parity reference the multiprocess backend is held to.
"""

from __future__ import annotations

from repro.cluster.router import Router


class ShardedEngine(Router):
    """A :class:`Router` over in-process shard hosts — the router's
    default :class:`~repro.cluster.router.LocalTransport`. ``qos``
    therefore attaches one cluster-wide controller shared by every shard."""

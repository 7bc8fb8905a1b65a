"""QoS control plane: admission control, adaptive degradation, faults.

The data plane (pipeline, sharded router, replay driver) *measures* load —
the PR 3 telemetry grades every interval OK / DEGRADED / OVERLOADED —
but nothing reacted to the grade: an overloaded run kept missing its
p99 and recorded the breaches. This package closes the loop:

* :mod:`repro.qos.admission` — a token-bucket
  :class:`AdmissionController` in front of the delivery fan-out with
  value-aware shedding (lowest expected-revenue deliveries drop first);
* :mod:`repro.qos.degrade` — a :class:`DegradationLadder` of ordered,
  reversible fidelity rungs (shrink slate → candidates-only scoring →
  shed);
* :mod:`repro.qos.controller` — the :class:`QosController` that consumes
  :class:`~repro.obs.health.HealthMonitor` grades with its own
  hysteresis and steps the ladder;
* :mod:`repro.qos.faults` — a seeded :class:`FaultInjector` (shard
  outages, slowdowns, duplicated dispatch) the sharded router uses to
  exercise failover, duplicate suppression and shard re-integration.

See DESIGN.md § QoS control plane and benchmark T5.
"""

from repro.qos.admission import AdmissionController, slate_value_bound
from repro.qos.controller import QosController
from repro.qos.degrade import DEFAULT_LADDER, DegradationLadder, Rung
from repro.qos.faults import FaultInjector, ShardOutage, ShardSlowdown

__all__ = [
    "DEFAULT_LADDER",
    "AdmissionController",
    "DegradationLadder",
    "FaultInjector",
    "QosController",
    "Rung",
    "ShardOutage",
    "ShardSlowdown",
    "slate_value_bound",
]

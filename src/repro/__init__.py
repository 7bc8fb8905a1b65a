"""repro — reproduction of "Context-aware advertisement recommendation for
high-speed social news feeding" (Li, Zhang, Lan & Tan, ICDE 2016).

The package implements, from scratch, a context-aware advertising engine for
high-speed social news feeds together with every substrate it needs: a text
pipeline, a social-graph and feed fan-out simulator, an ad corpus with
budgets and targeting, a pruning top-k ad index, time-decayed user profiles,
baselines, synthetic Twitter-like workloads and an evaluation harness.

Quickstart::

    from repro import ContextAwareRecommender, WorkloadConfig, generate_workload

    workload = generate_workload(WorkloadConfig(num_users=200, num_ads=500))
    rec = ContextAwareRecommender.from_workload(workload)
    result = rec.post(author_id=0, text="great marathon running shoes", timestamp=10.0)
    for delivery in result.deliveries:
        print(delivery.user_id, [s.ad_id for s in delivery.slate])

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reconstructed evaluation suite.
"""

from repro.core.config import EngineConfig
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.obs.tracer import RecordingTracer

__version__ = "1.0.0"

__all__ = [
    "ContextAwareRecommender",
    "EngineConfig",
    "RecordingTracer",
    "WorkloadConfig",
    "generate_workload",
    "load_checkpoint",
    "save_checkpoint",
    "__version__",
]

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

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.ads.ctr import CtrEstimator
from repro.ads.targeting import TargetingSpec
from repro.cluster.sharded import ShardedEngine
from repro.core.config import EngineConfig, ScoringWeights
from repro.core.engine import AdEngine
from repro.core.recommender import ContextAwareRecommender
from repro.core.scoring import ScoredAd, ScoringModel
from repro.datagen.importer import ImportedTrace, import_tweets
from repro.datagen.workload import Workload, WorkloadConfig, generate_workload
from repro.feed.assembler import AdSlotPolicy, FeedAssembler
from repro.errors import (
    BudgetError,
    ConfigError,
    CorpusError,
    ReproError,
    UnknownAdError,
    UnknownUserError,
)
from repro.geo.point import GeoPoint
from repro.graph.social import SocialGraph
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.serialize import load_workload, save_workload
from repro.obs.tracer import NoopTracer, RecordingTracer

__version__ = "1.0.0"

__all__ = [
    "Ad",
    "AdCorpus",
    "AdEngine",
    "AdSlotPolicy",
    "BudgetError",
    "CtrEstimator",
    "FeedAssembler",
    "ImportedTrace",
    "NoopTracer",
    "RecordingTracer",
    "ShardedEngine",
    "import_tweets",
    "load_checkpoint",
    "load_workload",
    "save_checkpoint",
    "save_workload",
    "ConfigError",
    "ContextAwareRecommender",
    "CorpusError",
    "EngineConfig",
    "GeoPoint",
    "ReproError",
    "ScoredAd",
    "ScoringModel",
    "ScoringWeights",
    "SocialGraph",
    "TargetingSpec",
    "UnknownAdError",
    "UnknownUserError",
    "Workload",
    "WorkloadConfig",
    "generate_workload",
    "__version__",
]

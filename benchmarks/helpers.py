"""Benchmark drivers shared across experiment files."""

from __future__ import annotations

from repro.baselines.base import BaselineState
from repro.baselines.fullscan import FullScanRecommender
from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import Workload
from repro.scenarios import ScenarioDriver, ScriptedPost, build_scenario_stream
from repro.util.timers import LatencyRecorder


def build_recommender(workload: Workload, config: EngineConfig) -> ContextAwareRecommender:
    return ContextAwareRecommender.from_workload(workload, config)


def replay(recommender: ContextAwareRecommender, workload: Workload, limit: int):
    """Replay the first ``limit`` posts through the driver; returns the
    totals and the per-post latencies."""
    driver = ScenarioDriver(recommender.engine, workload)
    totals = driver.run(build_scenario_stream(workload, (), limit_posts=limit).events)
    return totals, LatencyRecorder(samples=driver.post_latencies)


def run_engine_config(workload: Workload, config: EngineConfig, limit: int):
    """Fresh engine + replay; returns (totals, latencies, engine stats)."""
    recommender = build_recommender(workload, config)
    totals, latency = replay(recommender, workload, limit)
    return totals, latency, recommender.stats


#: The bursty timeline T4 and T5 replay: each burst is 2 minutes of dense
#: posting, one every 20 minutes.
NUM_BURSTS = 6
BURST_LEN_S = 120.0
BURST_SPACING_S = 1200.0


def bursty_posts(workload: Workload, limit: int) -> list[ScriptedPost]:
    """Script the first ``limit`` posts onto the burst/quiet timeline."""
    posts = workload.posts[:limit]
    per_burst = (len(posts) + NUM_BURSTS - 1) // NUM_BURSTS
    scripted = []
    for position, post in enumerate(posts):
        burst, offset = divmod(position, per_burst)
        scripted.append(
            ScriptedPost(
                burst * BURST_SPACING_S + offset * (BURST_LEN_S / per_burst),
                post.msg_id,
                post.author_id,
                post.text,
            )
        )
    return scripted


def run_fullscan_baseline(workload: Workload, limit: int, k: int = 10):
    """The no-index baseline: a full corpus scan per delivery.

    Returns the number of deliveries processed (for deliveries/s math).
    """
    state = BaselineState(
        workload.build_corpus(),
        {user.user_id: user.home for user in workload.users},
    )
    recommender = FullScanRecommender(state)
    deliveries = 0
    for post in workload.posts[:limit]:
        vec = workload.vectorizer.transform(
            workload.tokenizer.tokenize(post.text)
        )
        for follower in sorted(workload.graph.followers(post.author_id)):
            recommender.slate(follower, post.msg_id, vec, post.timestamp, k)
            deliveries += 1
        recommender.observe_post(post.author_id, vec, post.timestamp)
    return deliveries


METHOD_CONFIGS = {
    "car-shared": dict(mode=EngineMode.SHARED, exact_fallback=True),
    # Same engine and the same slates as car-shared (differentially
    # tested), but every index probe runs on the compact numpy kernels
    # and the fan-out kernel cuts the exact top-k directly: no union,
    # certificate or fallback, so exact_fallback is inert here.
    "car-vector": dict(
        mode=EngineMode.SHARED, exact_fallback=True, searcher="vector"
    ),
    "car-approx": dict(mode=EngineMode.SHARED, exact_fallback=False),
    "car-incremental": dict(mode=EngineMode.INCREMENTAL, exact_fallback=True),
    "per-delivery-probe": dict(mode=EngineMode.EXACT),
}


def engine_config_for(method: str, **extra) -> EngineConfig:
    base = dict(METHOD_CONFIGS[method])
    base.update(extra)
    base.setdefault("collect_deliveries", False)
    base.setdefault("charge_impressions", False)
    return EngineConfig(**base)

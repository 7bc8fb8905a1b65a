"""The five benchmark workloads: sizes, stream generation, backend wiring.

``BENCHMARK.json`` lists four of them; ``procpool`` runs by hand and in
all-workloads mode only (the driver's time limit holds four workloads at
three rounds a run, and a router plus two workers on two cores is the
one that reads the scheduler as much as the program).

A workload is a fixed *catalog* (users, follow graph, ads, fitted
vectorizer — the deployment under test, generated once from
``CATALOG_SEED``) plus a *stream* generated from ``--seed`` (who posts
what when, check-ins, scenario events — the traffic). Only the stream
varies with the seed, on purpose: certification/fallback rates are a
property of the catalog and moved per-delivery cost by ±25 % between
catalog seeds in sizing, which no amount of stream length averages out.

Authors are an even sample over the users ranked by fan-out, between
``min_fanout`` and ``max_fanout``: the preferential-attachment graph is so
heavy-tailed (half the users have no followers, the first 40 hold most
edges) that an activity-weighted author draw lets a handful of celebrity
posts decide the delivery count, which ranged 5.9k–18k across ten seeds
in sizing. The seed decides the order, the texts and the times.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, replace

from repro.cluster.procpool import ProcessShardedEngine
from repro.cluster.sharded import ShardedEngine
from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.datagen.topicspace import TopicSpace
from repro.datagen.workload import Workload, WorkloadConfig, generate_workload
from repro.qos import AdmissionController, QosController
from repro.scenarios import build_scenario_stream
from repro.scenarios.base import ScriptedPost, workload_fingerprint
from repro.stream.events import Post

CATALOG_SEED = 21
K = 10
NUM_SHARDS = 2
#: Posts per ``post_batch`` call on the routers. Every post of a batch waits
#: for the whole batch, so at 16 a run had 63 latency samples, its p99 was
#: its slowest batch, and whether a 60 ms gen-2 garbage collection fell in
#: a heavy batch moved it 95 -> 152 ms between seeds. One post per call
#: gives the routers the 1,000 samples the single engine has, and makes
#: ``steady`` -> ``sharded`` a like-for-like comparison.
ROUTER_BATCH = 1

#: Scenarios of the ``adversarial`` workload (knobs: ``_scenario_knobs``).
SCENARIOS = ("budget-burst", "click-flood", "geo-wave")
#: Admission rate as a share of the stream's mean attempted-delivery rate.
ADMISSION_SHARE = 0.75
ADMISSION_BURST_S = 3600.0


@dataclass(frozen=True)
class Spec:
    """One workload: its reason, its input sizes and how it is driven."""

    name: str
    why: str
    backend: str  # "single" | "sharded" | "procpool"
    follows_per_user: int
    min_fanout: int  # authors have between min_fanout and
    max_fanout: int  # max_fanout followers
    posts: int  # stream length, warm-up prefix included
    warm_posts: int
    charged: bool  # charge_impressions and ctr_feedback
    adversarial: bool = False
    users: int = 2000
    ads: int = 4000
    burst_campaigns: int = 150
    burst_posts: int = 50

    @property
    def routed(self) -> bool:
        return self.backend != "single"


_STEADY = Spec(
    name="steady",
    why="canonical whole path: charged, CTR-fed, slates returned; charging "
    "forces the per-follower scalar personalize path",
    backend="single",
    follows_per_user=8,
    # Without the followerless half of the users the median post does ad
    # work; with them p50 sat on the edge between "0 followers" and "1".
    min_fanout=1,
    max_fanout=15,
    posts=1200,
    warm_posts=200,
    charged=True,
)

SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        _STEADY,
        Spec(
            name="fanout_batch",
            why="uncharged high fan-out: the fused personalize_batch kernel "
            "with hot caches; charge/feedback do nothing, so a scalar-path "
            "gain that costs the batch path shows here",
            backend="single",
            follows_per_user=20,
            # Everyone posts: 46 % of posts reach nobody (the per-message
            # path alone) and twelve come from the 21 founders with
            # 760-1,170 followers each; p99 sits among those.
            min_fanout=0,
            max_fanout=2000,
            posts=1200,
            warm_posts=200,
            charged=False,
        ),
        replace(
            _STEADY,
            name="adversarial",
            why="writes beside reads: launches invalidate probe caches, "
            "clicks feed CTR and LinUCB, check-ins move geo targeting, "
            "admission sheds; the cold-cache state-mutating path",
            posts=1100,
            warm_posts=150,
            adversarial=True,
        ),
        replace(
            _STEADY,
            name="sharded",
            why="steady's stream through the in-process 2-shard router, one "
            "post per call: routing, per-shard state and amplification "
            "without a transport",
            backend="sharded",
        ),
        replace(
            _STEADY,
            name="procpool",
            why="sharded's stream through 2 worker processes: isolates "
            "pickle encode/decode, socket wait and real parallelism; the "
            "only workload where cluster.rpc does work",
            backend="procpool",
        ),
    )
}


def scaled(spec: Spec, scale: str) -> Spec:
    """``mini`` shrinks every size for the harness self-tests."""
    if scale == "full":
        return spec
    return replace(
        spec,
        users=240,
        ads=480,
        posts=spec.posts // 8,
        warm_posts=spec.warm_posts // 8,
        max_fanout=min(spec.max_fanout, 40),
        burst_campaigns=spec.burst_campaigns // 8,
        burst_posts=spec.burst_posts // 8,
    )


def _scenario_knobs(spec: Spec) -> dict[str, dict]:
    return {
        "budget-burst": {
            "campaigns": spec.burst_campaigns,
            "posts": spec.burst_posts,
            "window_fraction": 0.8,
        },
        "click-flood": {"window_fraction": 1.0},
        "geo-wave": {"window_fraction": 0.8},
    }


@dataclass(frozen=True)
class Inputs:
    """Everything a round replays: the only thing the program is handed."""

    spec: Spec
    workload: Workload
    events: tuple  # scripted events, time-ordered
    warm_events: int  # events[:warm_events] is the warm-up prefix
    fingerprint: str
    total_fanout: int  # sum of author fan-outs over every post
    counts: dict[str, int]


def _systematic(eligible: list, count: int) -> list:
    """``count`` users at even strides through ``eligible`` (wrapping is
    impossible: the stride is ``len/count`` and the offset half a stride)."""
    stride = len(eligible) / count
    return [eligible[int((index + 0.5) * stride)] for index in range(count)]


def _stream_posts(catalog: Workload, spec: Spec, rng: random.Random) -> list[Post]:
    """Warm-up and measured posts, each an even sample over the eligible
    users ranked by fan-out — so *who* posts (and hence the fan-out of
    every percentile of the stream) is fixed by the catalog, and the seed
    decides the order, the texts and the times."""
    graph = catalog.graph
    eligible = sorted(
        (
            user
            for user in catalog.users
            if spec.min_fanout <= graph.fanout(user.user_id) <= spec.max_fanout
        ),
        key=lambda user: (graph.fanout(user.user_id), user.user_id),
    )
    warm = _systematic(eligible, spec.warm_posts)
    measured = _systematic(eligible, spec.posts - spec.warm_posts)
    rng.shuffle(warm)
    rng.shuffle(measured)
    authors = warm + measured
    duration = catalog.config.duration_s
    timestamps = sorted(rng.uniform(0.0, duration) for _ in authors)
    mean_words = catalog.config.mean_words_per_post
    posts = []
    for msg_id, (author, timestamp) in enumerate(zip(authors, timestamps)):
        topic = TopicSpace.sample_topic(author.mixture, rng)
        length = max(4, round(rng.gauss(mean_words, mean_words / 3.0)))
        words = catalog.topic_space.sample_words(topic, length, rng)
        posts.append(Post(msg_id, author.user_id, " ".join(words), timestamp))
    return posts


def build_inputs(spec: Spec, seed: int) -> Inputs:
    """Catalog from ``CATALOG_SEED``, stream from ``seed``."""
    catalog = generate_workload(
        WorkloadConfig(
            num_users=spec.users,
            num_ads=spec.ads,
            # The catalog's own posts only fit the vectorizer's IDF table.
            num_posts=spec.posts,
            num_topics=20,
            vocab_size=5000,
            follows_per_user=spec.follows_per_user,
            seed=CATALOG_SEED,
        )
    )
    rng = random.Random(f"e2e-stream:{seed}")
    posts = _stream_posts(catalog, spec, rng)
    workload = replace(catalog, posts=posts, post_topics={}, checkins=[])
    events = tuple(
        ScriptedPost(p.timestamp, p.msg_id, p.author_id, p.text) for p in posts
    )
    if spec.adversarial:
        # Scenarios are composed over the measured posts only, so every
        # launch, click and wave lands in the measured part whatever
        # window the seed picks; the warm-up prefix is plain posts. Their
        # actors (burst authors, bots, travellers) come from the users who
        # may author a base post: the burst draws its authors at random
        # from the top tenth by fan-out, and with 100-follower users in
        # that pool the draw decided p99 (13.6-19.7 ms over ten seeds).
        actors = [
            user
            for user in workload.users
            if workload.graph.fanout(user.user_id) <= spec.max_fanout
        ]
        events = events[: spec.warm_posts] + build_scenario_stream(
            replace(workload, users=actors, posts=posts[spec.warm_posts :]),
            SCENARIOS,
            seed=seed,
            knobs=_scenario_knobs(spec),
        ).events
    post_positions = [
        index for index, event in enumerate(events) if isinstance(event, ScriptedPost)
    ]
    counts = dict(Counter(type(event).__name__ for event in events))
    digest = hashlib.sha256(repr(workload_fingerprint(catalog)).encode())
    digest.update(repr(events).encode())
    return Inputs(
        spec=spec,
        workload=workload,
        events=events,
        warm_events=post_positions[spec.warm_posts],
        fingerprint=digest.hexdigest()[:16],
        total_fanout=sum(
            workload.graph.fanout(events[index].author_id) for index in post_positions
        ),
        counts=counts,
    )


def engine_config(spec: Spec, *, searcher: str = "vector") -> EngineConfig:
    return EngineConfig(
        k=K,
        mode=EngineMode.SHARED,
        searcher=searcher,
        exact_fallback=True,
        collect_deliveries=True,
        charge_impressions=spec.charged,
        ctr_feedback=spec.charged,
        personalize="linucb" if spec.adversarial else "static",
    )


def _admission_only_qos(inputs: Inputs) -> QosController:
    """Admission at a fixed share of the stream's mean attempted rate; the
    ladder never steps (``observe`` is never called), so work stays
    deterministic."""
    span = max(inputs.events[-1].timestamp - inputs.events[0].timestamp, 1.0)
    rate = ADMISSION_SHARE * inputs.total_fanout / span
    return QosController(
        admission=AdmissionController(rate_per_s=rate, burst_s=ADMISSION_BURST_S)
    )


def build_backend(inputs: Inputs, *, backend: str | None = None, tracer=None,
                  searcher: str = "vector"):
    """A fresh backend over the inputs' catalog, users registered."""
    spec = inputs.spec
    workload = inputs.workload
    config = engine_config(spec, searcher=searcher)
    backend = backend or spec.backend
    if backend == "sharded":
        return ShardedEngine(workload, NUM_SHARDS, config=config, tracer=tracer)
    if backend == "procpool":
        return ProcessShardedEngine(
            workload, NUM_SHARDS, config=config, tracer=tracer
        )
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=config,
        qos=_admission_only_qos(inputs) if spec.adversarial else None,
    )
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    return engine

"""End-to-end searcher interchangeability: the engine must serve the same
slates whichever of the two searcher kinds is configured.

``ta`` is the pure-Python reference. The ``vector`` searcher runs the
compact float32-backed mirror, so its contract is the differential-oracle
one: identical slates (same users, same ad ids, same certification flags)
with scores within 1e-6 of the TA oracle — held across every engine mode
and topology (single, sharded, procpool), including under mid-stream
campaign churn, and with the profile dropped from the combined query
(β = 0)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.ads.ad import Ad
from repro.cluster import ProcessShardedEngine, ShardedEngine
from repro.core import rerank
from repro.core.config import EngineConfig, EngineMode, ScoringWeights
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.errors import ConfigError
from repro.index.factory import SEARCHER_KINDS, make_searcher
from repro.util.sparse import dot


class TestFactory:
    def test_unknown_kind_rejected(self, tiny_workload):
        from repro.reference.inverted import AdInvertedIndex

        index = AdInvertedIndex.from_corpus(tiny_workload.build_corpus())
        with pytest.raises(ConfigError):
            make_searcher("btree", index)

    def test_all_kinds_constructible(self, tiny_workload):
        from repro.index.factory import make_index

        for kind in SEARCHER_KINDS:
            index = make_index(kind, tiny_workload.build_corpus())
            searcher = make_searcher(kind, index)
            assert searcher.search({"w00010": 1.0}, 3) is not None

    def test_config_rejects_unknown_searcher(self):
        with pytest.raises(ConfigError):
            EngineConfig(searcher="quantum")

    def test_config_rejects_a_deleted_searcher_naming_the_kinds_left(self):
        with pytest.raises(ConfigError) as rejected:
            EngineConfig(searcher="wand")
        assert all(repr(kind) in str(rejected.value) for kind in SEARCHER_KINDS)


def _delivery_outcomes(deliveries, collected):
    for delivery in deliveries:
        collected.append(
            (
                delivery.user_id,
                tuple(scored.ad_id for scored in delivery.slate),
                [scored.score for scored in delivery.slate],
                delivery.certified,
                delivery.fell_back,
            )
        )


def _single_engine_outcomes(
    workload, searcher, mode, *, churn=False, limit=15, beta=0.5
):
    recommender = ContextAwareRecommender.from_workload(
        workload,
        EngineConfig(
            searcher=searcher,
            mode=mode,
            charge_impressions=False,
            weights=ScoringWeights(beta=beta),
        ),
    )
    collected: list = []
    churn_ads = _churn_ads(workload) if churn else []
    retire_ids = [ad.ad_id for ad in workload.build_corpus().active_ads()][:4]
    for position, post in enumerate(workload.posts[:limit]):
        if churn and position % 3 == 0 and churn_ads:
            # Sliding-window-style corpus churn: launch one fresh campaign
            # and retire one old one between posts.
            recommender.engine.launch_campaign(churn_ads.pop(0), post.timestamp)
            if retire_ids:
                recommender.engine.end_campaign(retire_ids.pop(0), post.timestamp)
        result = recommender.post(post.author_id, post.text, post.timestamp)
        _delivery_outcomes(result.deliveries, collected)
    return collected


def _churn_ads(workload):
    """Clones of live ads at a bid of their own: a clone's re-normalised
    terms differ from its donor's in the last ulp, which the mirror's
    float32 storage rounds to a tie — at the donor's bid the pair would
    rank by score in float64 and by id in float32."""
    donors = list(workload.build_corpus().active_ads())[:8]
    return [
        Ad(
            ad_id=50_000 + position,
            advertiser=f"churn{position}",
            text=donor.text,
            terms=dict(donor.terms),
            bid=donor.bid * 1.1,
        )
        for position, donor in enumerate(donors)
    ]


def _cluster_outcomes(
    workload, searcher, *, backend, shards=3, limit=12, beta=0.5
):
    config = EngineConfig(
        searcher=searcher,
        charge_impressions=False,
        pacing_enabled=False,
        weights=ScoringWeights(beta=beta),
    )
    engine = backend(workload, shards, config=config)
    collected: list = []
    try:
        for post in workload.posts[:limit]:
            results = engine.post(post.author_id, post.text, post.timestamp)
            per_post: list = []
            for result in results:
                _delivery_outcomes(result.deliveries, per_post)
            # Shard order is topology-dependent; the fan-out set is not.
            per_post.sort(key=lambda outcome: outcome[0])
            collected.extend(per_post)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return collected


def assert_vector_parity(got, reference, tol=1e-6, *, flags=True):
    """Same deliveries, same slates, scores within ``tol`` — and the same
    ``flags`` where the vector path computes them: its SHARED kernel cuts
    the exact top-k outright, so it certifies nothing and never falls
    back, while the reference serves the same slate either way."""
    assert len(got) == len(reference)
    for mine, ref in zip(got, reference):
        user, ad_ids, scores, certified, fell_back = mine
        ref_user, ref_ad_ids, ref_scores, ref_certified, ref_fell_back = ref
        assert user == ref_user
        assert ad_ids == ref_ad_ids
        if flags:
            assert certified == ref_certified
            assert fell_back == ref_fell_back
        else:
            assert certified and not fell_back
        for score, ref_score in zip(scores, ref_scores):
            assert score == pytest.approx(ref_score, abs=tol)


_MODES = [EngineMode.SHARED, EngineMode.EXACT, EngineMode.INCREMENTAL]
# The default weights on a short stream, and β = 0 — the combined query
# drops the profile, and the relevance floor with it — on a stream long
# enough for profiles to exist (at 40 posts the pre-fix ``ta`` SHARED
# stage served 14 slates its own exact probe could not return).
_BETA_ZERO = {"beta": 0.0, "limit": 40}
_MODE_CASES = [pytest.param(mode, {}, id=str(mode)) for mode in _MODES] + [
    pytest.param(mode, _BETA_ZERO, id=f"{mode}-beta0") for mode in _MODES
]


class TestVectorDifferentialOracle:
    """vector vs the TA oracle across modes, topologies and churn."""

    @pytest.mark.parametrize("mode,stream", _MODE_CASES)
    def test_single_engine_all_modes(self, tiny_workload, mode, stream):
        reference = _single_engine_outcomes(tiny_workload, "ta", mode, **stream)
        got = _single_engine_outcomes(tiny_workload, "vector", mode, **stream)
        assert_vector_parity(got, reference, flags=mode is not EngineMode.SHARED)

    @pytest.mark.parametrize("mode,stream", _MODE_CASES)
    def test_single_engine_under_churn(self, tiny_workload, mode, stream):
        reference = _single_engine_outcomes(
            tiny_workload, "ta", mode, churn=True, **stream
        )
        got = _single_engine_outcomes(
            tiny_workload, "vector", mode, churn=True, **stream
        )
        assert_vector_parity(got, reference, flags=mode is not EngineMode.SHARED)

    def test_sharded_topology(self, tiny_workload):
        for stream in ({}, _BETA_ZERO):
            reference = _cluster_outcomes(
                tiny_workload, "ta", backend=ShardedEngine, **stream
            )
            got = _cluster_outcomes(
                tiny_workload, "vector", backend=ShardedEngine, **stream
            )
            assert_vector_parity(got, reference, flags=False)

    def test_procpool_topology(self, tiny_workload):
        for stream in ({"limit": 10}, _BETA_ZERO):
            reference = _cluster_outcomes(
                tiny_workload, "ta", backend=ProcessShardedEngine,
                shards=2, **stream,
            )
            got = _cluster_outcomes(
                tiny_workload, "vector", backend=ProcessShardedEngine,
                shards=2, **stream,
            )
            assert_vector_parity(got, reference, flags=False)


@pytest.fixture(scope="module")
def hub_workload():
    """A few ordinary posts, then one by an author everyone follows: a
    fan-out wide enough that the kernel cuts it ahead in more than one
    block, on the single engine and on every shard of two."""
    workload = generate_workload(
        WorkloadConfig(
            num_users=480,
            num_ads=800,
            num_posts=8,
            num_topics=8,
            vocab_size=1200,
            follows_per_user=3,
            seed=23,
        )
    )
    hub = workload.posts[-1].author_id
    for user in workload.users:
        if user.user_id != hub:
            workload.graph.follow(user.user_id, hub)
    return workload


class TestHubFanoutInSeveralBlocks:
    """vector vs the TA oracle on a fan-out that exceeds the block's cell
    budget: ids and order equal, scores to 1e-6, on every topology."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        """A cell budget that splits the hub's fan-out into blocks of
        ≈ 120 followers: several on one engine, and on each shard of two."""
        monkeypatch.setattr(rerank, "_BLOCK_CELLS", 3_600)

    def test_single_engine(self, hub_workload, blocks):
        limit = len(hub_workload.posts)
        reference = _single_engine_outcomes(
            hub_workload, "ta", EngineMode.SHARED, limit=limit
        )
        assert not blocks
        got = _single_engine_outcomes(
            hub_workload, "vector", EngineMode.SHARED, limit=limit
        )
        assert_vector_parity(got, reference, flags=False)
        # The last post is the hub's: everyone else follows, all of them
        # are cut ahead (uncharged, nothing is written on delivery), and
        # one block could not hold them.
        cut_ahead = len(hub_workload.users) - 1
        hub_blocks = []
        while sum(hub_blocks) < cut_ahead:
            hub_blocks.append(blocks.pop())
        assert sum(hub_blocks) == cut_ahead and len(hub_blocks) > 1

    def test_sharded_topology(self, hub_workload, blocks):
        limit = len(hub_workload.posts)
        reference = _cluster_outcomes(
            hub_workload, "ta", backend=ShardedEngine, shards=2, limit=limit
        )
        got = _cluster_outcomes(
            hub_workload, "vector", backend=ShardedEngine, shards=2, limit=limit
        )
        assert_vector_parity(got, reference, flags=False)
        # Each shard serves about half of the hub's followers, and no
        # block held a shard's share: two blocks or more on each.
        assert len([size for size in blocks if size > 100]) >= 2
        assert max(blocks) < len(hub_workload.users) // 2 - 40

    def test_procpool_topology(self, hub_workload):
        limit = len(hub_workload.posts)
        reference = _cluster_outcomes(
            hub_workload, "ta", backend=ProcessShardedEngine, shards=2, limit=limit
        )
        got = _cluster_outcomes(
            hub_workload, "vector", backend=ProcessShardedEngine, shards=2,
            limit=limit,
        )
        assert_vector_parity(got, reference, flags=False)


def _e2e_workloads():
    """``benchmarks/e2e/workloads.py``: the benchmark's catalogs and
    streams, built from the repository's own generators."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads",
        Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py",
    )
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up by name.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


class TestSteadySeed3409Swap:
    """Where the two searchers part on the benchmark's ``steady`` stream at
    seed 3409: its warm-up serves ``ta`` and ``vector`` the same slates up
    to message 81's delivery to user 1138, whose nine first slots agree
    and whose tenth holds ad 270 on ``ta`` and ad 1570 on ``vector``.

    The two ads are a tie within the float32 mirror's precision: on the
    float64 reference 270 leads by 3.5e-10, on the mirror 1570 leads by
    7.5e-9, and the mirror misses each ad's reference score by more than
    either gap (270 by 1.2e-8, 1570 by 4.0e-9)."""

    @pytest.fixture(scope="class")
    def at_the_swap(self):
        """Both ads' scores, and the served slate, on each searcher in the
        state just before that delivery is cut."""
        workloads = _e2e_workloads()
        inputs = workloads.build_inputs(workloads.SPECS["steady"], 3409)
        swap = next(post for post in inputs.events if post.msg_id == 81)
        read = {}
        for searcher in ("ta", "vector"):
            engine = workloads.build_backend(inputs, searcher=searcher)
            for post in inputs.events[: inputs.events.index(swap)]:
                engine.post(
                    post.author_id, post.text, post.timestamp, msg_id=post.msg_id
                )
            event = engine.make_event(
                swap.author_id, swap.text, swap.timestamp, msg_id=swap.msg_id
            )
            engine._ingest(event)
            followers = sorted(engine.graph.followers(swap.author_id))
            outcomes = engine.pipeline.deliver_batch(
                event, followers[: followers.index(1138)]
            )
            services = engine.services
            state = services.users.state(1138)
            profile = state.profile
            profile_vec = profile.unit
            personalizer = engine.pipeline.personalize_stage._personalizer
            if searcher == "ta":
                served = personalizer.slate_for(
                    engine.pipeline.candidate_stage.candidates_for(event),
                    event.message_vec, 1138, profile_vec, profile.epoch,
                    state.location, event.timestamp, 10,
                ).slate
                corpus = services.corpus
                scores = {
                    ad_id: services.scoring.evaluate(
                        ad_id,
                        dot(event.message_vec, corpus.get(ad_id).terms),
                        profile_vec,
                        state.location,
                        event.timestamp,
                    ).score
                    for ad_id in (270, 1570)
                }
            else:
                follower = [(1138, profile_vec, profile.epoch, state.location)]
                served = personalizer.slate_batch(
                    None, event.message_vec, follower, event.timestamp, 10
                )[0]
                deeper = personalizer.slate_batch(
                    None, event.message_vec, follower, event.timestamp, 20
                )[0]
                scores = {entry.ad_id: entry.score for entry in deeper}
            read[searcher] = (outcomes, served, scores[270], scores[1570])
        return read

    def test_everything_before_the_swap_agrees(self, at_the_swap):
        ta_before, ta_slate = at_the_swap["ta"][:2]
        vector_before, vector_slate = at_the_swap["vector"][:2]
        assert [
            (outcome.user_id, [entry.ad_id for entry in outcome.slate])
            for outcome in ta_before
        ] == [
            (outcome.user_id, [entry.ad_id for entry in outcome.slate])
            for outcome in vector_before
        ]
        assert [entry.ad_id for entry in ta_slate][:9] == [
            entry.ad_id for entry in vector_slate
        ][:9]
        assert ta_slate[-1].ad_id == 270 and vector_slate[-1].ad_id == 1570
        assert ta_slate[-1].score == at_the_swap["ta"][2]
        assert vector_slate[-1].score == at_the_swap["vector"][3]

    def test_the_swap_is_a_tie_within_the_mirror(self, at_the_swap):
        _, _, ta_270, ta_1570 = at_the_swap["ta"]
        _, _, vector_270, vector_1570 = at_the_swap["vector"]
        assert ta_270 == 0.6392737765287646
        assert ta_1570 == 0.6392737761760554
        assert vector_270 == 0.6392737647427291
        assert vector_1570 == 0.6392737722201073
        # Each side ranks the other ad second, by less than the mirror
        # moves either ad's score.
        mirror_error = min(abs(vector_270 - ta_270), abs(vector_1570 - ta_1570))
        assert 0 < ta_270 - ta_1570 < mirror_error
        assert 0 < vector_1570 - vector_270 < 1e-8
        assert max(abs(vector_270 - ta_270), abs(vector_1570 - ta_1570)) < 1e-6

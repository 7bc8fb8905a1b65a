"""Delivery-pipeline tests: golden parity with the pre-refactor engine,
stage selection per mode, batch fan-out, and pluggable stages."""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.engine import AdEngine
from repro.core.pipeline import (
    KernelPersonalizeStage,
    NoChargeStage,
    NoProbeStage,
    SharedProbeStage,
)
from repro.core.recommender import ContextAwareRecommender
from repro.datagen.workload import WorkloadConfig, generate_workload
from repro.reference import (
    ExactPersonalizeStage,
    GlobalStaticTopList,
    IncrementalPersonalizeStage,
    SharedPersonalizeStage,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_mode_slates.json"


@pytest.fixture(scope="module")
def golden_workload():
    """The exact workload the golden file was captured on (pre-refactor
    engine, see tests/golden/engine_mode_slates.json)."""
    return generate_workload(
        WorkloadConfig(
            num_users=25,
            num_ads=80,
            num_posts=40,
            num_topics=6,
            vocab_size=800,
            follows_per_user=4,
            seed=7,
        )
    )


class TestGoldenModeParity:
    """Each EngineMode's PersonalizeStage must reproduce, delivery for
    delivery, the slates the monolithic pre-refactor ``post()`` produced."""

    @pytest.mark.parametrize("mode", list(EngineMode))
    def test_mode_matches_golden(self, golden_workload, mode):
        golden = json.loads(GOLDEN_PATH.read_text())[mode.value]
        config = EngineConfig(mode=mode, searcher="ta", charge_impressions=False)
        rec = ContextAwareRecommender.from_workload(golden_workload, config)
        for post, expected in zip(golden_workload.posts[:30], golden):
            result = rec.post(
                post.author_id, post.text, post.timestamp, msg_id=post.msg_id
            )
            assert result.msg_id == expected["msg_id"]
            assert len(result.deliveries) == len(expected["deliveries"])
            for delivery, want in zip(result.deliveries, expected["deliveries"]):
                assert delivery.user_id == want["user_id"]
                got = [
                    [scored.ad_id, round(scored.score, 9)]
                    for scored in delivery.slate
                ]
                assert got == want["slate"]


class TestStageSelection:
    def _engine(self, workload, **config_kwargs):
        config = EngineConfig(**config_kwargs)
        return ContextAwareRecommender.from_workload(workload, config).engine

    def test_shared_mode_stages(self, tiny_workload):
        engine = self._engine(
            tiny_workload, mode=EngineMode.SHARED, searcher="ta"
        )
        assert isinstance(engine.pipeline.candidate_stage, SharedProbeStage)
        assert isinstance(
            engine.pipeline.personalize_stage, SharedPersonalizeStage
        )

    def test_incremental_mode_stages(self, tiny_workload):
        engine = self._engine(tiny_workload, mode=EngineMode.INCREMENTAL)
        assert isinstance(engine.pipeline.candidate_stage, SharedProbeStage)
        assert isinstance(
            engine.pipeline.personalize_stage, IncrementalPersonalizeStage
        )

    def test_exact_mode_stages(self, tiny_workload):
        engine = self._engine(tiny_workload, mode=EngineMode.EXACT, searcher="ta")
        assert isinstance(engine.pipeline.candidate_stage, NoProbeStage)
        assert isinstance(engine.pipeline.personalize_stage, ExactPersonalizeStage)

    @pytest.mark.parametrize("mode", [EngineMode.SHARED, EngineMode.EXACT])
    def test_vector_shared_and_exact_are_one_kernel_stage(self, tiny_workload, mode):
        engine = self._engine(tiny_workload, mode=mode, searcher="vector")
        assert isinstance(engine.pipeline.personalize_stage, KernelPersonalizeStage)
        assert isinstance(
            engine.pipeline.candidate_stage,
            NoProbeStage if mode is EngineMode.EXACT else SharedProbeStage,
        )

    def test_charging_off_selects_null_stage(self, tiny_workload):
        engine = self._engine(tiny_workload, charge_impressions=False)
        assert isinstance(engine.pipeline.charge_stage, NoChargeStage)


class TestExactModeStats:
    """EXACT deliveries are exact probes, not fallbacks: the baseline's
    fallback_rate must read 0, with a distinct exact_deliveries counter."""

    def test_exact_deliveries_not_counted_as_fallbacks(self, tiny_workload):
        config = EngineConfig(mode=EngineMode.EXACT, charge_impressions=False)
        rec = ContextAwareRecommender.from_workload(tiny_workload, config)
        for post in tiny_workload.posts[:15]:
            rec.post(post.author_id, post.text, post.timestamp)
        stats = rec.stats
        assert stats.deliveries > 0
        assert stats.fallback_deliveries == 0
        assert stats.fallback_rate() == 0.0
        assert stats.exact_deliveries == stats.deliveries
        assert stats.certified_deliveries == stats.deliveries
        assert (
            stats.certified_deliveries
            + stats.fallback_deliveries
            + stats.approximate_deliveries
            == stats.deliveries
        )

    def test_shared_mode_has_no_exact_deliveries(self, tiny_workload):
        config = EngineConfig(mode=EngineMode.SHARED, charge_impressions=False)
        rec = ContextAwareRecommender.from_workload(tiny_workload, config)
        for post in tiny_workload.posts[:15]:
            rec.post(post.author_id, post.text, post.timestamp)
        assert rec.stats.exact_deliveries == 0


class TestBatchFanout:
    def test_deliver_batch_matches_single_deliveries(self, tiny_workload):
        """deliver() is a batch of one: a batched fan-out must equal
        delivering to the same followers one by one."""
        config = EngineConfig(charge_impressions=False)
        batched = ContextAwareRecommender.from_workload(tiny_workload, config)
        single = ContextAwareRecommender.from_workload(tiny_workload, config)
        for post in tiny_workload.posts[:10]:
            event_b = batched.engine.make_event(
                post.author_id, post.text, post.timestamp, msg_id=post.msg_id
            )
            batched.engine._ingest(event_b)
            followers = sorted(
                tiny_workload.graph.followers(post.author_id)
            )
            batch = batched.engine.pipeline.deliver_batch(event_b, followers)

            event_s = single.engine.make_event(
                post.author_id, post.text, post.timestamp, msg_id=post.msg_id
            )
            single.engine._ingest(event_s)
            ones = [
                single.engine.pipeline.deliver(event_s, follower)
                for follower in followers
            ]
            assert batch == ones

    def test_post_batch_equals_post_sequence(self, tiny_workload):
        config = EngineConfig(charge_impressions=False)
        batched = ContextAwareRecommender.from_workload(tiny_workload, config)
        sequential = ContextAwareRecommender.from_workload(tiny_workload, config)
        posts = tiny_workload.posts[:20]
        batch_results = batched.post_batch(posts)
        seq_results = [
            sequential.post(
                post.author_id, post.text, post.timestamp, msg_id=post.msg_id
            )
            for post in posts
        ]
        assert batch_results == seq_results
        assert batched.stats == sequential.stats


class TestPluggableStages:
    def test_custom_feedback_stage_observes_every_slate(self, tiny_workload):
        config = EngineConfig(charge_impressions=False)
        rec = ContextAwareRecommender.from_workload(tiny_workload, config)
        seen: list[int] = []

        class RecordingFeedback:
            def observe_impressions(self, slate, rows=None):
                seen.extend(scored.ad_id for scored in slate)

        rec.engine.pipeline.feedback_stage = RecordingFeedback()
        impressions = 0
        for post in tiny_workload.posts[:10]:
            impressions += rec.post(
                post.author_id, post.text, post.timestamp
            ).num_impressions
        assert len(seen) == impressions > 0


def charged_engine(workload, *, searcher="vector", qos=None, **config_kwargs):
    """A charged, CTR-fed engine whose evidence fades (``discount < 1``):
    every served slate moves spend, pacing and quality under the next."""
    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=workload.graph,
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=EngineConfig(searcher=searcher, ctr_feedback=True, **config_kwargs),
        qos=qos,
    )
    engine.ctr.discount = 0.9
    for user in workload.users:
        engine.register_user(user.user_id, user.home)
    return engine


def fan_out(engine, post, *, one_call):
    """One event's outcomes: the whole fan-out in one ``deliver_batch``,
    or the same followers one ``deliver()`` at a time."""
    event = engine.make_event(
        post.author_id, post.text, post.timestamp, msg_id=post.msg_id
    )
    engine.ingest_event(event)
    followers = sorted(engine.graph.followers(post.author_id))
    if one_call:
        return engine.pipeline.deliver_batch(event, followers)
    return [engine.pipeline.deliver(event, follower) for follower in followers]


def books(engine):
    return (
        engine.stats.revenue,
        engine.stats.impressions,
        engine.stats.fallback_deliveries,
        {ad_id: state.spent for ad_id, state in engine.budget.states().items()},
        {ad_id: engine.ctr.impressions_of(ad_id) for ad_id in engine.ctr.observed_ads()},
        sorted(ad.ad_id for ad in engine.corpus.active_ads()),
    )


def block_cuts(engine):
    """Spy on the kernel's block: the follower count of every run it cut
    ahead."""
    personalizer = engine.personalizer
    cut, cut_block = [], personalizer._cut_block

    def spying(followers, *args):
        cut.append(len(followers))
        return cut_block(followers, *args)

    personalizer._cut_block = spying
    return cut


def patch_reads(engine):
    """Spy on the bid term's one entry: the rows it was asked to re-read
    as floats (``None`` entries are the whole-row array builds)."""
    scoring = engine.services.scoring
    reads = []
    original = scoring.fanout_bid_block

    def spying(cache, timestamp, rows=None):
        reads.append(rows)
        return original(cache, timestamp, rows)

    scoring.fanout_bid_block = spying
    return reads


class TestChargedFanoutInOneCall:
    """A charged vector engine hands the kernel the whole fan-out; between
    two followers the kernel re-reads only the rows the delivery wrote.
    The result must equal — slates, scores, revenue, books — the same
    followers delivered one ``deliver()`` (one kernel call) at a time."""

    @pytest.mark.parametrize("personalize", ["static", "linucb"])
    def test_equals_one_deliver_at_a_time(self, tiny_workload, personalize):
        together = charged_engine(tiny_workload, personalize=personalize)
        alone = charged_engine(tiny_workload, personalize=personalize)
        reads = patch_reads(together)
        blocks = block_cuts(together)
        widest = 0
        for post in tiny_workload.posts:
            batch = fan_out(together, post, one_call=True)
            assert batch == fan_out(alone, post, one_call=False)
            assert all(outcome.slate for outcome in batch)
            widest = max(widest, len(batch))
            for outcome in batch[:1]:
                for engine in (together, alone):
                    for scored in outcome.slate[:2]:
                        engine.record_click(scored.ad_id, user_id=outcome.user_id)
        assert books(together) == books(alone)
        assert together.stats.revenue > 0.0 and widest > 2
        # Real work: events with followers built the bid vector once and
        # patched it between followers.
        assert sum(rows is None for rows in reads) < sum(
            rows is not None for rows in reads
        )
        # Every delivery served something, hence wrote: nothing was ever
        # cut ahead.
        assert not blocks

    @staticmethod
    def scout(workload, wanted, **config_kwargs):
        """First (position, ad) where ``wanted(engine, ad_id)`` holds for a
        budgeted, content-matching ad served to an event's first follower
        and again to a later one."""
        engine = charged_engine(workload, searcher="ta", **config_kwargs)
        for position, post in enumerate(workload.posts):
            outcomes = fan_out(engine, post, one_call=True)
            later = {s.ad_id for o in outcomes[1:] for s in o.slate}
            for scored in outcomes[0].slate if len(outcomes) > 2 else ():
                if (
                    scored.content > 0.0
                    and scored.ad_id in later
                    and engine.budget.state(scored.ad_id) is not None
                    and wanted(engine, scored.ad_id)
                ):
                    return position, scored.ad_id
        raise AssertionError("no such fan-out in the workload")

    def run_three_ways(self, workload, position, prepare, **config_kwargs):
        """The event at ``position`` on: one call, one deliver at a time,
        and one call with the kernel's write detection stubbed out."""
        served = {}
        for leg in ("together", "alone", "unpatched"):
            engine = charged_engine(workload, **config_kwargs)
            for post in workload.posts[:position]:
                fan_out(engine, post, one_call=True)
            prepare(engine)
            if leg == "unpatched":
                engine.services.scoring.bid_writes = lambda: 0
            served[leg] = (
                fan_out(engine, workload.posts[position], one_call=leg != "alone"),
                books(engine),
                engine,
            )
        return served

    def test_exhaustion_moves_the_static_prefix_mid_fanout(self, tiny_workload):
        # A short static prefix, so retiring a member pulls the next ad in
        # and moves the cutoff; unpaced, so spend matters only at the end.
        knobs = dict(static_candidates=10, pacing_enabled=False)
        position, ad_id = self.scout(
            tiny_workload,
            lambda engine, ad: ad in engine.personalizer.static_candidate_ids(),
            **knobs,
        )
        before, prefixes = {}, {}

        def prepare(engine):
            state = engine.budget.state(ad_id)
            engine.budget.restore_spend(ad_id, state.budget - 1e-6)
            personalizer = engine.personalizer
            message_vec = engine.vectorize(tiny_workload.posts[position].text)
            assert ad_id in dict(engine.candidate_gen.generate(message_vec).entries)
            row = personalizer._compact.row_of(ad_id)
            assert row in personalizer._compact.gather(message_vec)[0]
            # The reference's prefix, kept beside the kernel on its corpus.
            prefix = prefixes[engine] = GlobalStaticTopList(
                engine.corpus, engine.scoring.weights, knobs["static_candidates"]
            )
            assert ad_id in prefix.candidate_ids()
            before[engine] = (prefix.candidate_ids(), prefix.cutoff())

        served = self.run_three_ways(tiny_workload, position, prepare, **knobs)
        outcomes, ledger, engine = served["together"]
        assert (outcomes, ledger) == served["alone"][:2]
        assert ad_id in {s.ad_id for s in outcomes[0].slate}
        assert not engine.corpus.is_active(ad_id)
        assert all(ad_id not in {s.ad_id for s in o.slate} for o in outcomes[1:])
        ids, cutoff = before[engine]
        assert set(prefixes[engine].candidate_ids()) - set(ids)
        assert prefixes[engine].cutoff() < cutoff
        # Teeth: without the patch the exhausted ad is served again.
        assert served["unpatched"][0] != outcomes
        # And the oracle agrees on who was served what.
        oracle = charged_engine(tiny_workload, searcher="ta", **knobs)
        for post in tiny_workload.posts[:position]:
            fan_out(oracle, post, one_call=True)
        oracle.budget.restore_spend(ad_id, oracle.budget.state(ad_id).budget - 1e-6)
        assert [
            [s.ad_id for s in o.slate]
            for o in fan_out(oracle, tiny_workload.posts[position], one_call=True)
        ] == [[s.ad_id for s in o.slate] for o in outcomes]

    def test_pacing_crosses_the_schedule_mid_fanout(self, tiny_workload):
        position, ad_id = self.scout(tiny_workload, lambda engine, ad: True)
        timestamp = tiny_workload.posts[position].timestamp

        def prepare(engine):
            # Exactly on the uniform schedule: the next charge puts the ad
            # ahead of it, so its pacing multiplier drops below 1.
            state = engine.budget.state(ad_id)
            engine.budget.restore_spend(
                ad_id, state.budget * state.time_fraction(timestamp)
            )
            assert engine.budget.pacing_multiplier(ad_id, timestamp) == 1.0

        served = self.run_three_ways(tiny_workload, position, prepare)
        outcomes, ledger, engine = served["together"]
        assert (outcomes, ledger) == served["alone"][:2]
        assert engine.budget.pacing_multiplier(ad_id, timestamp) < 1.0
        assert served["unpatched"][0] != outcomes


#: Every personalize stage kind: ``(searcher, mode)`` → the stage built.
STAGE_KINDS = {
    ("vector", EngineMode.SHARED): KernelPersonalizeStage,
    ("vector", EngineMode.EXACT): KernelPersonalizeStage,
    ("ta", EngineMode.SHARED): SharedPersonalizeStage,
    ("ta", EngineMode.EXACT): ExactPersonalizeStage,
    ("ta", EngineMode.INCREMENTAL): IncrementalPersonalizeStage,
}


class TestEveryStageKeepsTheFanOutProtocol:
    """Every stage kind, bare and behind the LinUCB wrapper, returns its
    fan-out whether or not it gets a ``write``: on twin engines, one
    handed a ``write`` that writes nothing returns the very fan-out the
    other returns without one, hands every position once and in order,
    each with the slate it returns there, and rows (where it has them)
    that index that slate's ad ids."""

    @pytest.mark.parametrize("personalize", ["static", "linucb"])
    @pytest.mark.parametrize(
        "searcher, mode",
        list(STAGE_KINDS),
        ids=lambda kind: getattr(kind, "value", kind),
    )
    def test_a_write_that_writes_nothing_changes_nothing(
        self, tiny_workload, searcher, mode, personalize
    ):
        from repro.learn.linucb import LinUcbRerankStage

        config = EngineConfig(
            searcher=searcher,
            mode=mode,
            personalize=personalize,
            charge_impressions=False,
        )
        twins = []
        for _ in range(2):
            engine = AdEngine(
                corpus=tiny_workload.build_corpus(),
                graph=tiny_workload.graph,
                vectorizer=tiny_workload.vectorizer,
                tokenizer=tiny_workload.tokenizer,
                config=config,
            )
            for user in tiny_workload.users:
                engine.register_user(user.user_id, user.home)
            twins.append(engine)
        stage = twins[0].pipeline.personalize_stage
        base = stage._base if personalize == "linucb" else stage
        assert type(base) is STAGE_KINDS[searcher, mode]
        assert isinstance(stage, LinUcbRerankStage) is (personalize == "linucb")
        widest = 0
        for post in tiny_workload.posts[:30]:
            fan_outs, handed = [], []
            for engine, write in zip(
                twins, (None, lambda *delivery: handed.append(delivery))
            ):
                event = engine.make_event(
                    post.author_id, post.text, post.timestamp, msg_id=post.msg_id
                )
                engine.ingest_event(event)
                services = engine.services
                resolved = [
                    (follower, services.users.state(follower))
                    for follower in sorted(engine.graph.followers(post.author_id))
                ]
                fan_outs.append(
                    engine.pipeline.personalize_stage.personalize_batch(
                        event,
                        engine.pipeline.candidate_stage.candidates_for(event),
                        resolved,
                        write,
                    )
                )
            bare, written = fan_outs
            assert written == bare
            assert len(bare.slates) == len(bare.flags) == len(resolved)
            assert [position for position, _, _ in handed] == list(
                range(len(resolved))
            )
            ad_ids = twins[1].index.ad_ids if searcher == "vector" else None
            for (position, slate, rows), returned in zip(handed, written.slates):
                assert slate is returned
                assert (rows is not None) is (searcher == "vector")
                if rows is not None:
                    assert ad_ids[rows].tolist() == slate.ad_ids.tolist()
            widest = max(widest, len(resolved))
        assert widest > 2


class TestExactOnVectorIsSharedWithAFlag:
    """On the vector searcher EXACT serves a fan-out the way SHARED does
    — one kernel call per event, the real user ids — minus the shared
    probe and plus the ``exact`` stamp."""

    def test_same_slates_and_books_from_one_kernel_call_per_event(
        self, tiny_workload, monkeypatch
    ):
        from repro.core.rerank import Personalizer

        exact = charged_engine(tiny_workload, mode=EngineMode.EXACT)
        shared = charged_engine(tiny_workload)
        calls, fan_outs = [], []
        slate_batch = Personalizer.slate_batch

        def counting(personalizer, candidates, message_vec, followers, *args, **kwargs):
            if personalizer is exact.personalizer:
                calls.append((candidates, [follower[0] for follower in followers]))
            return slate_batch(
                personalizer, candidates, message_vec, followers, *args, **kwargs
            )

        monkeypatch.setattr(Personalizer, "slate_batch", counting)
        donors = list(tiny_workload.build_corpus().active_ads())
        for position, post in enumerate(tiny_workload.posts):
            if position % 8 == 0:
                donor = donors[position // 8]
                for engine in (exact, shared):
                    engine.launch_campaign(
                        replace(donor, ad_id=60_000 + position, bid=donor.bid * 1.2),
                        post.timestamp,
                    )
                    engine.end_campaign(donors[-1 - position // 8].ad_id, post.timestamp)
            served = fan_out(exact, post, one_call=True)
            assert [outcome._replace(exact=False) for outcome in served] == fan_out(
                shared, post, one_call=True
            )
            assert all(outcome.exact for outcome in served)
            if served:
                fan_outs.append((None, [outcome.user_id for outcome in served]))
        assert books(exact) == books(shared)
        assert exact.stats.revenue > 0.0
        assert exact.stats.exact_deliveries == exact.stats.deliveries > len(fan_outs)
        assert exact.stats.shared_probes == 0 == shared.stats.exact_deliveries
        assert calls == fan_outs

    def test_uncharged_both_cut_the_same_blocks_ahead(self, tiny_workload):
        engines, blocks = [], []
        for mode in (EngineMode.EXACT, EngineMode.SHARED):
            engine = AdEngine(
                corpus=tiny_workload.build_corpus(),
                graph=tiny_workload.graph,
                vectorizer=tiny_workload.vectorizer,
                tokenizer=tiny_workload.tokenizer,
                config=EngineConfig(
                    searcher="vector", mode=mode, charge_impressions=False
                ),
            )
            for user in tiny_workload.users:
                engine.register_user(user.user_id, user.home)
            engines.append(engine)
            blocks.append(block_cuts(engine))
        exact, shared = engines
        for post in tiny_workload.posts:
            served = fan_out(exact, post, one_call=True)
            assert [outcome._replace(exact=False) for outcome in served] == fan_out(
                shared, post, one_call=True
            )
        assert blocks[0] == blocks[1] and sum(blocks[0]) > len(tiny_workload.posts)
        assert exact.stats.exact_deliveries == exact.stats.deliveries


class TestUnchargedFanoutPaysNoPatching:
    def test_zero_patch_reads(self, tiny_workload):
        config = EngineConfig(searcher="vector", charge_impressions=False)
        rec = ContextAwareRecommender.from_workload(tiny_workload, config)
        reads = patch_reads(rec.engine)
        blocks = block_cuts(rec.engine)
        cache = rec.engine.personalizer.row_cache
        one_follower_cuts = []
        targeting_full = cache.targeting_full

        def counting(location):
            one_follower_cuts.append(location)
            return targeting_full(location)

        cache.targeting_full = counting
        fan_outs = [
            rec.post(post.author_id, post.text, post.timestamp).num_deliveries
            for post in tiny_workload.posts[:30]
        ]
        fanned_out = sum(map(bool, fan_outs))
        # The bid vector stays resident: one full build for the one row
        # space (nothing launches or retires), never a row re-read —
        # nothing is written and, with no spend, nothing is paced.
        assert reads == [None] and fanned_out > 1
        # Nothing is written on delivery, so the kernel gets no callback:
        # every follower of an event, the first included, is cut ahead in
        # one block, which reads no dense targeting pair. A run of one is
        # a post with one follower.
        assert blocks == [size for size in fan_outs if size > 1]
        assert len(blocks) > 3
        assert len(one_follower_cuts) == fan_outs.count(1)


class TestOneGatherPerPost:
    """The vector probe hands the kernel its gather, and every top-K′ cut
    stays in numpy: a post pays for its content once."""

    def test_a_warm_fanout_costs_exactly_one_gather(self, tiny_workload, monkeypatch):
        from repro.index.compact import CompactIndex

        engine = charged_engine(tiny_workload)
        post = max(
            tiny_workload.posts,
            key=lambda post: len(engine.graph.followers(post.author_id)),
        )
        # The first fan-out gathers every follower's profile; nobody but
        # the author posts in between, so the second finds them cached.
        assert len(fan_out(engine, post, one_call=True)) >= 3
        gathers = []
        original = CompactIndex.gather

        def counting(compact, query):
            gathers.append(query)
            return original(compact, query)

        monkeypatch.setattr(CompactIndex, "gather", counting)
        outcomes = fan_out(engine, post, one_call=True)
        assert any(outcome.slate for outcome in outcomes)
        # The probe's; the kernel took its rows and dots from the block.
        assert gathers == [engine.vectorize(post.text)]

    @pytest.mark.parametrize("admission", [False, True])
    def test_k_prime_is_cut_only_for_a_reader(
        self, tiny_workload, monkeypatch, admission
    ):
        """The kernel reads the probe's block, never its entries: without
        QoS no post cuts K′; admission's value bound reads ``entries``, so
        under it every post cuts once — and only once."""
        import repro.core.candidates as candidates_module
        from repro.qos import AdmissionController, QosController

        qos = None
        if admission:
            qos = QosController(admission=AdmissionController(rate_per_s=1e9))
        engine = charged_engine(tiny_workload, qos=qos)
        posts = tiny_workload.posts[:20]
        for post in posts:  # warm: profile gathers cached
            fan_out(engine, post, one_call=True)
        cuts = []
        topk_order = candidates_module.topk_order

        def counting(*args):
            cuts.append(args)
            return topk_order(*args)

        monkeypatch.setattr(candidates_module, "topk_order", counting)
        served = sum(
            bool(outcome.slate)
            for post in posts
            for outcome in fan_out(engine, post, one_call=True)
        )
        assert served > len(posts)
        assert len(cuts) == (len(posts) if admission else 0)

    def test_the_serving_path_boxes_no_entry(self, tiny_workload, monkeypatch):
        """``TopKEntry`` is the searchers' result type; the vector serving
        path cuts on arrays and converts with ``.tolist()``."""
        built = []
        for module in ("repro.index.vector", "repro.util.heap"):
            monkeypatch.setattr(
                f"{module}.TopKEntry", lambda *args, **kwargs: built.append(args)
            )
        engine = charged_engine(tiny_workload)
        deliveries = sum(
            len(engine.post(post.author_id, post.text, post.timestamp).deliveries)
            for post in tiny_workload.posts[:30]
        )
        assert deliveries > 30
        assert built == []

    @pytest.mark.parametrize("searcher", ["vector", "ta"])
    def test_only_the_reference_keeps_the_certificate_sources(
        self, tiny_workload, monkeypatch, searcher
    ):
        """The static prefix and the profile probe feed CAR-share's union
        and certificate. The kernel reads neither, so a vector SHARED
        engine never builds the list — no launch or retirement pays to
        keep it sorted — and never probes a profile; ``ta`` does both."""
        import repro.reference.rerank as rerank_module

        built, probed = [], []
        static_list_cls = rerank_module.GlobalStaticTopList
        profile_candidates = rerank_module.CandidateSources.profile_candidates

        def building(*args):
            built.append(args)
            return static_list_cls(*args)

        def probing(personalizer, user_id, *args):
            probed.append(user_id)
            return profile_candidates(personalizer, user_id, *args)

        monkeypatch.setattr(rerank_module, "GlobalStaticTopList", building)
        monkeypatch.setattr(
            rerank_module.CandidateSources, "profile_candidates", probing
        )
        engine = charged_engine(tiny_workload, searcher=searcher)
        retire = [ad.ad_id for ad in engine.corpus.active_ads()][:5]
        deliveries = 0
        for position, post in enumerate(tiny_workload.posts[:30]):
            if position % 6 == 0:
                donor = engine.corpus.get(retire[-1])
                engine.launch_campaign(
                    replace(donor, ad_id=70_000 + position), post.timestamp
                )
                engine.end_campaign(retire.pop(), post.timestamp)
            deliveries += len(
                engine.post(post.author_id, post.text, post.timestamp).deliveries
            )
        assert deliveries > 30
        reference = searcher == "ta"
        assert (len(built), bool(probed)) == (int(reference), reference)


class TestDeliverySpansStayPerDelivery:
    """The follower look-ups happen up front for the whole fan-out; their
    time is shared out equally, so no one ``delivery`` span — the stage
    the health monitor grades — grows with the number of followers."""

    @pytest.mark.parametrize("searcher", ["ta", "vector"])
    def test_lookup_time_is_shared_out(self, tiny_workload, monkeypatch, searcher):
        import repro.core.pipeline as pipeline_module

        class Spans:
            enabled = True

            def __init__(self):
                self.of = {}

            def record(self, stage, seconds):
                self.of.setdefault(stage, []).append(seconds)

        spans = Spans()
        engine = AdEngine(
            corpus=tiny_workload.build_corpus(),
            graph=tiny_workload.graph,
            vectorizer=tiny_workload.vectorizer,
            tokenizer=tiny_workload.tokenizer,
            config=EngineConfig(searcher=searcher),
            tracer=spans,
        )
        for user in tiny_workload.users:
            engine.register_user(user.user_id, user.home)
        # A clock only the look-ups move: one second per follower.
        clock = [0.0]
        monkeypatch.setattr(pipeline_module, "perf_counter", lambda: clock[0])
        users = engine.services.users
        state_of = users.state

        def slow_state_of(user_id):
            clock[0] += 1.0
            return state_of(user_id)

        users.state = slow_state_of
        post = max(
            tiny_workload.posts,
            key=lambda post: len(tiny_workload.graph.followers(post.author_id)),
        )
        outcomes = fan_out(engine, post, one_call=True)
        assert len(outcomes) >= 3
        assert spans.of["personalize"] == [1.0] * len(outcomes)
        assert spans.of["delivery"] == [1.0] * len(outcomes)

    def test_a_cut_made_for_many_is_shared_out(self, tiny_workload, monkeypatch):
        """Uncharged, the kernel cuts every follower ahead in one block. A clock that only the cuts move — a second per
        follower cut, so a block of n takes n seconds before its first
        delivery is handed out — must read one second on every span: the
        first follower of a block does not carry the block."""
        import repro.core.pipeline as pipeline_module
        from repro.core.rerank import Personalizer

        spans = {}

        class Spans:
            enabled = True

            @staticmethod
            def record(stage, seconds):
                spans.setdefault(stage, []).append(seconds)

        engine = AdEngine(
            corpus=tiny_workload.build_corpus(),
            graph=tiny_workload.graph,
            vectorizer=tiny_workload.vectorizer,
            tokenizer=tiny_workload.tokenizer,
            config=EngineConfig(searcher="vector", charge_impressions=False),
            tracer=Spans,
        )
        for user in tiny_workload.users:
            engine.register_user(user.user_id, user.home)
        clock = [0.0]
        monkeypatch.setattr(pipeline_module, "perf_counter", lambda: clock[0])
        blocks = []
        cut_one, cut_block = Personalizer._cut, Personalizer._cut_block

        def slow_cut(*args):
            clock[0] += 1.0
            return cut_one(*args)

        def slow_cut_block(personalizer, followers, *args):
            clock[0] += len(followers)
            blocks.append(len(followers))
            return cut_block(personalizer, followers, *args)

        monkeypatch.setattr(Personalizer, "_cut", slow_cut)
        monkeypatch.setattr(Personalizer, "_cut_block", slow_cut_block)
        post = max(
            tiny_workload.posts,
            key=lambda post: len(tiny_workload.graph.followers(post.author_id)),
        )
        outcomes = fan_out(engine, post, one_call=True)
        assert blocks == [len(outcomes)] and blocks[0] >= 3
        assert spans["personalize"] == [1.0] * len(outcomes)
        assert spans["delivery"] == [1.0] * len(outcomes)


class TestOneRecordPerDelivery:
    """A delivery is boxed once: the ``DeliveryResult`` the pipeline's
    booking pass builds is the very object ``PostResult.deliveries`` holds,
    and it is the record type on every backend."""

    def test_post_result_holds_what_serve_built(self, tiny_workload, monkeypatch):
        engine = charged_engine(tiny_workload)
        built = []
        deliver_batch = engine.pipeline.deliver_batch

        def keeping(*args, **kwargs):
            built.append(deliver_batch(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(engine.pipeline, "deliver_batch", keeping)
        for post in tiny_workload.posts[:20]:
            result = engine.post(post.author_id, post.text, post.timestamp)
            assert len(result.deliveries) == len(built[-1])
            assert all(
                kept is made for kept, made in zip(result.deliveries, built[-1])
            )
        assert sum(map(len, built)) > 20

    def test_nothing_collected_without_collect_deliveries(self, tiny_workload):
        engine = charged_engine(tiny_workload, collect_deliveries=False)
        post = tiny_workload.posts[0]
        result = engine.post(post.author_id, post.text, post.timestamp)
        assert result.num_deliveries > 0 and result.deliveries == ()

    def test_the_record_type_on_every_backend(self, tiny_workload):
        from repro.cluster import ProcessShardedEngine, ShardedEngine
        from repro.core.pipeline import DeliveryResult

        config = EngineConfig(searcher="vector", pacing_enabled=False)
        single = ContextAwareRecommender.from_workload(tiny_workload, config)
        sharded = ShardedEngine(tiny_workload, 2, config=config)
        checked = {"single": 0, "sharded": 0, "pool": 0}
        with ProcessShardedEngine(tiny_workload, 2, config=config) as pool:
            for post in tiny_workload.posts[:12]:
                results = {
                    "single": [
                        single.post(post.author_id, post.text, post.timestamp)
                    ],
                    "sharded": sharded.post(post.author_id, post.text, post.timestamp),
                    "pool": pool.post(post.author_id, post.text, post.timestamp),
                }
                for backend, parts in results.items():
                    for part in parts:
                        assert type(part.deliveries) is tuple
                        for delivery in part.deliveries:
                            assert type(delivery) is DeliveryResult
                            checked[backend] += 1
                assert results["pool"] == results["sharded"]
        assert checked["single"] == checked["sharded"] == checked["pool"] > 12


def wide_fanout_engine(workload, followers: int, **config_kwargs) -> AdEngine:
    """A vector engine, uncharged unless ``config_kwargs`` say otherwise,
    whose author 0 has ``followers`` followers — three in four with a
    profile, two in three placed — and caches already warm from one
    fan-out."""
    from repro.graph.social import SocialGraph

    engine = AdEngine(
        corpus=workload.build_corpus(),
        graph=SocialGraph(),
        vectorizer=workload.vectorizer,
        tokenizer=workload.tokenizer,
        config=EngineConfig(
            searcher="vector", **{"charge_impressions": False, **config_kwargs}
        ),
    )
    engine.register_user(0)
    for user_id in range(1, followers + 1):
        home = workload.users[user_id % len(workload.users)].home
        engine.register_user(user_id, home if user_id % 3 else None)
        engine.graph.follow(user_id, 0)
    for user_id in range(1, followers + 1):
        if user_id % 4:
            post = workload.posts[user_id % len(workload.posts)]
            engine.post(user_id, post.text, float(user_id))
    engine.post(0, workload.posts[0].text, float(followers + 1))
    return engine


class TestTheFanOutBoxesOnce:
    """A wide uncharged fan-out to followers the engine has seen before
    (a first sighting creates their ``UserState`` and, on it, their
    ``UserProfile``) makes no Python-level ``__init__`` and boxes no slate
    entry: each slate is a span of its block's columns (a
    :class:`~repro.core.scoring.Slate`) and each delivery is one
    ``DeliveryResult``, so a frozen dataclass or a
    per-entry ``ScoredAd`` cannot come back on this path unnoticed — nor
    can a retained delivery that keeps more than its two records under
    the cyclic collector, or arrays of its own. Nothing is written on
    delivery, so no stage is called per delivery: the fan-out is booked
    in one pass."""

    FOLLOWERS = 600
    # ≈ 18.5 a delivery while each one went through the pipeline's
    # per-delivery callback (its lambda, two ``bid_writes``, the stages'
    # ``charge`` and ``observe_impressions``, a ``PersonalizedDelivery``);
    # 9.5 booked in one pass; 5.5 with the profile on the follower's
    # state (one ``users.state`` a follower, no profile store, no epoch
    # property, no vector cache). The budget is that plus 10 %.
    CALLS_PER_DELIVERY = 6.0
    TRACKED_PER_DELIVERY = 2
    # ≈ 936 bytes a kept delivery (≈ 9.7 entries) while its slate was
    # four ndarray views; 535 as a span of its block's columns: its share
    # of the columns, its ``Slate`` and its ``DeliveryResult``. Plus 10 %.
    BYTES_PER_DELIVERY = 588

    def fan_out(self, workload):
        """A warm engine's fan-out, ready to deliver: ``(pipeline, event,
        followers)``."""
        engine = wide_fanout_engine(workload, self.FOLLOWERS)
        event = engine.make_event(0, workload.posts[1].text, 1e4)
        engine.ingest_event(event)
        return engine.pipeline, event, sorted(engine.graph.followers(0))

    def profiled(self, workload, profiler):
        pipeline, event, followers = self.fan_out(workload)
        sys.setprofile(profiler)
        try:
            delivered = pipeline.deliver_batch(event, followers)
        finally:
            sys.setprofile(None)
        assert len(delivered) == self.FOLLOWERS
        assert sum(len(delivery.slate) for delivery in delivered) > self.FOLLOWERS
        return delivered

    def test_no_init_and_few_calls_per_delivery(self, tiny_workload):
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        delivered = self.profiled(tiny_workload, profiler)
        assert "__init__" not in calls
        assert len(calls) <= self.CALLS_PER_DELIVERY * len(delivered)

    def test_no_entry_is_boxed(self, tiny_workload):
        from repro.core.scoring import ScoredAd, Slate

        codes = set()

        def profiler(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)

        def entries() -> int:
            return sum(type(obj) is ScoredAd for obj in gc.get_objects())

        # Every way to box an entry: the slate's read path and the
        # constructor.
        boxing = {
            Slate.of.__code__,
            Slate.__iter__.__code__,
            Slate.__getitem__.__code__,
            ScoredAd.__new__.__code__,
        }
        gc.collect()
        before = entries()
        delivered = self.profiled(tiny_workload, profiler)
        assert codes.isdisjoint(boxing)
        assert all(type(delivery.slate) is Slate for delivery in delivered)
        assert entries() == before

    def test_no_stage_is_called_per_delivery(self, tiny_workload):
        from repro.core.pipeline import NoFeedbackStage, PersonalizedDelivery

        codes = set()

        def profiler(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)

        self.profiled(tiny_workload, profiler)
        per_delivery = {
            NoChargeStage.charge.__code__,
            NoFeedbackStage.observe_impressions.__code__,
            PersonalizedDelivery.__new__.__code__,
        }
        assert codes.isdisjoint(per_delivery)

    def test_a_kept_delivery_holds_few_bytes(self, tiny_workload):
        import tracemalloc

        pipeline, event, followers = self.fan_out(tiny_workload)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            delivered = pipeline.deliver_batch(event, followers)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(delivered) == self.FOLLOWERS
        assert sum(len(delivery.slate) for delivery in delivered) > self.FOLLOWERS
        assert held <= self.BYTES_PER_DELIVERY * len(delivered)

    def test_a_kept_delivery_is_two_tracked_objects(self, tiny_workload):
        pipeline, event, followers = self.fan_out(tiny_workload)
        gc.collect()
        before = len(gc.get_objects())
        delivered = pipeline.deliver_batch(event, followers)
        gc.collect()
        # Its ``Slate`` and its ``DeliveryResult``, plus the one list.
        kept = len(gc.get_objects()) - before - 1
        assert len(delivered) == self.FOLLOWERS
        assert kept <= self.TRACKED_PER_DELIVERY * len(delivered)


class TestAChargedDeliveryIsColumns:
    """A charged, CTR-fed fan-out goes one follower at a time (every
    delivery writes), and each delivery is priced, debited and recorded
    as arrays at its slate's rows: no per-entry call (the auction, a
    budget ``charge`` or ``slot_of`` per ad, ``is_active``,
    ``record_impression``) is left on the path, and a whole delivery —
    cut, charge, feedback and the re-read of what it wrote — stays
    within a fixed call budget."""

    FOLLOWERS = 300
    # ≈ 99 a delivery when each entry is priced, debited and recorded
    # with its own calls; ≈ 46.7 with the slate's rows re-read through
    # numpy's Python-level wrappers; 41.7 as floats; 38.7 with the
    # callback only charging and feeding back, the delivery booked with
    # the rest of the fan-out; 34.7 with the profile on the follower's
    # state. The budget is that plus 10 %, so a return to per-op array
    # re-reads, to booking per delivery or to a separate profile look-up
    # fails it.
    CALLS_PER_DELIVERY = 38.2

    def test_few_calls_per_charged_delivery(self, tiny_workload):
        engine = wide_fanout_engine(
            tiny_workload, self.FOLLOWERS, charge_impressions=True, ctr_feedback=True
        )
        engine.ctr.discount = 0.9
        event = engine.make_event(0, tiny_workload.posts[1].text, 1e4)
        engine.ingest_event(event)
        followers = sorted(engine.graph.followers(0))
        revenue = engine.stats.revenue
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            delivered = engine.pipeline.deliver_batch(event, followers)
        finally:
            sys.setprofile(None)
        assert len(delivered) == self.FOLLOWERS
        assert sum(len(delivery.slate) for delivery in delivered) > self.FOLLOWERS
        assert engine.stats.revenue > revenue
        per_entry = {
            "run_gsp_auction", "is_active", "record_impression", "slot_of", "get"
        }
        assert per_entry.isdisjoint(calls)
        # The stage's own ``charge``, once a delivery; never the budget's.
        assert calls.count("charge") == len(delivered)
        assert len(calls) <= self.CALLS_PER_DELIVERY * len(delivered)


def peek_resident_bid(engine, timestamp):
    """What the next kernel call at ``timestamp`` reads for δ·bid, and
    whether it re-read rows rather than rebuilt; the kernel's resident
    state is left as it was."""
    personalizer = engine.personalizer
    compact = personalizer._compact
    saved = personalizer._resident
    if saved is not None:
        key, at, writes, vector, stale = saved
        personalizer._resident = (key, at, writes, vector.copy(), list(stale))
    reads = patch_reads(engine)
    try:
        bid, _ = personalizer._event_bid(
            personalizer.row_cache,
            timestamp,
            (compact.generation, compact.num_rows, engine.corpus.max_bid),
        )
    finally:
        del engine.services.scoring.fanout_bid_block
        personalizer._resident = saved
    return bid, all(rows is not None for rows in reads)


class TestTheBidTermStaysResident:
    """δ·bid stays resident between events: an event re-reads only the
    rows written since the last one and those still paced ahead of
    schedule, and anything else rebuilds it. Whatever the stream does —
    posts, clicks, a launch, an ended campaign, check-ins, a checkpoint
    restore, a post back in time, a delivery that re-enters the kernel —
    what the next event reads is a fresh build, byte for byte."""

    SCENARIOS = ("budget-burst", "click-flood", "geo-wave")

    class Peeking:
        """The engine, peeked at after every call the replay makes — and
        before a post, at the post's time."""

        def __init__(self, engine, peek):
            self._engine, self._peek = engine, peek

        def __getattr__(self, name):
            method = getattr(self._engine, name)

            def peeked(*args, **kwargs):
                if name == "post":
                    self._peek(self._engine, args[2])
                result = method(*args, **kwargs)
                now = self._engine.services.clock.now
                self._peek(self._engine, now)
                self._peek(self._engine, now + 1800.0)
                return result

            return peeked

    def replay(self, workload, *, behind_the_counter=None):
        """Drive the stream; returns ``(peeks, of them re-reads, byte
        mismatches)``. ``behind_the_counter(engine)`` runs once, midway."""
        from repro.io.checkpoint import apply_engine_state, engine_state_dict
        from repro.scenarios import ScenarioDriver, ScriptedPost, build_scenario_stream

        events = list(
            build_scenario_stream(workload, self.SCENARIOS, seed=5, limit_posts=60).events
        )
        posts = [index for index, event in enumerate(events) if isinstance(event, ScriptedPost)]
        # One post back in time, six hours before the one ahead of it.
        back = events[posts[20]]
        events.insert(
            posts[20] + 1,
            ScriptedPost(back.timestamp - 21600.0, 90_000, back.author_id, back.text),
        )
        half = posts[len(posts) // 2]
        tally = {"peeks": 0, "reread": 0, "mismatched": 0}

        def peek(engine, timestamp):
            cache = engine.personalizer.row_cache
            if cache.bids.shape[0] == 0:
                return  # the kernel has not run yet
            bid, reread = peek_resident_bid(engine, timestamp)
            fresh = engine.services.scoring.fanout_bid_block(cache, timestamp)
            tally["peeks"] += 1
            tally["reread"] += reread
            tally["mismatched"] += bid.tobytes() != fresh.tobytes()

        first = charged_engine(workload)
        ScenarioDriver(self.Peeking(first, peek), workload).run(events[: half // 2])
        if behind_the_counter is not None:
            behind_the_counter(first)
        ScenarioDriver(self.Peeking(first, peek), workload).run(events[half // 2 : half])
        restored = charged_engine(workload)
        apply_engine_state(restored, engine_state_dict(first))
        # One delivery's feedback re-enters the kernel: a charged fan-out of
        # another message to other followers, inside this one's.
        feedback = restored.pipeline.feedback_stage
        observe = feedback.observe_impressions
        inner = max(
            workload.posts, key=lambda post: len(workload.graph.followers(post.author_id))
        )
        reentered = []

        def reentering(slate, rows=None):
            observe(slate, rows)
            if slate and not reentered:
                reentered.append(inner)
                event = restored.make_event(inner.author_id, inner.text, inner.timestamp)
                followers = sorted(restored.graph.followers(inner.author_id))
                reentered.append(restored.pipeline.deliver_batch(event, followers))

        feedback.observe_impressions = reentering
        ScenarioDriver(self.Peeking(restored, peek), workload).run(events[half:])
        assert len(reentered) == 2 and any(d.slate for d in reentered[1])
        counts = {}
        for engine in (first, restored):
            for kind, count in engine.stats.__dict__.items():
                counts[kind] = counts.get(kind, 0) + count
        return tally, counts

    def test_the_next_event_reads_a_fresh_build(self, tiny_workload):
        tally, counts = self.replay(tiny_workload)
        assert tally["mismatched"] == 0
        # Most peeks re-read rows: the resident path, not a rebuild.
        assert tally["reread"] > tally["peeks"] // 2
        assert counts["retired_ads"] > 0 and counts["revenue"] > 0.0

    def test_a_spend_behind_the_counter_is_caught(self, tiny_workload):
        def overspend(engine):
            budget = engine.budget
            ad_id = next(
                ad_id
                for ad_id, state in budget.states().items()
                if state.spent == 0.0 and engine.corpus.is_active(ad_id)
            )
            budget._spent[budget.slot_of(ad_id)] = 0.9 * budget.state(ad_id).budget

        tally, _ = self.replay(tiny_workload, behind_the_counter=overspend)
        assert tally["mismatched"] > 0

    def test_a_click_re_reads_one_row(self, tiny_workload):
        """A click between events names the clicked ad's row, so the next
        event re-reads it instead of rebuilding; a click on a retired ad,
        whose dead row the mirror no longer names, or one behind another
        unnamed write, leaves the next event a rebuild."""
        engine = charged_engine(tiny_workload)
        posts = tiny_workload.posts
        for post in posts[:12]:
            engine.post(post.author_id, post.text, post.timestamp)
        personalizer = engine.personalizer
        now = posts[12].timestamp
        clicked = next(
            ad.ad_id
            for ad in engine.corpus.active_ads()
            if personalizer._resident[3][personalizer._compact.row_of(ad.ad_id)] > 0.0
        )

        def peek():
            cache = personalizer.row_cache
            bid, reread = peek_resident_bid(engine, now)
            fresh = engine.services.scoring.fanout_bid_block(cache, now)
            return bid.tobytes() == fresh.tobytes(), reread

        before = peek()[0]
        engine.record_click(clicked)
        assert personalizer._compact.row_of(clicked) in personalizer._resident[4]
        assert peek() == (True, True) and before
        # The value moved: without the named row the vector would be stale.
        row = personalizer._compact.row_of(clicked)
        resident = personalizer._resident
        stale = [r for r in resident[4] if r != row]
        personalizer._resident = (*resident[:4], stale)
        assert peek() == (False, True)
        personalizer._resident = resident

        engine.end_campaign(clicked, now)
        engine.record_click(clicked)
        assert peek() == (True, False)
        engine.post(posts[12].author_id, posts[12].text, now)
        engine.ctr.record_click(clicked)  # behind the kernel's back
        engine.record_click(next(iter(engine.corpus.active_ids())))
        assert peek()[0] and not peek()[1]


class TestAPostThatReachesNobody:
    """A post with no follower to serve runs no probe — unless a QoS
    controller is attached, whose zero-delivery admission still moves the
    bucket's clock and the value average."""

    @staticmethod
    def lonely_post(workload):
        return next(
            post for post in workload.posts if not workload.graph.fanout(post.author_id)
        )

    @pytest.mark.parametrize("searcher", ["ta", "vector"])
    def test_no_probe_without_qos(self, tiny_workload, searcher):
        engine = charged_engine(tiny_workload, searcher=searcher)
        post = self.lonely_post(tiny_workload)
        result = engine.post(post.author_id, post.text, post.timestamp)
        assert result.num_deliveries == 0
        assert engine.stats.posts == 1 and engine.stats.shared_probes == 0

    def test_qos_still_admits_it(self, tiny_workload):
        from repro.qos import AdmissionController, QosController

        qos = QosController(
            admission=AdmissionController(rate_per_s=1.0, burst_s=60.0)
        )
        engine = charged_engine(tiny_workload, qos=qos)
        post = self.lonely_post(tiny_workload)
        engine.post(post.author_id, post.text, post.timestamp)
        assert engine.stats.shared_probes == 1
        assert qos.admission.state_dict()["last_at"] == post.timestamp

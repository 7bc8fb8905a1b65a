"""Checkpoint/restore tests: a restored engine must continue identically."""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, EngineMode
from repro.core.recommender import ContextAwareRecommender
from repro.errors import ConfigError
from repro.io.checkpoint import load_checkpoint, save_checkpoint


def fresh_engine(workload, **config_kwargs):
    recommender = ContextAwareRecommender.from_workload(
        workload, EngineConfig(**config_kwargs)
    )
    return recommender.engine


def run_posts(engine, workload, start, stop):
    results = []
    for post in workload.posts[start:stop]:
        results.append(engine.post(post.author_id, post.text, post.timestamp))
    return results


def slates_of(results):
    return [
        [(delivery.user_id, [s.ad_id for s in delivery.slate])
         for delivery in result.deliveries]
        for result in results
    ]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {},
            {"mode": EngineMode.INCREMENTAL},
            {"ctr_feedback": True},
        ],
        ids=["shared", "incremental", "ctr"],
    )
    def test_restored_engine_continues_identically(
        self, tmp_path, tiny_workload, config_kwargs
    ):
        original = fresh_engine(tiny_workload, **config_kwargs)
        run_posts(original, tiny_workload, 0, 30)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)

        restored = fresh_engine(tiny_workload, **config_kwargs)
        load_checkpoint(path, restored)

        continued_original = slates_of(run_posts(original, tiny_workload, 30, 50))
        continued_restored = slates_of(run_posts(restored, tiny_workload, 30, 50))
        assert continued_original == continued_restored

    def test_stats_restored(self, tmp_path, tiny_workload):
        original = fresh_engine(tiny_workload)
        run_posts(original, tiny_workload, 0, 10)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)

        restored = fresh_engine(tiny_workload)
        load_checkpoint(path, restored)
        assert restored.stats.posts == original.stats.posts
        assert restored.stats.revenue == pytest.approx(original.stats.revenue)
        assert restored.budget.total_spend() == pytest.approx(
            original.budget.total_spend()
        )

    def test_retired_ads_restored(self, tmp_path, tiny_workload):
        import dataclasses

        from repro.ads.corpus import AdCorpus
        from repro.core.engine import AdEngine

        def tight_engine():
            corpus = AdCorpus(
                dataclasses.replace(ad, budget=1.0, terms=dict(ad.terms))
                for ad in tiny_workload.ads
            )
            engine = AdEngine(
                corpus,
                tiny_workload.graph,
                tiny_workload.vectorizer,
                tokenizer=tiny_workload.tokenizer,
                config=EngineConfig(searcher="ta"),
            )
            for user in tiny_workload.users:
                engine.register_user(user.user_id, user.home)
            return engine

        original = tight_engine()
        run_posts(original, tiny_workload, 0, 40)
        assert original.stats.retired_ads > 0
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)

        restored = tight_engine()
        load_checkpoint(path, restored)
        assert set(restored.corpus.active_ids()) == set(
            original.corpus.active_ids()
        )
        assert restored.index.num_ads == original.index.num_ads

    def test_profiles_and_locations_restored(self, tmp_path, tiny_workload):
        from repro.geo.point import GeoPoint

        original = fresh_engine(tiny_workload)
        run_posts(original, tiny_workload, 0, 20)
        original.checkin(0, GeoPoint(12.0, 34.0), 99999.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)

        restored = fresh_engine(tiny_workload)
        load_checkpoint(path, restored)
        assert restored.location_of(0) == GeoPoint(12.0, 34.0)
        author = tiny_workload.posts[0].author_id
        assert restored.services.users.state(author).profile.unit == pytest.approx(
            original.services.users.state(author).profile.unit
        )


class TestRestoreIntoWarmEngine:
    def test_tail_matches_a_fresh_restore_byte_for_byte(self, tiny_workload):
        """Restoring must not depend on what the target has cached: an
        engine that already answered queries (row caches synced, every
        ad's budget/CTR slot interned) continues exactly like a fresh one
        restored from the same payload."""
        import json

        from repro.io.checkpoint import apply_engine_state, engine_state_dict

        config = {"searcher": "vector", "ctr_feedback": True}
        original = fresh_engine(tiny_workload, **config)
        run_posts(original, tiny_workload, 0, 30)
        for result_ad in (3, 3, 7):
            original.record_click(result_ad)
        payload = json.loads(json.dumps(engine_state_dict(original)))
        assert payload["budgets"] and payload["ctr"]

        fresh = fresh_engine(tiny_workload, **config)
        warm = fresh_engine(tiny_workload, **config)
        for post in tiny_workload.posts[:10]:
            assert warm.slate_for_message(post.author_id, post.text, post.timestamp)
        apply_engine_state(fresh, payload)
        apply_engine_state(warm, payload)

        def tail(engine):
            outcomes = [
                (d.user_id, [(s.ad_id, repr(s.score)) for s in d.slate])
                for result in run_posts(engine, tiny_workload, 30, 60)
                for d in result.deliveries
            ]
            return outcomes, json.dumps(engine_state_dict(engine), sort_keys=True)

        assert tail(warm) == tail(fresh)
        assert warm.ctr.global_ctr() == fresh.ctr.global_ctr()


class TestLaunchedAds:
    def test_mid_stream_launches_survive_restore(self, tmp_path, tiny_workload):
        from repro.ads.ad import Ad

        original = fresh_engine(tiny_workload)
        run_posts(original, tiny_workload, 0, 10)
        newcomer = Ad(
            ad_id=50_000,
            advertiser="late",
            text="w00010 w00011",
            terms={"w00010": 1.0, "w00011": 0.5},
            bid=2.0,
            budget=30.0,
        )
        original.launch_campaign(newcomer, tiny_workload.posts[10].timestamp)
        run_posts(original, tiny_workload, 10, 20)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)

        restored = fresh_engine(tiny_workload)
        load_checkpoint(path, restored)
        assert 50_000 in restored.corpus
        assert restored.corpus.is_active(50_000) == original.corpus.is_active(
            50_000
        )
        state = restored.budget.state(50_000)
        assert state is not None
        assert state.spent == pytest.approx(original.budget.state(50_000).spent)
        continued_original = slates_of(run_posts(original, tiny_workload, 20, 35))
        continued_restored = slates_of(run_posts(restored, tiny_workload, 20, 35))
        assert continued_original == continued_restored


class TestValidation:
    def test_restore_into_used_engine_rejected(self, tmp_path, tiny_workload):
        original = fresh_engine(tiny_workload)
        run_posts(original, tiny_workload, 0, 5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)
        with pytest.raises(ConfigError):
            load_checkpoint(path, original)  # already processed posts

    def test_ctr_state_needs_ctr_engine(self, tmp_path, tiny_workload):
        original = fresh_engine(tiny_workload, ctr_feedback=True)
        run_posts(original, tiny_workload, 0, 5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)
        plain = fresh_engine(tiny_workload, ctr_feedback=False)
        with pytest.raises(ConfigError):
            load_checkpoint(path, plain)

    def test_version_check(self, tmp_path, tiny_workload):
        import json

        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ConfigError):
            load_checkpoint(path, fresh_engine(tiny_workload))


class TestRestoredSpend:
    """A restore sets spend as a run of charges could have left it: an
    active ad restored at or over its budget is retired there, the rule
    a charge applies, and a spend no charge can leave is refused."""

    @pytest.mark.parametrize("searcher", ["ta", "vector"])
    def test_an_exhausted_active_ad_is_retired_at_restore(
        self, tiny_workload, searcher
    ):
        from repro.io.checkpoint import apply_engine_state, engine_state_dict

        original = fresh_engine(tiny_workload, searcher=searcher)
        run_posts(original, tiny_workload, 0, 20)
        payload = engine_state_dict(original)
        # A budgeted ad the continuation serves, restored at its cap but
        # missing from the retired set.
        served = [
            ad_id
            for result in run_posts(
                fresh_engine(tiny_workload, searcher=searcher), tiny_workload, 0, 40
            )[20:]
            for delivery in result.deliveries
            for ad_id in (scored.ad_id for scored in delivery.slate)
            if original.budget.state(ad_id) is not None
            and original.corpus.is_active(ad_id)
        ]
        assert served
        ad_id = served[0]
        payload["budgets"][str(ad_id)] = original.budget.state(ad_id).budget
        assert ad_id not in payload["retired"]

        restored = fresh_engine(tiny_workload, searcher=searcher)
        apply_engine_state(restored, payload)
        assert not restored.corpus.is_active(ad_id)
        assert restored.budget.pacing_multiplier(ad_id, 0.0) == 0.0
        continued = slates_of(run_posts(restored, tiny_workload, 20, 40))
        assert all(
            ad_id not in ads for result in continued for _, ads in result
        )

    @pytest.mark.parametrize("spent", [-1.0, float("nan"), float("inf")])
    def test_a_spend_no_charge_leaves_is_refused(self, tiny_workload, spent):
        from repro.io.checkpoint import apply_engine_state, engine_state_dict

        original = fresh_engine(tiny_workload)
        run_posts(original, tiny_workload, 0, 10)
        payload = engine_state_dict(original)
        ad_id = next(iter(original.budget.states()))
        payload["budgets"][str(ad_id)] = spent
        with pytest.raises(ConfigError):
            apply_engine_state(fresh_engine(tiny_workload), payload)

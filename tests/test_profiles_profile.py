"""Tests for time-decayed interest profiles."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.profiles.profile import UserProfile
from repro.util.sparse import l2_normalize, norm


class TestValidation:
    def test_half_life_positive_or_none(self):
        with pytest.raises(ConfigError):
            UserProfile(half_life_s=0.0)
        UserProfile(half_life_s=None)  # allowed: no decay

    def test_scale_positive(self):
        profile = UserProfile()
        with pytest.raises(ConfigError):
            profile.update({"a": 1.0}, 0.0, scale=0.0)


class TestAccumulation:
    def test_empty_profile(self):
        profile = UserProfile()
        assert profile.is_empty
        assert profile.unit == {}

    def test_empty_vec_is_noop(self):
        profile = UserProfile()
        profile.update({}, 10.0)
        assert profile.is_empty
        assert profile.epoch == 0

    def test_vector_is_unit_norm(self):
        profile = UserProfile()
        profile.update({"a": 1.0, "b": 2.0}, 0.0)
        assert norm(profile.unit) == pytest.approx(1.0)

    def test_epoch_bumps_on_update(self):
        profile = UserProfile()
        profile.update({"a": 1.0}, 0.0)
        profile.update({"b": 1.0}, 1.0)
        assert profile.epoch == 2

    def test_accumulates_terms(self):
        profile = UserProfile(half_life_s=None)
        profile.update({"a": 1.0}, 0.0)
        profile.update({"b": 1.0}, 0.0)
        vec = profile.unit
        assert set(vec) == {"a", "b"}
        assert vec["a"] == pytest.approx(vec["b"])


class TestDecay:
    def test_recent_interests_dominate(self):
        profile = UserProfile(half_life_s=100.0)
        profile.update({"old": 1.0}, 0.0)
        profile.update({"new": 1.0}, 1000.0)  # ten half-lives later
        vec = profile.unit
        assert vec["new"] > 100 * vec.get("old", 1e-12)

    def test_one_half_life_halves_weight(self):
        profile = UserProfile(half_life_s=100.0)
        profile.update({"old": 1.0}, 0.0)
        profile.update({"new": 1.0}, 100.0)
        vec = profile.unit
        assert vec["old"] / vec["new"] == pytest.approx(0.5)

    def test_no_decay_when_half_life_none(self):
        profile = UserProfile(half_life_s=None)
        profile.update({"old": 1.0}, 0.0)
        profile.update({"new": 1.0}, 1e9)
        vec = profile.unit
        assert vec["old"] == pytest.approx(vec["new"])

    def test_out_of_order_updates_tolerated(self):
        profile = UserProfile(half_life_s=100.0)
        profile.update({"a": 1.0}, 50.0)
        profile.update({"b": 1.0}, 40.0)  # slightly in the past
        assert set(profile.unit) == {"a", "b"}
        assert profile.last_update == 50.0

    def test_tiny_weights_pruned(self):
        profile = UserProfile(half_life_s=1.0, prune_below=1e-6)
        profile.update({"old": 1.0}, 0.0)
        profile.update({"new": 1.0}, 100.0)  # 100 half-lives: ~1e-30
        assert "old" not in profile.unit

    def test_same_timestamp_no_decay(self):
        profile = UserProfile(half_life_s=10.0)
        profile.update({"a": 1.0}, 5.0)
        profile.update({"b": 1.0}, 5.0)
        vec = profile.unit
        assert vec["a"] == pytest.approx(vec["b"])


class TestTopInterests:
    def test_ordering(self):
        profile = UserProfile(half_life_s=None)
        profile.update({"big": 3.0, "small": 1.0, "mid": 2.0}, 0.0)
        names = [term for term, _ in profile.top_interests(2)]
        assert names == ["big", "mid"]


class TestTheProfileLivesOnTheState:
    def test_a_state_is_created_once_with_its_profile(self):
        from repro.core.services import UserStateStore
        from repro.graph.social import SocialGraph

        users = UserStateStore(SocialGraph(), 100.0)
        state = users.register(7)
        assert users.register(7) is state
        assert users.state(7) is state
        assert 7 in users
        assert len(users) == 1
        assert state.profile.is_empty
        assert state.profile.half_life_s == 100.0


def _engine(workload):
    from repro.core.config import EngineConfig
    from repro.core.recommender import ContextAwareRecommender

    return ContextAwareRecommender.from_workload(
        workload, EngineConfig(charge_impressions=False)
    ).engine


class TestUnitFollowsEveryWrite:
    """``unit`` is the normalised weights after every write to a profile:
    a post (``update``) and a restore (``apply_engine_state``)."""

    def test_an_author_is_served_from_their_new_vector(self, tiny_workload):
        """Each follower who has posted is served the slate of their
        weights' unit vector, gathered afresh (an anonymous follower)."""
        engine = _engine(tiny_workload)
        users = engine.services.users
        served = 0
        for post in tiny_workload.posts[:40]:
            result = engine.post(post.author_id, post.text, post.timestamp)
            author = users.state(post.author_id).profile
            assert author.unit == l2_normalize(author._weights)
            vec = engine.vectorize(post.text)
            for delivery in result.deliveries:
                profile = users.state(delivery.user_id).profile
                if profile.is_empty:
                    continue
                assert delivery.slate == engine.personalizer.exact_slate(
                    vec,
                    l2_normalize(profile._weights),
                    engine.location_of(delivery.user_id),
                    post.timestamp,
                    engine.config.k,
                )
                served += 1
        assert served > 0

    def test_a_restored_user_holds_the_unit_of_their_weights(
        self, tmp_path, tiny_workload
    ):
        from repro.io.checkpoint import load_checkpoint, save_checkpoint

        original = _engine(tiny_workload)
        for post in tiny_workload.posts[:30]:
            original.post(post.author_id, post.text, post.timestamp)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, original)
        restored = _engine(tiny_workload)
        load_checkpoint(path, restored)
        posted = 0
        for user_id, state in original.services.users.items():
            profile = restored.services.users.state(user_id).profile
            assert profile.unit == l2_normalize(profile._weights)
            assert profile.unit == state.profile.unit
            assert profile.epoch == state.profile.epoch
            posted += not profile.is_empty
        assert posted > 0

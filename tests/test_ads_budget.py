"""Tests for budget accounting and pacing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.budget import BudgetManager, BudgetState
from repro.ads.corpus import AdCorpus
from repro.errors import BudgetError, ConfigError


def make_corpus(budget: float | None = 10.0) -> AdCorpus:
    return AdCorpus(
        [
            Ad(
                ad_id=0,
                advertiser="a",
                text="x",
                terms={"x": 1.0},
                bid=1.0,
                budget=budget,
            ),
            Ad(ad_id=1, advertiser="b", text="y", terms={"y": 1.0}, bid=2.0),
        ]
    )


class TestBudgetState:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BudgetState(budget=0.0, campaign_start=0.0, campaign_end=10.0)
        with pytest.raises(ConfigError):
            BudgetState(budget=1.0, campaign_start=10.0, campaign_end=10.0)
        with pytest.raises(ConfigError):
            BudgetState(budget=1.0, campaign_start=0.0, campaign_end=1.0, spent=-1.0)

    def test_remaining_and_exhausted(self):
        state = BudgetState(budget=10.0, campaign_start=0.0, campaign_end=100.0)
        assert state.remaining == 10.0
        state.spent = 10.0
        assert state.exhausted

    def test_time_fraction_clamped(self):
        state = BudgetState(budget=10.0, campaign_start=0.0, campaign_end=100.0)
        assert state.time_fraction(-5.0) == 0.0
        assert state.time_fraction(50.0) == 0.5
        assert state.time_fraction(500.0) == 1.0

    def test_pacing_on_schedule_is_one(self):
        state = BudgetState(budget=100.0, campaign_start=0.0, campaign_end=100.0)
        state.spent = 20.0
        assert state.pacing_multiplier(50.0) == 1.0  # behind schedule

    def test_pacing_throttles_overspenders(self):
        state = BudgetState(budget=100.0, campaign_start=0.0, campaign_end=100.0)
        state.spent = 50.0
        multiplier = state.pacing_multiplier(10.0)  # 10% elapsed, 50% spent
        assert multiplier == pytest.approx(0.2)

    def test_pacing_floor(self):
        state = BudgetState(budget=100.0, campaign_start=0.0, campaign_end=100.0)
        state.spent = 99.0
        assert state.pacing_multiplier(0.0) == 0.1

    def test_pacing_zero_when_exhausted(self):
        state = BudgetState(budget=10.0, campaign_start=0.0, campaign_end=100.0)
        state.spent = 10.0
        assert state.pacing_multiplier(50.0) == 0.0


class TestBudgetManager:
    def test_uncapped_ads_have_no_state(self):
        manager = BudgetManager(make_corpus())
        assert manager.state(1) is None
        assert manager.state(0) is not None

    def test_uncapped_pacing_is_one(self):
        manager = BudgetManager(make_corpus())
        assert manager.pacing_multiplier(1, 50.0) == 1.0

    def test_charge_accumulates(self):
        manager = BudgetManager(make_corpus())
        assert manager.charge(0, 3.0) is False
        assert manager.state(0).spent == 3.0
        assert manager.total_spend() == 3.0

    def test_charge_uncapped_is_free_noop(self):
        manager = BudgetManager(make_corpus())
        assert manager.charge(1, 100.0) is False
        assert manager.total_spend() == 0.0

    def test_negative_price_rejected(self):
        manager = BudgetManager(make_corpus())
        with pytest.raises(BudgetError):
            manager.charge(0, -1.0)

    def test_final_charge_capped_at_remaining(self):
        corpus = make_corpus(budget=5.0)
        manager = BudgetManager(corpus)
        exhausted = manager.charge(0, 100.0)
        assert exhausted is True
        assert manager.state(0).spent == 5.0

    def test_exhaustion_retires_from_corpus(self):
        corpus = make_corpus(budget=5.0)
        manager = BudgetManager(corpus)
        manager.charge(0, 5.0)
        assert not corpus.is_active(0)
        assert manager.exhausted_ids() == [0]

    def test_charging_exhausted_raises(self):
        corpus = make_corpus(budget=5.0)
        manager = BudgetManager(corpus)
        manager.charge(0, 5.0)
        with pytest.raises(BudgetError):
            manager.charge(0, 1.0)

    def test_pacing_disabled_is_binary(self):
        corpus = make_corpus(budget=100.0)
        manager = BudgetManager(corpus, pacing_enabled=False, campaign_end=100.0)
        manager.charge(0, 50.0)  # way ahead of schedule at t=0
        assert manager.pacing_multiplier(0, 0.0) == 1.0

    def test_ads_added_later_are_tracked(self):
        corpus = make_corpus()
        manager = BudgetManager(corpus)
        corpus.add(
            Ad(ad_id=2, advertiser="c", text="z", terms={"z": 1.0}, bid=1.0, budget=3.0)
        )
        assert manager.state(2) is not None
        manager.charge(2, 3.0)
        assert not corpus.is_active(2)

    def test_campaign_window_validation(self):
        with pytest.raises(ConfigError):
            BudgetManager(make_corpus(), campaign_start=10.0, campaign_end=5.0)


def capped_ad(ad_id: int, budget: float | None) -> Ad:
    return Ad(
        ad_id=ad_id, advertiser="a", text="x", terms={"x": 1.0}, bid=1.0,
        budget=budget,
    )


# Seed-corpus ids, scenario-range launch ids (slot maps must be interned,
# not ad_id-indexed) and one id no corpus ever holds.
SEED_IDS = list(range(24))
LAUNCH_IDS = [800_000 + i for i in range(12)]
UNKNOWN_ID = 999_999
WINDOW = (100.0, 200.0)
PROBE_TIMES = [0.0, 100.0, 101.0, 150.0, 199.5, 200.0, 5_000.0]

budget_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("charge"),
            st.integers(0, 35),
            st.floats(0.0, 4.0, allow_nan=False),
        ),
        st.tuples(
            st.just("restore"),
            st.integers(0, 35),
            st.floats(0.0, 6.0, allow_nan=False),
        ),
        st.tuples(
            st.just("launch"),
            st.integers(0, len(LAUNCH_IDS) - 1),
            st.one_of(st.none(), st.floats(0.5, 6.0, allow_nan=False)),
        ),
        st.tuples(st.just("retire"), st.integers(0, 35), st.none()),
    ),
    max_size=60,
)


class TestPacingBlock:
    """``pacing_block`` is the scalar ``pacing_multiplier`` elementwise,
    bit for bit, whatever happened to the books before."""

    @staticmethod
    def assert_block_is_scalar(manager: BudgetManager) -> None:
        ids = SEED_IDS + LAUNCH_IDS + [UNKNOWN_ID]
        slots = np.array([manager.slot_of(ad_id) for ad_id in ids])
        for timestamp in PROBE_TIMES:
            block = manager.pacing_block(slots, timestamp)
            assert block.dtype == np.float64
            assert block.tolist() == [
                manager.pacing_multiplier(ad_id, timestamp) for ad_id in ids
            ]

    @settings(max_examples=60, deadline=None)
    @given(ops=budget_ops, pacing_enabled=st.booleans())
    def test_any_interleaving(self, ops, pacing_enabled):
        # Every third seed ad is uncapped; budgets are small so charges
        # exhaust some ads and throttle others.
        corpus = AdCorpus(
            capped_ad(ad_id, None if ad_id % 3 == 0 else 1.0 + ad_id % 5)
            for ad_id in SEED_IDS
        )
        manager = BudgetManager(
            corpus,
            campaign_start=WINDOW[0],
            campaign_end=WINDOW[1],
            pacing_enabled=pacing_enabled,
        )
        self.assert_block_is_scalar(manager)
        for op, pick, value in ops:
            known = sorted(ad.ad_id for ad in corpus.all_ads())
            ad_id = known[pick % len(known)]
            if op == "launch":
                launch_id = LAUNCH_IDS[pick]
                if launch_id not in corpus:
                    corpus.add(capped_ad(launch_id, value))
            elif op == "retire":
                if corpus.is_active(ad_id):
                    corpus.retire(ad_id)
            elif op == "restore":
                state = manager.state(ad_id)
                if state is not None and corpus.is_active(ad_id):
                    manager.restore_spend(ad_id, min(value, state.budget))
            elif corpus.is_active(ad_id):
                state = manager.state(ad_id)
                if state is None or not state.exhausted:
                    manager.charge(ad_id, value)
            self.assert_block_is_scalar(manager)

    def test_block_covers_every_branch(self):
        """Pin the four outcomes so the property cannot pass vacuously."""
        corpus = AdCorpus(capped_ad(ad_id, 10.0) for ad_id in range(4))
        corpus.add(capped_ad(800_000, None))
        manager = BudgetManager(corpus, campaign_end=100.0)
        manager.charge(1, 2.0)   # 20% spent at 50% elapsed: on schedule
        manager.charge(2, 8.0)   # 80% spent at 50% elapsed: throttled
        manager.charge(3, 10.0)  # exhausted
        slots = np.array([manager.slot_of(i) for i in (0, 1, 2, 3, 800_000)])
        assert manager.pacing_block(slots, 50.0).tolist() == [
            1.0, 1.0, 5.0 / 8.0, 0.0, 1.0,
        ]
        # 99% of the window gone for nothing: the floor holds.
        manager.restore_spend(2, 9.9)
        assert manager.pacing_block(slots[2:3], 0.5).tolist() == [0.1]

    def test_slots_survive_growth(self):
        corpus = AdCorpus(capped_ad(ad_id, 5.0) for ad_id in range(10))
        manager = BudgetManager(corpus, campaign_end=100.0)
        manager.charge(4, 3.0)
        slot = manager.slot_of(4)
        for ad_id in range(800_000, 800_100):
            corpus.add(capped_ad(ad_id, 2.0))
        manager.charge(800_099, 1.5)
        assert manager.slot_of(4) == slot
        assert manager.state(4).spent == 3.0
        assert manager.state(800_099).spent == 1.5
        assert manager.total_spend() == 4.5
        assert len(manager.states()) == 110
        self.assert_block_is_scalar(manager)

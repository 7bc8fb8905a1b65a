"""Property tests: a served slate charged and recorded in columns equals
the scalar references entry by entry.

The engine prices a slate with :func:`~repro.ads.auction.gsp_prices`
and debits it with :meth:`~repro.ads.budget.BudgetManager.charge_block`,
both on Python floats, and records its impressions with
:meth:`~repro.ads.ctr.CtrEstimator.record_impressions`. Each must leave
exactly what :func:`~repro.ads.auction.run_gsp_auction`,
:meth:`~repro.ads.budget.BudgetManager.charge` and
:meth:`~repro.ads.ctr.CtrEstimator.record_impression` leave one entry at
a time — the same doubles, the same retirements in the same order, the
same error at the same entry — and the charge stage must too, whether
the slate carries mirror rows or is looked up entry by entry.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.auction import gsp_prices, run_gsp_auction
from repro.ads.budget import BudgetManager
from repro.ads.corpus import AdCorpus
from repro.ads.ctr import CtrEstimator
from repro.core.pipeline import CtrFeedbackStage, GspChargeStage
from repro.core.scoring import ScoredAd, Slate
from repro.errors import BudgetError

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)

#: Few distinct values, so equal bids and exact exhaustion come up often.
BIDS = st.sampled_from([0.005, 0.01, 0.5, 1.0, 1.25, 2.0, 4.0])
RESERVES = st.sampled_from([0.0, 0.01, 0.5, 3.0])
PRICES = st.sampled_from([0.0, 0.01, 0.3, 1.0, 2.5, 7.0])


@st.composite
def books(draw, *, allow_negative: bool = False):
    """A corpus of ads — some capped, some uncapped, some retired — with
    spend on the books, and a slate of distinct ones in ranked order."""
    count = draw(st.integers(min_value=1, max_value=12))
    ads = [
        Ad(
            ad_id=100 + index,
            advertiser=f"a{index}",
            text="x",
            terms={"x": 1.0},
            bid=draw(BIDS),
            budget=draw(st.sampled_from([None, 1.0, 2.5, 10.0])),
        )
        for index in range(count)
    ]
    slate = draw(
        st.lists(
            st.sampled_from([ad.ad_id for ad in ads]),
            min_size=1,
            max_size=count,
            unique=True,
        )
    )
    spend = {
        ad.ad_id: draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        for ad in ads
        if ad.budget is not None
    }
    retired = draw(st.sets(st.sampled_from([ad.ad_id for ad in ads])))
    prices = [
        draw(PRICES if not allow_negative else st.sampled_from([-0.5, 0.3, 2.0]))
        for _ in slate
    ]
    return ads, slate, spend, retired, prices


def build(ads, spend, retired):
    """Corpus and budget books as drawn; retirements logged in order."""
    corpus = AdCorpus(ads)
    log: list[int] = []
    corpus.subscribe(on_retire=lambda ad: log.append(ad.ad_id))
    budget = BudgetManager(corpus, pacing_enabled=True)
    for ad_id, spent in spend.items():
        budget.restore_spend(ad_id, spent)
    for ad_id in sorted(retired):
        if corpus.is_active(ad_id):
            corpus.retire(ad_id)
    log.clear()
    return corpus, budget, log


def ledger(budget: BudgetManager, log: list[int]):
    return (
        {ad_id: state.spent for ad_id, state in budget.states().items()},
        budget.writes,
        list(log),
    )


class TestGspPrices:
    @PROPERTY_SETTINGS
    @given(bids=st.lists(BIDS, min_size=0, max_size=12), reserve=RESERVES)
    def test_equal_to_the_auction(self, bids, reserve):
        ads = [
            Ad(ad_id=index, advertiser="a", text="x", terms={"x": 1.0}, bid=bid)
            for index, bid in enumerate(bids)
        ]
        outcome = run_gsp_auction(
            AdCorpus(ads), [ad.ad_id for ad in ads], reserve_price=reserve
        )
        prices = gsp_prices(bids, reserve)
        assert prices == list(outcome.prices)
        assert sum(prices) == outcome.revenue


class TestChargeBlock:
    @staticmethod
    def sequential(budget, slots, prices, ad_of):
        for slot, price in zip(slots, prices):
            budget.charge(ad_of[slot], price)

    @PROPERTY_SETTINGS
    @given(drawn=books(allow_negative=False) | books(allow_negative=True))
    def test_equal_to_charging_one_at_a_time(self, drawn):
        # No ad ended early: a charge retires what it exhausts, and an
        # ended ad is never charged (the stage filters the live ones).
        ads, slate, spend, _, prices = drawn
        results = []
        for blocked in (False, True):
            corpus, budget, log = build(ads, spend, set())
            slots = [budget.slot_of(ad_id) for ad_id in slate]
            ad_of = dict(zip(slots, slate))
            try:
                if blocked:
                    budget.charge_block(slots, prices)
                else:
                    self.sequential(budget, slots, prices, ad_of)
                error = None
            except BudgetError as exc:
                error = str(exc)
            results.append((error, ledger(budget, log)))
        assert results[1] == results[0]

    def test_an_exhausted_slot_raises_after_the_ones_ahead(self):
        corpus, budget, log = build(
            [
                Ad(ad_id=1, advertiser="a", text="x", terms={"x": 1.0}, bid=1.0,
                   budget=2.0),
                Ad(ad_id=2, advertiser="b", text="x", terms={"x": 1.0}, bid=1.0,
                   budget=2.0),
            ],
            {1: 1.5, 2: 2.0},
            set(),
        )
        # Restoring ad 2 at its cap retired it.
        assert not corpus.is_active(2)
        with pytest.raises(BudgetError, match="ad 2 is already exhausted"):
            budget.charge_block([budget.slot_of(1), budget.slot_of(2)], [1.0, 1.0])
        assert budget.state(1).spent == 2.0 and log == [1]


class TestChargeStage:
    """The stage on a slate with rows, and on one looked up entry by
    entry, equals the reference: the live entries through the auction,
    then one budget ``charge`` each — retired entries, uncapped ads (slot
    0) and a live ad whose spend reached its cap behind the books' back
    (the reference's ``BudgetError`` at that entry, after the ones ahead
    of it are charged) included."""

    @PROPERTY_SETTINGS
    @given(drawn=books(), reserve=RESERVES, overdrawn=st.booleans())
    def test_equal_to_the_reference(self, drawn, reserve, overdrawn):
        ads, slate_ids, spend, retired, _ = drawn
        slate = Slate.of(ScoredAd(ad_id, 1.0, 0.5, 0.5) for ad_id in slate_ids)
        # Rows in reverse ad order, so a row is not a position.
        row_of = {ad.ad_id: len(ads) - 1 - index for index, ad in enumerate(ads)}
        results = []
        for leg in ("reference", "looked up", "rows"):
            corpus, budget, log = build(ads, spend, retired)
            capped = [
                ad_id
                for ad_id in slate_ids
                if corpus.is_active(ad_id) and budget.state(ad_id) is not None
            ]
            if overdrawn and capped:
                # Exhausted on the books, yet still serving.
                slot = budget.slot_of(capped[-1])
                budget._spent[slot] = budget._budget[slot]
            error = None
            if leg == "reference":
                live = [ad_id for ad_id in slate_ids if corpus.is_active(ad_id)]
                outcome = run_gsp_auction(corpus, live, reserve_price=reserve)
                try:
                    for ad_id, price in zip(outcome.ad_ids, outcome.prices):
                        budget.charge(ad_id, price)
                except BudgetError as exc:
                    error = str(exc)
                results.append((error, outcome.revenue, ledger(budget, log)))
                continue
            alive = np.zeros(len(ads), dtype=bool)
            columns = SimpleNamespace(
                bids=np.zeros(len(ads)),
                pacing_slots=np.zeros(len(ads), dtype=np.int64),
                live=lambda rows: alive[rows],
            )
            for ad in ads:
                row = row_of[ad.ad_id]
                alive[row] = corpus.is_active(ad.ad_id)
                columns.bids[row] = ad.bid
                columns.pacing_slots[row] = budget.slot_of(ad.ad_id)
            services = SimpleNamespace(
                corpus=corpus,
                budget=budget,
                config=SimpleNamespace(reserve_price=reserve),
            )
            rows = None
            if leg == "rows":
                rows = np.array([row_of[ad_id] for ad_id in slate_ids])
            revenue = results[0][1]
            try:
                revenue = GspChargeStage(services, columns).charge(slate, 0.0, rows)
            except BudgetError as exc:
                error = str(exc)
            results.append((error, revenue, ledger(budget, log)))
        assert results[1] == results[0]
        assert results[2] == results[0]


class TestRecordImpressions:
    @PROPERTY_SETTINGS
    @given(
        evidence=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.7, 13.3]), st.sampled_from([0.0, 0.4, 1.0])
            ),
            min_size=1,
            max_size=10,
        ),
        data=st.data(),
        discount=st.sampled_from([1.0, 0.9]),
    )
    def test_equal_to_recording_one_at_a_time(self, evidence, data, discount):
        ad_ids = list(range(500, 500 + len(evidence)))
        slate = data.draw(
            st.lists(st.sampled_from(ad_ids), min_size=0, max_size=len(ad_ids), unique=True)
        )
        estimators = []
        for blocked in (False, True):
            ctr = CtrEstimator(discount=discount)
            for ad_id, (impressions, clicks) in zip(ad_ids, evidence):
                ctr.restore(ad_id, impressions, clicks)
            if blocked:
                ctr.record_impressions(
                    np.array([ctr.slot_of(ad_id) for ad_id in slate], dtype=np.int64)
                )
            else:
                for ad_id in slate:
                    ctr.record_impression(ad_id)
            estimators.append(ctr)
        one, block = estimators
        assert block._impressions.tolist() == one._impressions.tolist()
        assert block._clicks.tolist() == one._clicks.tolist()
        assert block.global_ctr() == one.global_ctr()
        assert block.writes == one.writes

    @pytest.mark.parametrize("discount", [1.0, 0.9])
    def test_the_stage_with_and_without_rows(self, discount):
        slate = Slate.of(ScoredAd(ad_id, 1.0, 0.5, 0.5) for ad_id in (7, 3, 9))
        estimators = []
        for with_rows in (False, True):
            ctr = CtrEstimator(discount=discount)
            ctr.record_impression(3)
            columns = SimpleNamespace(
                quality_slots=np.array([ctr.slot_of(ad_id) for ad_id in (3, 7, 9)])
            )
            stage = CtrFeedbackStage(SimpleNamespace(ctr=ctr), columns)
            stage.observe_impressions(slate, np.array([1, 0, 2]) if with_rows else None)
            estimators.append(
                [(ctr.impressions_of(ad_id), ctr.clicks_of(ad_id)) for ad_id in (3, 7, 9)]
            )
        assert estimators[0] == estimators[1] == [
            (1.0 * discount + 1.0, 0.0), (1.0, 0.0), (1.0, 0.0)
        ]

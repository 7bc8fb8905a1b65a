"""Unit tests for the admission controller and the value bound."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.core.candidates import CandidateSet
from repro.errors import ConfigError
from repro.qos.admission import AdmissionController, slate_value_bound


def make_corpus(bids):
    corpus = AdCorpus()
    for ad_id, bid in enumerate(bids):
        corpus.add(
            Ad(
                ad_id=ad_id,
                advertiser=f"a{ad_id}",
                text=f"creative {ad_id}",
                terms={f"kw{ad_id}": 1.0},
                bid=bid,
                budget=100.0,
            )
        )
    return corpus


def candidates_of(*ad_ids):
    return CandidateSet(
        entries=tuple((ad_id, 1.0) for ad_id in ad_ids),
        cutoff=0.0,
        complete=True,
    )


class TestSlateValueBound:
    def test_sums_top_k_active_bids(self):
        corpus = make_corpus([5.0, 3.0, 2.0, 1.0])
        assert slate_value_bound(candidates_of(0, 1, 2, 3), corpus, 2) == 8.0
        assert slate_value_bound(candidates_of(0, 1, 2, 3), corpus, 10) == 11.0

    def test_skips_retired_ads(self):
        corpus = make_corpus([5.0, 3.0, 2.0])
        corpus.retire(0)
        assert slate_value_bound(candidates_of(0, 1, 2), corpus, 2) == 5.0

    def test_empty_candidates_bound_is_zero(self):
        corpus = make_corpus([5.0])
        assert slate_value_bound(None, corpus, 3) == 0.0
        assert slate_value_bound(candidates_of(), corpus, 3) == 0.0


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdmissionController(rate_per_s=0.0)
        with pytest.raises(ConfigError):
            AdmissionController(rate_per_s=10.0, burst_s=0.0)
        with pytest.raises(ConfigError):
            AdmissionController(rate_per_s=10.0, max_queue_s=-1.0)
        with pytest.raises(ConfigError):
            AdmissionController(rate_per_s=10.0, value_smoothing=0.0)
        controller = AdmissionController(rate_per_s=10.0)
        with pytest.raises(ConfigError):
            controller.admit(0.0, -1)

    def test_burst_then_shed(self):
        # 10/s with a 1 s burst: the bucket starts with 10 tokens.
        controller = AdmissionController(rate_per_s=10.0, burst_s=1.0)
        first = controller.admit(0.0, 8)
        assert (first.admitted, first.shed) == (8, 0)
        second = controller.admit(0.0, 8)  # only 2 tokens left
        assert (second.admitted, second.shed) == (2, 6)

    def test_refill_is_stream_time(self):
        controller = AdmissionController(rate_per_s=10.0, burst_s=1.0)
        controller.admit(0.0, 10)
        assert controller.admit(0.0, 5).admitted == 0
        # Half a stream second later, 5 tokens are back.
        assert controller.admit(0.5, 8).admitted == 5
        # Time never runs backwards for the bucket.
        assert controller.admit(0.25, 8).admitted == 0

    def test_refill_caps_at_capacity(self):
        controller = AdmissionController(rate_per_s=10.0, burst_s=1.0)
        controller.admit(0.0, 0)
        assert controller.admit(1000.0, 25).admitted == 10

    def test_value_aware_borrowing(self):
        # 2 s of queue debt: only at-or-above-average value may borrow.
        def fresh():
            return AdmissionController(
                rate_per_s=10.0, burst_s=1.0, max_queue_s=2.0
            )

        rich = fresh()
        rich.admit(0.0, 10, 1.0)  # drains the bucket, seeds the EWMA at 1.0
        assert rich.admit(0.0, 25, 2.0).admitted == 20  # borrows the debt

        poor = fresh()
        poor.admit(0.0, 10, 1.0)
        assert poor.admit(0.0, 25, 0.1).admitted == 0  # no tokens, no credit

    def test_low_value_sheds_first_under_identical_pressure(self):
        def pressure(value):
            controller = AdmissionController(
                rate_per_s=10.0, burst_s=1.0, max_queue_s=1.0
            )
            controller.admit(0.0, 10, 1.0)
            return controller.admit(0.0, 10, value).shed

        assert pressure(value=2.0) < pressure(value=0.1)

    def test_reconciliation_and_revenue_bound(self):
        controller = AdmissionController(rate_per_s=5.0, burst_s=1.0)
        for step in range(20):
            controller.admit(step * 0.1, 3, 0.5)
        assert controller.attempted == 60
        assert controller.attempted == controller.admitted + controller.shed
        assert controller.revenue_shed_upper_bound == pytest.approx(
            controller.shed * 0.5
        )

    def test_shed_admitted_reledgers_and_refunds(self):
        controller = AdmissionController(rate_per_s=10.0, burst_s=1.0)
        decision = controller.admit(0.0, 6, 2.0)
        assert decision.admitted == 6
        controller.shed_admitted(2, 2.0)
        assert (controller.admitted, controller.shed) == (4, 2)
        assert controller.attempted == controller.admitted + controller.shed
        assert controller.revenue_shed_upper_bound == pytest.approx(4.0)
        assert controller.tokens == pytest.approx(6.0)  # 10 - 6 + 2

    def test_state_round_trip(self):
        controller = AdmissionController(
            rate_per_s=7.0, burst_s=2.0, max_queue_s=1.0
        )
        controller.admit(0.0, 9, 1.5)
        controller.admit(0.4, 9, 0.2)
        restored = AdmissionController(
            rate_per_s=7.0, burst_s=2.0, max_queue_s=1.0
        )
        restored.load_state(controller.state_dict())
        for now, count, value in ((0.5, 4, 1.0), (0.9, 7, 2.5), (1.3, 2, 0.1)):
            a = controller.admit(now, count, value)
            b = restored.admit(now, count, value)
            assert (a.admitted, a.shed) == (b.admitted, b.shed)
        assert controller.state_dict() == restored.state_dict()


class TestTheBoundReadOffTheProbesArrays:
    """On the vector searcher admission reads the bound off the probe's
    K′ cut as rows (:meth:`StaticRowCache.value_bound`); the per-entry
    :func:`slate_value_bound` is its oracle: the very same double."""

    @settings(max_examples=150, deadline=None)
    @given(
        bids=st.lists(
            st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=30
        ),
        data=st.data(),
        depth=st.integers(1, 12),
        k=st.integers(1, 10),
        compact_first=st.booleans(),
    )
    def test_equals_the_per_entry_bound(self, bids, data, depth, k, compact_first):
        from repro.core.candidates import SharedCandidateGenerator
        from repro.core.scoring import StaticRowCache
        from repro.index.compact import CompactIndex

        vocabulary = ["a", "b", "c", "d"]
        ads = [
            Ad(
                ad_id=ad_id,
                advertiser=f"a{ad_id}",
                text="x",
                terms={
                    term: 1.0
                    for term in data.draw(
                        st.sets(st.sampled_from(vocabulary), min_size=1)
                    )
                },
                bid=bid,
            )
            for ad_id, bid in enumerate(bids)
        ]
        # The tail launches after the row cache last synced: those rows
        # have no bid in the cache yet.
        synced = data.draw(st.integers(0, len(ads)))
        corpus = AdCorpus(ads[:synced])
        compact = CompactIndex(corpus)
        cache = StaticRowCache(corpus, compact)
        cache.sync(None, None)
        for ad in ads[synced:]:
            corpus.add(ad)
        retire = data.draw(st.sets(st.sampled_from(range(len(ads)))))
        before_probe = data.draw(st.sets(st.sampled_from(sorted(retire) or [0])))
        for ad_id in sorted(retire & before_probe):
            corpus.retire(ad_id)
        if compact_first:
            compact._rebuild()  # the cache's rows are another row space now
        query = data.draw(
            st.dictionaries(
                st.sampled_from(vocabulary), st.sampled_from([0.25, 0.5, 1.0]),
                min_size=1,
            )
        )
        candidates = SharedCandidateGenerator(compact, depth).generate(query)
        # Retired between the probe and admission: dead rows in the cut.
        for ad_id in sorted(retire - before_probe):
            corpus.retire(ad_id)
        got = cache.value_bound(candidates.top_rows(), k)
        assert type(got) is float
        assert got == slate_value_bound(candidates, corpus, k)

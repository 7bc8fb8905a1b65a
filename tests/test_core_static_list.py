"""The global geo+bid list under launches and retirements: always what a
fresh build would give, and re-sorted only when ``max_bid`` rose."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.core.config import ScoringWeights
from repro.reference.static_list import GlobalStaticTopList

# Few distinct bids, so ties and repeats of the maximum are common.
BIDS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0, 7.0])
# ("add", bid) launches the next ad id; ("retire", n) ends the n-th
# active ad, counted cyclically.
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), BIDS),
        st.tuples(st.just("retire"), st.integers(min_value=0, max_value=10_000)),
    ),
    max_size=40,
)


def ad_with(ad_id: int, bid: float) -> Ad:
    return Ad(
        ad_id=ad_id, advertiser=f"brand{ad_id}", text="t", terms={"t": 1.0}, bid=bid
    )


def observed(static_list: GlobalStaticTopList):
    return static_list.candidate_ids(), static_list.cutoff(), len(static_list)


class TestMaintainedListEqualsAFreshBuild:
    @settings(max_examples=150, deadline=None)
    @given(
        initial=st.lists(BIDS, max_size=8),
        steps=STEPS,
        size=st.integers(min_value=1, max_value=6),
    )
    def test_after_any_add_retire_sequence(self, initial, steps, size):
        weights = ScoringWeights()
        corpus = AdCorpus(ad_with(ad_id, bid) for ad_id, bid in enumerate(initial))
        maintained = GlobalStaticTopList(corpus, weights, size)
        rebuilds = []
        rebuild = maintained._rebuild

        def counting_rebuild():
            rebuilds.append(corpus.max_bid)
            rebuild()

        maintained._rebuild = counting_rebuild
        next_id = len(initial)
        rises = []
        for op, value in steps:
            before = corpus.max_bid
            if op == "add":
                corpus.add(ad_with(next_id, value))
                next_id += 1
                if corpus.max_bid > before:
                    rises.append(corpus.max_bid)
            elif corpus.active_ids():
                active = sorted(corpus.active_ids())
                corpus.retire(active[value % len(active)])
            assert observed(maintained) == observed(
                GlobalStaticTopList(corpus, weights, size)
            )
        # One re-sort per rise of the high-water mark, none otherwise.
        assert rebuilds == rises

"""Tests for shared candidate generation and the global static list."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.core.candidates import CandidateSet, SharedCandidateGenerator
from repro.core.config import ScoringWeights
from repro.errors import ConfigError
from repro.index.compact import CompactIndex
from repro.reference import (
    AdInvertedIndex,
    GlobalStaticTopList,
    ThresholdCandidateGenerator,
)
from tests.conftest import make_ads


@pytest.fixture()
def corpus() -> AdCorpus:
    return AdCorpus(make_ads(50))


@pytest.fixture()
def index(corpus) -> AdInvertedIndex:
    return AdInvertedIndex.from_corpus(corpus)


@pytest.fixture()
def compact(corpus) -> CompactIndex:
    """The vector probe's own index, built from and fed by the corpus."""
    return CompactIndex(corpus)


class TestSharedCandidates:
    def test_overfetch_validation(self, index):
        with pytest.raises(ConfigError):
            ThresholdCandidateGenerator(index, 0)

    def test_entries_sorted_desc(self, index):
        generator = ThresholdCandidateGenerator(index, 10)
        result = generator.generate({"t0": 1.0, "t3": 0.5})
        scores = [score for _, score in result.entries]
        assert scores == sorted(scores, reverse=True)

    def test_cutoff_is_last_score_when_full(self, corpus, index):
        generator = ThresholdCandidateGenerator(index, 3)
        result = generator.generate({"t0": 1.0})
        if len(result) == 3:
            assert result.cutoff == result.entries[-1][1]
            assert not result.complete

    def test_cutoff_zero_when_incomplete(self, index):
        generator = ThresholdCandidateGenerator(index, 10_000)
        result = generator.generate({"t0": 1.0})
        assert result.complete
        assert result.cutoff == 0.0

    def test_empty_message(self, index):
        generator = ThresholdCandidateGenerator(index, 10)
        result = generator.generate({})
        assert len(result) == 0
        assert result.complete

    def test_ad_ids_order_matches_entries(self, index):
        generator = ThresholdCandidateGenerator(index, 10)
        result = generator.generate({"t0": 1.0, "t1": 1.0})
        assert result.ad_ids() == [ad_id for ad_id, _ in result.entries]


VOCABULARY = [f"t{i}" for i in range(6)]

# One or two equal-weight terms per ad and dyadic query weights: every dot
# is a sum of at most two products, the same in either order, so two ads
# that tie in the float64 oracle tie in the float32 mirror too — and with
# ad shapes drawn from so small a space, ties are the common case.
ad_shapes = st.lists(
    st.sets(st.sampled_from(VOCABULARY), min_size=1, max_size=2),
    min_size=1,
    max_size=30,
)
queries = st.dictionaries(
    st.sampled_from(VOCABULARY), st.sampled_from([0.25, 0.5, 1.0]), max_size=4
)


class TestVectorProbeMatchesTheOracle:
    """The vector generator cuts K′ on arrays; the ``ta`` generator is
    its oracle: same ids in the same order (ties → id ascending), scores
    and cutoff within the mirror's float32 storage precision."""

    TOLERANCE = 1e-6

    @settings(max_examples=120, deadline=None)
    @given(
        shapes=ad_shapes,
        ids=st.data(),
        query=queries,
        depth=st.integers(min_value=1, max_value=40),
    )
    def test_entries_cutoff_and_block(self, shapes, ids, query, depth):
        ad_ids = ids.draw(
            st.lists(
                st.integers(min_value=0, max_value=999),
                min_size=len(shapes), max_size=len(shapes), unique=True,
            )
        )
        ads = [
            Ad(ad_id, f"brand{ad_id}", " ".join(sorted(terms)),
               {term: 1.0 for term in terms}, bid=1.0)
            for ad_id, terms in zip(ad_ids, shapes)
        ]
        # The later half launches after the arrays were built, so rows are
        # not in ad-id order.
        early = len(ads) // 2
        corpus = AdCorpus(ads[:early])
        index = AdInvertedIndex.from_corpus(corpus)
        compact = CompactIndex(corpus)
        vector = SharedCandidateGenerator(compact, depth)
        oracle = ThresholdCandidateGenerator(index, depth)
        for ad in ads[early:]:
            corpus.add(ad)
        got = vector.generate(query)
        want = oracle.generate(query)

        assert got.ad_ids() == want.ad_ids()
        assert got.complete == want.complete
        assert len(got) == min(depth, sum(bool(set(query) & s) for s in shapes))
        tolerance = pytest.approx(0.0, abs=self.TOLERANCE)
        assert got.cutoff - want.cutoff == tolerance
        for (_, mine), (_, theirs) in zip(got.entries, want.entries):
            assert mine - theirs == tolerance

        # The block restates the probe as arrays over the current index.
        assert want.block is None
        block = got.block
        assert block.key == (compact.generation, compact.num_rows)
        rows, dots = compact.gather(query)
        assert np.array_equal(block.rows, rows)
        assert np.array_equal(block.dots, dots)

    def test_block_takes_no_part_in_equality(self, compact):
        vector = SharedCandidateGenerator(compact, 10)
        probed = vector.generate({"t0": 1.0, "t3": 0.5})
        assert probed.block is not None and probed._cut is None
        rebuilt = CandidateSet(probed.entries, probed.cutoff, probed.complete)
        assert rebuilt.block is None
        # ``==`` between a vector-built and a hand-built set cuts the
        # former's K′ there and then.
        again = vector.generate({"t0": 1.0, "t3": 0.5})
        assert again._cut is None
        assert again == rebuilt and rebuilt == again
        assert again._cut is not None
        assert again != vector.generate({"t1": 1.0})

    def test_the_cut_survives_what_happens_to_the_mirror_after_the_probe(
        self, corpus, compact
    ):
        """K′ is cut when first read, from the probe's own arrays: a
        launch, a retirement and a compaction in between change nothing."""
        vector = SharedCandidateGenerator(compact, 5)
        query = {"t0": 1.0, "t3": 0.5}
        eager = vector.generate(query)
        expected = (eager.entries, eager.cutoff, eager.complete)
        late = vector.generate(query)
        generation = compact.generation
        donor = corpus.get(eager.entries[0][0])
        corpus.add(replace(donor, ad_id=5_000))
        for ad_id in list(corpus.active_ids())[:40]:
            corpus.retire(ad_id)
        compact._rebuild()  # 50 ads sit under the compaction floor
        assert compact.num_rows == 11 and compact.generation == generation + 1
        assert (late.entries, late.cutoff, late.complete) == expected


class TestGlobalStaticList:
    def test_size_validation(self, corpus):
        with pytest.raises(ConfigError):
            GlobalStaticTopList(corpus, ScoringWeights(), 0)

    def test_prefix_is_top_bids(self, corpus):
        static_list = GlobalStaticTopList(corpus, ScoringWeights(), 5)
        expected = [
            ad.ad_id
            for ad in sorted(
                corpus.active_ads(), key=lambda ad: (-ad.bid, ad.ad_id)
            )[:5]
        ]
        assert static_list.candidate_ids() == expected

    def test_cutoff_dominates_outsiders(self, corpus):
        weights = ScoringWeights()
        static_list = GlobalStaticTopList(corpus, weights, 5)
        cutoff = static_list.cutoff()
        prefix = set(static_list.candidate_ids())
        for ad in corpus.active_ads():
            if ad.ad_id not in prefix:
                upper = weights.gamma + weights.delta * corpus.normalized_bid(
                    ad.ad_id
                )
                assert upper <= cutoff + 1e-9

    def test_cutoff_zero_when_covering_everything(self, corpus):
        static_list = GlobalStaticTopList(corpus, ScoringWeights(), 1000)
        assert static_list.cutoff() == 0.0

    def test_retirement_shrinks_list(self, corpus):
        static_list = GlobalStaticTopList(corpus, ScoringWeights(), 5)
        top = static_list.candidate_ids()[0]
        corpus.retire(top)
        assert top not in static_list.candidate_ids()

    def test_addition_can_enter_prefix(self, corpus):
        from repro.ads.ad import Ad

        static_list = GlobalStaticTopList(corpus, ScoringWeights(), 5)
        corpus.add(
            Ad(
                ad_id=900,
                advertiser="whale",
                text="t",
                terms={"t0": 1.0},
                bid=1000.0,
            )
        )
        assert static_list.candidate_ids()[0] == 900

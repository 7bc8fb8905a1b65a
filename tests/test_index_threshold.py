"""Threshold-algorithm (TA) correctness against brute force, and the
searcher contract both kinds (``ta``, ``vector``) are held to."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError
from repro.index.factory import SEARCHER_KINDS, make_index, make_searcher
from repro.reference.brute import exact_topk
from repro.reference.inverted import AdInvertedIndex
from repro.reference.threshold import ThresholdSearcher
from tests.conftest import make_ads
from tests.helpers import random_query, random_setup, scores_of


@pytest.mark.parametrize("kind", SEARCHER_KINDS)
class TestSearcherContract:
    """What every searcher kind promises, whatever its traversal."""

    def test_unindexed_terms_only(self, kind):
        _, corpus, _ = random_setup(0)
        searcher = make_searcher(kind, make_index(kind, corpus))
        assert searcher.search({"zzz": 1.0}, 5) == []

    def test_zero_weights_skipped(self, kind):
        _, corpus, _ = random_setup(1)
        searcher = make_searcher(kind, make_index(kind, corpus))
        with_zero = searcher.search({"t0": 1.0, "t1": 0.0}, 5)
        without = searcher.search({"t0": 1.0}, 5)
        assert scores_of(with_zero) == scores_of(without)

    def test_results_sorted_desc(self, kind):
        rng, corpus, _ = random_setup(2)
        searcher = make_searcher(kind, make_index(kind, corpus))
        results = searcher.search(random_query(rng), 10)
        scores = [entry.score for entry in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_matches(self, kind):
        _, corpus, _ = random_setup(3)
        query = {"t0": 1.0}
        got = make_searcher(kind, make_index(kind, corpus)).search(query, 1000)
        brute = exact_topk(corpus.active_ads(), query, 1000)
        # To the vector index's float32 storage precision.
        assert [entry.score for entry in got] == pytest.approx(
            [entry.score for entry in brute], abs=1e-6
        )

    def test_a_tie_at_the_kth_score_goes_to_the_smaller_id(self, kind):
        """Ad 1 ties ad 4 for the last place and sits deepest in its
        posting list: the walk may not stop on a bound that only *equals*
        the k-th score."""
        shapes = {1: "t1 t2", 0: "t2 t0", 2: "t2", 3: "t2", 4: "t1 t0"}
        ads = [
            Ad(ad_id, f"brand{ad_id}", text,
               {term: 1.0 for term in text.split()}, bid=1.0)
            for ad_id, text in shapes.items()
        ]
        index = make_index(kind, AdCorpus(ads))
        got = make_searcher(kind, index).search({"t0": 0.25, "t2": 0.25}, 4)
        assert [entry.item for entry in got] == [0, 2, 3, 1]


class TestBasics:
    def test_empty_query(self):
        _, _, index = random_setup(0)
        assert ThresholdSearcher(index).search({}, 5) == []

    def test_negative_weight_rejected(self):
        _, _, index = random_setup(0)
        with pytest.raises(ConfigError):
            ThresholdSearcher(index).search({"t0": -0.1}, 5)

    def test_max_static_requires_static_fn(self):
        _, _, index = random_setup(0)
        with pytest.raises(ConfigError):
            ThresholdSearcher(index, max_static=1.0)


class TestExactness:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_matches_brute(self, seed, k):
        rng, corpus, index = random_setup(seed)
        query = random_query(rng)
        ta = ThresholdSearcher(index).search(query, k)
        brute = exact_topk(corpus.active_ads(), query, k)
        assert scores_of(ta) == scores_of(brute)

    @pytest.mark.parametrize("seed", range(5))
    def test_static_and_filter_match_brute(self, seed):
        rng, corpus, index = random_setup(seed)
        query = random_query(rng)
        statics = {ad.ad_id: rng.uniform(0.0, 0.5) for ad in corpus.active_ads()}
        allowed = {ad.ad_id for ad in corpus.active_ads() if ad.ad_id % 2 == 0}
        ta = ThresholdSearcher(
            index,
            static_score=statics.__getitem__,
            max_static=max(statics.values()),
            filter_fn=allowed.__contains__,
        ).search(query, 7)
        brute = exact_topk(
            corpus.active_ads(),
            query,
            7,
            static_score=statics.__getitem__,
            filter_fn=allowed.__contains__,
        )
        assert scores_of(ta) == scores_of(brute)


class TestEarlyTermination:
    def test_stops_before_exhausting_lists(self):
        ads = make_ads(500, seed=9, terms_per_ad=3)
        corpus = AdCorpus(ads)
        index = AdInvertedIndex.from_corpus(corpus)
        searcher = ThresholdSearcher(index)
        searcher.search({"t0": 1.0, "t1": 1.0}, 3)
        total_postings = sum(
            len(index.postings(term)) for term in ("t0", "t1") if index.postings(term)
        )
        assert searcher.last_evaluations < total_postings


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=15),
)
def test_property_ta_equals_brute(seed, k):
    rng, corpus, index = random_setup(seed, num_ads=50)
    query = random_query(rng)
    ta = ThresholdSearcher(index).search(query, k)
    brute = exact_topk(corpus.active_ads(), query, k)
    assert scores_of(ta) == scores_of(brute)

"""Tests for the inverted ad index and its corpus subscription."""

from __future__ import annotations

import pytest

from repro.ads.corpus import AdCorpus
from repro.errors import IndexError_
from repro.reference.inverted import AdInvertedIndex
from tests.conftest import make_ads


@pytest.fixture()
def corpus() -> AdCorpus:
    return AdCorpus(make_ads(20))


@pytest.fixture()
def index(corpus) -> AdInvertedIndex:
    return AdInvertedIndex.from_corpus(corpus)


class TestBuild:
    def test_indexes_all_active_ads(self, corpus, index):
        assert index.num_ads == corpus.num_active

    def test_postings_consistent_with_ads(self, corpus, index):
        for ad in corpus.active_ads():
            for term, weight in ad.terms.items():
                postings = index.postings(term)
                assert postings is not None
                assert postings.weight_of(ad.ad_id) == pytest.approx(weight)

    def test_num_postings_equals_total_terms(self, corpus, index):
        expected = sum(len(ad.terms) for ad in corpus.active_ads())
        assert index.num_postings == expected

    def test_unknown_term(self, index):
        assert index.postings("nonexistent") is None


class TestMutation:
    def test_duplicate_add_rejected(self, corpus, index):
        with pytest.raises(IndexError_):
            index.add_ad(corpus.get(0))

    def test_remove_clears_postings(self, corpus, index):
        ad = corpus.get(0)
        index.remove_ad(ad)
        assert 0 not in index
        for term in ad.terms:
            postings = index.postings(term)
            assert postings is None or 0 not in postings

    def test_remove_unknown_rejected(self, index):
        with pytest.raises(IndexError_):
            index.remove_ad_id(999)

    def test_empty_posting_lists_dropped(self):
        corpus = AdCorpus(make_ads(1))
        index = AdInvertedIndex.from_corpus(corpus)
        index.remove_ad(corpus.get(0))
        assert index.num_terms == 0

    def test_ad_terms_forward_lookup(self, corpus, index):
        assert index.ad_terms(3) == corpus.get(3).terms

    def test_ad_terms_returns_copy(self, index):
        index.ad_terms(3)["hacked"] = 1.0
        assert "hacked" not in index.ad_terms(3)


class TestSubscription:
    def test_retirement_removes_from_index(self, corpus, index):
        corpus.retire(5)
        assert 5 not in index

    def test_addition_enters_index(self, corpus, index):
        new_ad = make_ads(25)[24]
        corpus.add(new_ad)
        assert new_ad.ad_id in index

    def test_unsubscribed_index_is_static(self, corpus):
        index = AdInvertedIndex.from_corpus(corpus, subscribe=False)
        corpus.retire(5)
        assert 5 in index

"""Tests for posting lists."""

from __future__ import annotations

import pytest

from repro.errors import IndexError_
from repro.reference.postings import PostingList


@pytest.fixture()
def postings() -> PostingList:
    pl = PostingList()
    for ad_id, weight in [(5, 0.5), (1, 0.9), (9, 0.2), (3, 0.9)]:
        pl.add(ad_id, weight)
    return pl


class TestMutation:
    def test_add_keeps_doc_order(self, postings):
        assert [ad_id for ad_id, _ in postings.doc_ordered()] == [1, 3, 5, 9]

    def test_duplicate_add_rejected(self, postings):
        with pytest.raises(IndexError_):
            postings.add(5, 0.3)

    def test_non_positive_weight_rejected(self):
        pl = PostingList()
        with pytest.raises(IndexError_):
            pl.add(1, 0.0)
        with pytest.raises(IndexError_):
            pl.add(1, -0.5)

    def test_remove(self, postings):
        postings.remove(5)
        assert 5 not in postings
        assert len(postings) == 3

    def test_remove_missing_rejected(self, postings):
        with pytest.raises(IndexError_):
            postings.remove(42)

    def test_weight_of(self, postings):
        assert postings.weight_of(9) == 0.2
        with pytest.raises(IndexError_):
            postings.weight_of(42)


class TestImpactOrder:
    def test_sorted_by_weight_desc_then_id(self, postings):
        impact = postings.impact_ordered()
        assert impact == [(0.9, 1), (0.9, 3), (0.5, 5), (0.2, 9)]

    def test_rebuilt_after_mutation(self, postings):
        postings.impact_ordered()
        postings.add(7, 1.5)
        assert postings.impact_ordered()[0] == (1.5, 7)

    def test_cached_between_reads(self, postings):
        first = postings.impact_ordered()
        assert postings.impact_ordered() is first

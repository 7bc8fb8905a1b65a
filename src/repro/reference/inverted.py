"""Term-partitioned inverted index over the ad corpus: the ``ta``
reference's index. A ``vector`` engine builds none of it; its one index
is :class:`~repro.index.compact.CompactIndex`, fed by the corpus directly.

The index stores each active ad's unit term vector across per-term posting
lists, plus the forward (ad → terms) view the threshold algorithm's random
access reads. It can subscribe to an :class:`~repro.ads.corpus.AdCorpus` so
additions and budget-driven retirements are reflected immediately (the
"incremental index maintenance" part of the system).
"""

from __future__ import annotations

from repro.ads.ad import Ad
from repro.ads.corpus import AdCorpus
from repro.errors import IndexError_
from repro.reference.postings import PostingList


class AdInvertedIndex:
    """term → :class:`PostingList` with incremental add/remove."""

    def __init__(self) -> None:
        self._postings: dict[str, PostingList] = {}
        self._ad_terms: dict[int, dict[str, float]] = {}

    @classmethod
    def from_corpus(cls, corpus: AdCorpus, *, subscribe: bool = True) -> "AdInvertedIndex":
        """Build over all active ads and optionally track future mutations.

        Bulk build rides the corpus's ascending-id iteration order: every
        posting appends at its list's tail (no bisect), which roughly
        halves build time over repeated :meth:`add_ad`.
        """
        index = cls()
        postings_by_term = index._postings
        ad_terms = index._ad_terms
        for ad in corpus.active_ads():
            terms = dict(ad.terms)
            ad_terms[ad.ad_id] = terms
            for term, weight in terms.items():
                postings = postings_by_term.get(term)
                if postings is None:
                    postings = PostingList()
                    postings_by_term[term] = postings
                postings.append_maximal(ad.ad_id, weight)
        if subscribe:
            corpus.subscribe(on_add=index.add_ad, on_retire=index.remove_ad)
        return index

    # -- mutation --------------------------------------------------------

    def add_ad(self, ad: Ad) -> None:
        if ad.ad_id in self._ad_terms:
            raise IndexError_(f"ad {ad.ad_id} already indexed")
        for term, weight in ad.terms.items():
            postings = self._postings.get(term)
            if postings is None:
                postings = PostingList()
                self._postings[term] = postings
            postings.add(ad.ad_id, weight)
        self._ad_terms[ad.ad_id] = dict(ad.terms)

    def remove_ad(self, ad: Ad) -> None:
        self.remove_ad_id(ad.ad_id)

    def remove_ad_id(self, ad_id: int) -> None:
        terms = self._ad_terms.pop(ad_id, None)
        if terms is None:
            raise IndexError_(f"ad {ad_id} not indexed")
        for term in terms:
            postings = self._postings[term]
            postings.remove(ad_id)
            if not len(postings):
                del self._postings[term]

    # -- read side -----------------------------------------------------------

    def __contains__(self, ad_id: int) -> bool:
        return ad_id in self._ad_terms

    @property
    def num_ads(self) -> int:
        return len(self._ad_terms)

    @property
    def num_terms(self) -> int:
        return len(self._postings)

    @property
    def num_postings(self) -> int:
        return sum(len(postings) for postings in self._postings.values())

    def postings(self, term: str) -> PostingList | None:
        """Posting list for a term, or None if the term is unindexed."""
        return self._postings.get(term)

    def ad_terms(self, ad_id: int) -> dict[str, float]:
        """Forward lookup: an indexed ad's term vector (a copy)."""
        terms = self._ad_terms.get(ad_id)
        if terms is None:
            raise IndexError_(f"ad {ad_id} not indexed")
        return dict(terms)

    def term_items(self):
        """Iterate (term, PostingList) pairs; lists must not be mutated."""
        return self._postings.items()

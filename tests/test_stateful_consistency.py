"""Stateful property test: corpus / index / static-list consistency.

Hypothesis drives random interleavings of corpus mutations (add, retire,
budget exhaustion) and probes, asserting after every step that all derived
structures agree with the corpus — the invariant the whole engine's
incremental-maintenance story rests on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.ads.ad import Ad
from repro.ads.budget import BudgetManager
from repro.ads.corpus import AdCorpus
from repro.core.config import ScoringWeights
from repro.index.compact import CompactIndex
from repro.index.vector import VectorSearcher
from repro.reference.brute import exact_topk
from repro.reference.inverted import AdInvertedIndex
from repro.reference.static_list import GlobalStaticTopList
from repro.reference.threshold import ThresholdSearcher

_TERMS = [f"t{i}" for i in range(10)]


class CorpusConsistencyMachine(RuleBasedStateMachine):
    """Random add/retire/charge/search sequences preserve all invariants."""

    @initialize()
    def setup(self) -> None:
        self.rng = random.Random(1234)
        self.corpus = AdCorpus()
        self.index = AdInvertedIndex.from_corpus(self.corpus)
        self.compact = CompactIndex(self.corpus)
        self.static_list = GlobalStaticTopList(
            self.corpus, ScoringWeights(), size=5
        )
        self.budget = BudgetManager(self.corpus, campaign_end=1000.0)
        self.next_id = 0

    # -- actions -----------------------------------------------------------

    @rule(
        num_terms=st.integers(min_value=1, max_value=4),
        bid=st.floats(min_value=0.1, max_value=5.0),
        capped=st.booleans(),
    )
    def add_ad(self, num_terms, bid, capped) -> None:
        terms = {
            term: self.rng.uniform(0.1, 1.0)
            for term in self.rng.sample(_TERMS, num_terms)
        }
        self.corpus.add(
            Ad(
                ad_id=self.next_id,
                advertiser=f"brand{self.next_id}",
                text="t",
                terms=terms,
                bid=bid,
                budget=2.0 if capped else None,
            )
        )
        self.next_id += 1

    @rule()
    def retire_one(self) -> None:
        active = self.corpus.active_ids()
        if active:
            self.corpus.retire(self.rng.choice(active))

    @rule(price=st.floats(min_value=0.1, max_value=3.0))
    def charge_one(self, price) -> None:
        capped_active = [
            ad_id
            for ad_id in self.corpus.active_ids()
            if self.budget.state(ad_id) is not None
        ]
        if capped_active:
            self.budget.charge(self.rng.choice(capped_active), price)

    @rule(k=st.integers(min_value=1, max_value=5))
    def search_agrees_with_brute(self, k) -> None:
        query = {
            term: self.rng.uniform(0.1, 1.0)
            for term in self.rng.sample(_TERMS, 3)
        }
        brute = exact_topk(self.corpus.active_ads(), query, k)
        reference = [entry.score for entry in brute]
        for searcher, tol in (
            (ThresholdSearcher(self.index), 1e-9),
            # The compact index stores float32 weights.
            (VectorSearcher(self.compact), 1e-6),
        ):
            scores = [entry.score for entry in searcher.search(query, k)]
            assert scores == pytest.approx(reference, abs=tol)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def index_matches_active_set(self) -> None:
        active = set(self.corpus.active_ids())
        assert self.index.num_ads == len(active)
        for ad_id in active:
            assert ad_id in self.index

    @invariant()
    def compact_index_matches_corpus(self) -> None:
        self.compact.check_consistent()

    @invariant()
    def postings_weights_match_ads(self) -> None:
        for ad_id in self.corpus.active_ids():
            ad = self.corpus.get(ad_id)
            for term, weight in ad.terms.items():
                postings = self.index.postings(term)
                assert postings is not None
                assert abs(postings.weight_of(ad_id) - weight) < 1e-12

    @invariant()
    def static_list_covers_top_bids(self) -> None:
        active = self.corpus.active_ids()
        expected = [
            ad_id
            for ad_id in sorted(
                active,
                key=lambda ad_id: (-self.corpus.normalized_bid(ad_id), ad_id),
            )
        ][: self.static_list.size]
        assert self.static_list.candidate_ids() == expected

    @invariant()
    def exhausted_ads_are_retired(self) -> None:
        for ad_id in self.budget.exhausted_ids():
            assert not self.corpus.is_active(ad_id)


CorpusConsistencyMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestCorpusConsistency = CorpusConsistencyMachine.TestCase

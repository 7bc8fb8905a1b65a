"""Compact numpy mirror: interning, sync, rebuild policy, kernel parity.

The mirror must match :class:`AdInvertedIndex` exactly at *every* point of
an add/remove/expire churn sequence — rebuilds are a memory policy, never
a correctness event. The hypothesis suites drive random churn and assert
:meth:`CompactIndex.check_consistent` plus searcher-level parity after
each step.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError, IndexError_
from repro.index.compact import CompactIndex, IdInterner
from repro.index.inverted import AdInvertedIndex
from repro.index.threshold import ThresholdSearcher
from repro.index.vector import VectorSearcher
from tests.conftest import make_ads
from tests.helpers import random_query, random_setup


def assert_entry_parity(got, oracle, tol=1e-6):
    """The searcher parity contract: identical ranking, scores within
    ``tol`` (the compact mirror stores float32 weights, so bit equality
    with the pure-Python float64 oracles is not promised)."""
    assert [entry.item for entry in got] == [entry.item for entry in oracle]
    for mine, ref in zip(got, oracle):
        assert mine.score == pytest.approx(ref.score, abs=tol)


def build_pair(seed: int = 0, num_ads: int = 40, **compact_kwargs):
    """A populated (index, mirror) pair plus the backing ads."""
    ads = make_ads(num_ads, seed=seed)
    corpus = AdCorpus(ads)
    index = AdInvertedIndex.from_corpus(corpus, subscribe=False)
    compact = CompactIndex(index, **compact_kwargs)
    return ads, index, compact


class TestInterner:
    def test_first_seen_order_and_stability(self):
        interner = IdInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert len(interner) == 2
        assert "a" in interner and "c" not in interner

    def test_lookup_and_reverse(self):
        interner = IdInterner()
        interner.intern("x")
        assert interner.lookup("x") == 0
        assert interner.lookup("y") is None
        assert interner.name_of(0) == "x"
        with pytest.raises(IndexError_):
            interner.name_of(1)
        with pytest.raises(IndexError_):
            interner.name_of(-1)

    def test_ids_survive_rebuild(self):
        _, index, compact = build_pair()
        before = {
            term: compact.terms.lookup(term)
            for term, _ in index.term_items()
        }
        compact._rebuild()
        for term, tid in before.items():
            assert compact.terms.lookup(term) == tid


class TestConfigAndErrors:
    def test_bad_rebuild_fraction(self):
        _, index, _ = build_pair()
        with pytest.raises(ConfigError):
            CompactIndex(index, rebuild_dead_fraction=0.0)
        with pytest.raises(ConfigError):
            CompactIndex(index, rebuild_dead_fraction=1.5)

    def test_bad_min_rebuild_dead(self):
        _, index, _ = build_pair()
        with pytest.raises(ConfigError):
            CompactIndex(index, min_rebuild_dead=0)

    def test_unknown_row_lookup(self):
        _, _, compact = build_pair()
        with pytest.raises(IndexError_):
            compact.row_of(999)

    def test_negative_query_weight_rejected(self):
        _, _, compact = build_pair()
        with pytest.raises(ConfigError):
            compact.gather({"t0": -0.5})

    def test_duplicate_and_missing_mirror_source_errors(self):
        ads, index, compact = build_pair()
        # The source index rejects before notifying listeners, so the
        # mirror sees exactly one event per logical mutation.
        with pytest.raises(IndexError_):
            index.add_ad(ads[0])
        with pytest.raises(IndexError_):
            index.remove_ad_id(999)
        compact.check_consistent()


class TestSync:
    def test_initial_build_is_consistent(self):
        _, _, compact = build_pair()
        compact.check_consistent()
        assert compact.num_alive == compact.num_rows == 40

    def test_check_consistent_catches_a_stray_posting(self):
        # A posting for a term the ad does not have: every expected term
        # still checks out, only the per-row posting count gives it away.
        ads, index, compact = build_pair()
        row = compact.row_of(ads[0].ad_id)
        term = next(
            term for term, _ in index.term_items() if term not in ads[0].terms
        )
        tid = compact.terms.lookup(term)
        rows = np.append(compact._term_rows[tid], np.int32(row))
        order = np.argsort(rows, kind="stable")
        compact._term_rows[tid] = rows[order]
        compact._term_weights[tid] = np.append(
            compact._term_weights[tid], np.float32(0.5)
        )[order]
        with pytest.raises(AssertionError, match="lacks"):
            compact.check_consistent()

    def test_remove_marks_dead_without_rebuild(self):
        ads, index, compact = build_pair()
        generation = compact.generation
        index.remove_ad_id(ads[0].ad_id)
        assert compact.generation == generation
        assert compact.num_alive == 39
        assert compact.dead_fraction == pytest.approx(1 / 40)
        compact.check_consistent()

    def test_add_appends_maximal_row(self):
        ads, index, compact = build_pair(num_ads=10)
        extra = make_ads(12, seed=3)[11]
        index.add_ad(extra)
        assert compact.row_of(extra.ad_id) == compact.num_rows - 1
        compact.check_consistent()


class TestRebuildPolicy:
    def test_threshold_triggers_compaction(self):
        ads, index, compact = build_pair(
            rebuild_dead_fraction=0.25, min_rebuild_dead=4
        )
        generation = compact.generation
        for ad in ads[:9]:
            index.remove_ad_id(ad.ad_id)
            assert not compact.maybe_compact()
        index.remove_ad_id(ads[9].ad_id)  # 10/40 = exactly the threshold
        assert compact.maybe_compact()
        assert compact.generation == generation + 1
        assert compact.num_rows == compact.num_alive == 30
        assert compact.dead_fraction == 0.0
        compact.check_consistent()

    def test_min_dead_floor_defers_small_indexes(self):
        ads, index, compact = build_pair(
            num_ads=8, rebuild_dead_fraction=0.25, min_rebuild_dead=64
        )
        for ad in ads[:6]:
            index.remove_ad_id(ad.ad_id)
        # 75% dead but below the absolute floor: no rebuild yet.
        assert not compact.maybe_compact()
        compact.check_consistent()

    def test_rows_reassigned_ascending_after_rebuild(self):
        ads, index, compact = build_pair(
            rebuild_dead_fraction=0.1, min_rebuild_dead=1
        )
        for ad in ads[::2]:
            index.remove_ad_id(ad.ad_id)
        compact.maybe_compact()
        ids = compact.ad_ids
        assert np.all(np.diff(ids) > 0)
        assert bool(compact.alive.all())


class TestSharedMirrorLifetime:
    def test_shared_is_one_mirror_per_index(self):
        _, index, _ = build_pair()
        assert CompactIndex.shared(index) is CompactIndex.shared(index)
        _, other, _ = build_pair(seed=1)
        assert CompactIndex.shared(other) is not CompactIndex.shared(index)

    def test_dropped_engines_take_their_mirrors_along(self, tiny_workload):
        """Building and dropping engines must leave the heap flat: the
        shared mirror (and the index it mirrors) dies with its engine."""
        import gc

        from repro.core.config import EngineConfig
        from repro.core.recommender import ContextAwareRecommender

        def build_serve_drop():
            engine = ContextAwareRecommender.from_workload(
                tiny_workload, EngineConfig(searcher="vector")
            ).engine
            for post in tiny_workload.posts[:5]:
                engine.post(post.author_id, post.text, post.timestamp)

        def census():
            gc.collect()
            objects = gc.get_objects()
            mirrors = sum(isinstance(obj, CompactIndex) for obj in objects)
            return mirrors, len(objects)

        build_serve_drop()  # one-time allocations (imports, interned ids)
        mirrors_before, objects_before = census()
        for _ in range(3):
            build_serve_drop()
        mirrors_after, objects_after = census()
        assert mirrors_after == mirrors_before
        # One leaked mirror is hundreds of objects; allow allocator noise.
        assert objects_after - objects_before < 50


class TestKernels:
    def test_gather_matches_brute_dots(self):
        rng = random.Random(7)
        ads, _, compact = build_pair(seed=7)
        query = random_query(rng)
        rows, scores = compact.gather(query)
        by_id = {int(compact.ad_ids[row]): score
                 for row, score in zip(rows, scores)}
        for ad in ads:
            expected = sum(
                weight * ad.terms.get(term, 0.0)
                for term, weight in query.items()
            )
            if expected > 0.0:
                assert by_id[ad.ad_id] == pytest.approx(expected, abs=1e-6)
            else:
                assert ad.ad_id not in by_id

    def test_gather_scratch_invariant_restored(self):
        rng = random.Random(3)
        _, _, compact = build_pair(seed=3)
        query = random_query(rng)
        first = compact.gather(query)
        second = compact.gather(query)
        assert np.array_equal(first[0], second[0])
        assert np.allclose(first[1], second[1])


class TestVectorSearcherParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_matches_ta(self, seed, k):
        rng, corpus, index = random_setup(seed)
        query = random_query(rng)
        vector = VectorSearcher(index).search(query, k)
        oracle = ThresholdSearcher(index).search(query, k)
        assert_entry_parity(vector, oracle)

    def test_parity_survives_churn(self):
        ads, index, compact = build_pair(
            num_ads=30, rebuild_dead_fraction=0.2, min_rebuild_dead=2
        )
        rng = random.Random(9)
        pool = make_ads(60, seed=9)
        searcher = VectorSearcher(index, compact=compact)
        for step, ad in enumerate(pool[30:]):
            index.add_ad(ad)
            index.remove_ad_id(pool[step].ad_id)  # sliding window
            query = random_query(rng)
            vector = searcher.search(query, 8)
            oracle = ThresholdSearcher(index).search(query, 8)
            assert_entry_parity(vector, oracle)
        compact.check_consistent()


class TestChurnProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        ops=st.lists(st.integers(0, 59), min_size=1, max_size=40),
    )
    def test_mirror_stays_consistent(self, seed, ops):
        """Random add/remove churn: the mirror equals the source after
        every mutation and across every rebuild trigger."""
        pool = make_ads(60, seed=seed % 7)
        index = AdInvertedIndex()
        compact = CompactIndex(
            index, rebuild_dead_fraction=0.3, min_rebuild_dead=3
        )
        present: set[int] = set()
        for pick in ops:
            ad = pool[pick]
            if ad.ad_id in present:
                index.remove_ad_id(ad.ad_id)
                present.discard(ad.ad_id)
            else:
                index.add_ad(ad)
                present.add(ad.ad_id)
            compact.maybe_compact()
            compact.check_consistent()
        assert compact.num_alive == len(present)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 500),
        window=st.integers(3, 12),
        steps=st.integers(5, 25),
    )
    def test_sliding_window_gather_parity(self, seed, window, steps):
        """Expiry-style churn (add newest, drop oldest): gather scores
        match brute-force dots against the live window at every step."""
        rng = random.Random(seed)
        pool = make_ads(window + steps, seed=seed % 5)
        index = AdInvertedIndex()
        compact = CompactIndex(
            index, rebuild_dead_fraction=0.25, min_rebuild_dead=2
        )
        live: list = []
        for ad in pool:
            index.add_ad(ad)
            live.append(ad)
            if len(live) > window:
                expired = live.pop(0)
                index.remove_ad_id(expired.ad_id)
            compact.maybe_compact()
            query = random_query(rng)
            rows, scores = compact.gather(query)
            got = {
                int(compact.ad_ids[row]): score
                for row, score in zip(rows, scores)
            }
            expected = {}
            for live_ad in live:
                dot = sum(
                    weight * live_ad.terms.get(term, 0.0)
                    for term, weight in query.items()
                )
                if dot > 0.0:
                    expected[live_ad.ad_id] = dot
            assert got.keys() == expected.keys()
            for ad_id, score in expected.items():
                assert got[ad_id] == pytest.approx(score, abs=1e-6)
        compact.check_consistent()

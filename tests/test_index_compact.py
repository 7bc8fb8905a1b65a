"""Compact numpy mirror: interning, sync, rebuild policy, kernel parity.

The mirror must match :class:`AdInvertedIndex` exactly at *every* point of
an add/remove/expire churn sequence — rebuilds are a memory policy, never
a correctness event. The hypothesis suites drive random churn and assert
:meth:`CompactIndex.check_consistent` plus searcher-level parity after
each step.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.corpus import AdCorpus
from repro.errors import ConfigError, IndexError_
from repro.index.compact import CompactIndex, IdInterner, _Postings
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


def oracle_gather(compact, query):
    """The term-at-a-time accumulate ``gather`` replaced, kept as its
    oracle: per query term, in query order, ``scores[rows] += float64(
    float32 weight) * query weight``; then the touched alive rows,
    ascending. ``gather`` must return these very doubles."""
    scores = np.zeros(compact.num_rows, dtype=np.float64)
    touched = np.zeros(compact.num_rows, dtype=bool)
    for term, qweight in query.items():
        assert qweight >= 0.0
        if qweight == 0.0:
            continue
        rows, weights = compact.term_postings(term)
        stored = weights.astype(np.float32)
        assert np.array_equal(stored, weights)
        scores[rows] += stored.astype(np.float64) * qweight
        touched[rows] = True
    keep = np.flatnonzero(touched & compact.alive)
    return keep, scores[keep]


def assert_gather_is_the_oracle(compact, query):
    rows, scores = compact.gather(query)
    want_rows, want_scores = oracle_gather(compact, query)
    assert rows.dtype == np.int64 and scores.dtype == np.float64
    assert rows.tolist() == want_rows.tolist()
    assert scores.tolist() == want_scores.tolist()


def corrupt_base(compact, edit):
    """Test-only: rebuild the mirror's base segment from its own postings
    after ``edit(tids, rows, weights)`` returned the columns to keep."""
    base = compact._segments[0]
    tids, rows, weights = edit(*base.columns())
    compact._segments = (
        _Postings(tids, rows, weights, base.lengths.shape[0]),
        *compact._segments[1:],
    )


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


    def test_a_live_ad_mirrored_twice_is_an_index_error(self):
        # A second notifier (or a replayed add) gets the module's own
        # error — not a bare assert that ``python -O`` strips, leaving the
        # ad mirrored under two rows.
        ads, _, compact = build_pair()
        with pytest.raises(IndexError_, match="already mirrored"):
            compact._on_add(ads[0].ad_id, ads[0].terms)
        assert compact.num_rows == 40
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
        corrupt_base(
            compact,
            lambda tids, rows, weights: (
                np.append(tids, tid), np.append(rows, row), np.append(weights, 0.5)
            ),
        )
        with pytest.raises(AssertionError, match="lacks"):
            compact.check_consistent()

    def test_check_consistent_catches_an_unsorted_slice(self):
        _, _, compact = build_pair()
        base = compact._segments[0]
        start = int(base.starts[int(np.argmax(base.lengths))])
        assert base.lengths.max() >= 2
        base.rows[[start, start + 1]] = base.rows[[start + 1, start]]
        with pytest.raises(AssertionError, match="sorted"):
            compact.check_consistent()

    def test_check_consistent_catches_a_row_in_both_segments(self):
        ads, index, compact = build_pair()
        index.add_ad(make_ads(42, seed=3)[41])
        compact.check_consistent()
        assert len(compact._segments) == 2
        # The newest base row's postings re-labelled as the tail's row.
        tail_row = compact.num_rows - 1
        corrupt_base(
            compact,
            lambda tids, rows, weights: (
                tids, np.where(rows == tail_row - 1, tail_row, rows), weights
            ),
        )
        with pytest.raises(AssertionError, match="two segments"):
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

    def test_gather_twice_is_the_same_gather(self):
        rng = random.Random(3)
        _, _, compact = build_pair(seed=3)
        query = random_query(rng)
        first = compact.gather(query)
        second = compact.gather(query)
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()


WIDE = 20  # terms per ad over a 60-term vocabulary: dots of up to 20 products
WIDE_VOCABULARY = [f"t{i}" for i in range(3 * WIDE)]


def wide_query(rng: random.Random) -> dict[str, float]:
    """1 to 60 known terms in random (not term-id) order, some weighted
    zero, plus the odd term no ad ever had."""
    query = {
        term: rng.uniform(0.05, 1.0)
        for term in rng.sample(WIDE_VOCABULARY, rng.randint(1, len(WIDE_VOCABULARY)))
    }
    for term in rng.sample(sorted(query), len(query) // 5):
        query[term] = 0.0
    if rng.random() < 0.5:
        query[f"unseen{rng.randint(0, 3)}"] = rng.uniform(0.05, 1.0)
    return query


def wide_pair(num_ads: int, seed: int = 0, **compact_kwargs):
    """``num_ads`` wide ads mirrored as the base, and 60 more to launch."""
    pool = make_ads(num_ads + 60, seed=seed, terms_per_ad=WIDE)
    index = AdInvertedIndex()
    for ad in pool[:num_ads]:
        index.add_ad(ad)
    return pool, index, CompactIndex(index, **compact_kwargs)


def c_calls(function, *args) -> int:
    """C-level calls made while ``function(*args)`` runs, the resolve
    pass's own list / dict bookkeeping (one per query term by design)
    left out."""
    calls = []

    def profiler(frame, event, arg):
        if event == "c_call" and not isinstance(
            getattr(arg, "__self__", None), (list, dict)
        ):
            calls.append(arg)

    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return len(calls)


class TestGatherIsTheOracle:
    """``gather`` addresses every query term's slice at once and sums
    with one ordered reduction; the loop it replaced is ``oracle_gather``.
    Same rows, and every dot the same double — ``==``, no tolerance."""

    def test_every_stage_of_a_mirrors_life(self):
        rng = random.Random(11)
        pool, index, compact = wide_pair(
            30, rebuild_dead_fraction=0.3, min_rebuild_dead=3
        )

        def check():
            compact.check_consistent()
            for _ in range(8):
                assert_gather_is_the_oracle(compact, wide_query(rng))

        check()
        base = compact._segments[0]
        # Two launches land in the tail; one brings a term the base never
        # saw (an empty slice there, the whole match in the tail).
        index.add_ad(pool[30])
        index.add_ad(replace(pool[31], terms={**pool[31].terms, "fresh": 0.7}))
        assert len(compact._segments) == 2 and compact._segments[0] is base
        check()
        assert_gather_is_the_oracle(compact, {"fresh": 0.3})
        assert compact.gather({"fresh": 0.3})[0].tolist() == [31]
        # Retirements in the base and in the tail: masked, not removed.
        index.remove_ad_id(pool[3].ad_id)
        index.remove_ad_id(pool[30].ad_id)
        check()
        # The tail outgrows its share of the base and is folded: one
        # segment again, rows and generation untouched.
        generation, launched = compact.generation, 32
        while len(compact._segments) == 2:
            index.add_ad(pool[launched])
            launched += 1
        assert compact._segments[0] is not base
        assert compact.generation == generation
        assert compact.row_of(pool[31].ad_id) == 31
        check()
        # Enough dead rows for a compaction: rows renumbered.
        for ad in pool[4:14]:
            index.remove_ad_id(ad.ad_id)
        assert compact.maybe_compact() and compact.generation == generation + 1
        check()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        ops=st.lists(st.integers(0, 69), min_size=1, max_size=40),
    )
    def test_bit_identical_under_churn(self, seed, ops):
        """Random launches (tail, folds) and retirements (base and tail,
        compactions): consistent and equal to the oracle after each."""
        rng = random.Random(seed)
        pool, index, compact = wide_pair(
            10, seed=seed % 5, rebuild_dead_fraction=0.3, min_rebuild_dead=3
        )
        present = {ad.ad_id for ad in pool[:10]}
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
            assert_gather_is_the_oracle(compact, wide_query(rng))

    def test_a_launch_copies_no_base_posting(self):
        """150 launches into a 4,000-ad mirror: the base block is the same
        four arrays' worth of postings throughout (the per-term slots may
        grow for new terms), and a gather over both segments is the
        oracle's."""
        rng = random.Random(5)
        pool = make_ads(4150, seed=5)
        index = AdInvertedIndex.from_corpus(AdCorpus(pool[:4000]), subscribe=False)
        compact = CompactIndex(index)
        base = compact._segments[0]
        rows, weights = base.rows, base.weights
        for ad in pool[4000:]:
            index.add_ad(ad)
        assert len(compact._segments) == 2 and compact._segments[0] is base
        assert base.rows is rows and base.weights is weights
        assert compact._segments[1].rows.min() == 4000
        compact.check_consistent()
        for _ in range(20):
            query = random_query(rng)
            assert compact.gather(query)[0][-1] >= 4000, "straddles both segments"
            assert_gather_is_the_oracle(compact, query)

    def test_the_call_count_does_not_grow_with_the_query(self):
        """No per-term numpy work: a 40-term probe makes exactly the C
        calls a 4-term probe makes, over a mirror with a tail."""
        pool, index, compact = wide_pair(40)
        index.add_ad(pool[40])
        assert len(compact._segments) == 2
        narrow = {term: 0.5 for term in WIDE_VOCABULARY[:4]}
        wide = {term: 0.5 for term in WIDE_VOCABULARY[:40]}
        assert len(compact.gather(wide)[0]) >= len(compact.gather(narrow)[0]) > 0
        assert c_calls(compact.gather, wide) == c_calls(compact.gather, narrow) > 0


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

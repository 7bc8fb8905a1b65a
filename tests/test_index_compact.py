"""Compact numpy index: interning, corpus sync, rebuild policy, kernel
parity.

The arrays are built from and fed by an :class:`AdCorpus`, and must hold
its active ads exactly at *every* point of a launch/retire/expire churn
sequence — rebuilds are a memory policy, never a correctness event. An
:class:`AdInvertedIndex` over the same corpus is the oracle, never the
source. The hypothesis suites drive random churn and assert
:meth:`CompactIndex.check_consistent` plus posting-, gather- and
searcher-level parity after each step.
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
from repro.errors import ConfigError, CorpusError, IndexError_, UnknownAdError
from repro.index.compact import CompactIndex, IdInterner, _Postings
from repro.index.vector import VectorSearcher
from repro.reference.inverted import AdInvertedIndex
from repro.reference.threshold import ThresholdSearcher
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
    """The backing ads, their corpus, an oracle dict index fed by it and
    the compact index built from it."""
    ads = make_ads(num_ads, seed=seed)
    corpus = AdCorpus(ads)
    index = AdInvertedIndex.from_corpus(corpus, subscribe=True)
    compact = CompactIndex(corpus, **compact_kwargs)
    return ads, corpus, index, compact


def toggle(corpus: AdCorpus, pool: list, pick: int, next_id: int) -> int:
    """Retire ``pool[pick]`` if it is live, launch it otherwise — under a
    fresh id once its own was retired (a corpus never re-adds an id).
    Returns the next fresh id."""
    ad = pool[pick]
    if ad.ad_id in corpus and corpus.is_active(ad.ad_id):
        corpus.retire(ad.ad_id)
        return next_id
    if ad.ad_id in corpus:
        ad = pool[pick] = replace(ad, ad_id=next_id)
        next_id += 1
    corpus.add(ad)
    return next_id


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
        _, _, index, compact = build_pair()
        before = {
            term: compact.terms.lookup(term)
            for term, _ in index.term_items()
        }
        compact._rebuild()
        for term, tid in before.items():
            assert compact.terms.lookup(term) == tid


class TestConfigAndErrors:
    def test_bad_rebuild_fraction(self):
        _, corpus, _, _ = build_pair()
        with pytest.raises(ConfigError):
            CompactIndex(corpus, rebuild_dead_fraction=0.0)
        with pytest.raises(ConfigError):
            CompactIndex(corpus, rebuild_dead_fraction=1.5)

    def test_bad_min_rebuild_dead(self):
        _, corpus, _, _ = build_pair()
        with pytest.raises(ConfigError):
            CompactIndex(corpus, min_rebuild_dead=0)

    def test_unknown_row_lookup(self):
        _, _, _, compact = build_pair()
        with pytest.raises(IndexError_):
            compact.row_of(999)

    def test_negative_query_weight_rejected(self):
        _, _, _, compact = build_pair()
        with pytest.raises(ConfigError):
            compact.gather({"t0": -0.5})

    def test_duplicate_and_missing_mirror_source_errors(self):
        ads, corpus, _, compact = build_pair()
        # The corpus rejects before notifying listeners, so the index
        # sees exactly one event per logical mutation.
        with pytest.raises(CorpusError):
            corpus.add(ads[0])
        with pytest.raises(UnknownAdError):
            corpus.retire(999)
        corpus.retire(ads[1].ad_id)
        with pytest.raises(CorpusError):
            corpus.retire(ads[1].ad_id)
        assert compact.num_alive == 39
        compact.check_consistent()


    def test_a_live_ad_mirrored_twice_is_an_index_error(self):
        # A second notifier (or a replayed add) gets the module's own
        # error — not a bare assert that ``python -O`` strips, leaving the
        # ad indexed under two rows.
        ads, _, _, compact = build_pair()
        with pytest.raises(IndexError_, match="already indexed"):
            compact._on_add(ads[0])
        assert compact.num_rows == 40
        compact.check_consistent()


class TestSync:
    def test_initial_build_is_consistent(self):
        _, _, _, compact = build_pair()
        compact.check_consistent()
        assert compact.num_alive == compact.num_rows == 40

    def test_check_consistent_catches_a_stray_posting(self):
        # A posting for a term the ad does not have: every expected term
        # still checks out, only the per-row posting count gives it away.
        ads, _, index, compact = build_pair()
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
        _, _, _, compact = build_pair()
        base = compact._segments[0]
        start = int(base.starts[int(np.argmax(base.lengths))])
        assert base.lengths.max() >= 2
        base.rows[[start, start + 1]] = base.rows[[start + 1, start]]
        with pytest.raises(AssertionError, match="sorted"):
            compact.check_consistent()

    def test_check_consistent_catches_a_row_in_both_segments(self):
        _, corpus, _, compact = build_pair()
        corpus.add(make_ads(42, seed=3)[41])
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
        ads, corpus, _, compact = build_pair()
        generation = compact.generation
        corpus.retire(ads[0].ad_id)
        assert compact.generation == generation
        assert compact.num_alive == 39
        assert compact.dead_fraction == pytest.approx(1 / 40)
        compact.check_consistent()

    def test_add_appends_maximal_row(self):
        _, corpus, _, compact = build_pair(num_ads=10)
        extra = make_ads(12, seed=3)[11]
        corpus.add(extra)
        assert compact.row_of(extra.ad_id) == compact.num_rows - 1
        compact.check_consistent()


class TestRebuildPolicy:
    def test_threshold_triggers_compaction(self):
        ads, corpus, _, compact = build_pair(
            rebuild_dead_fraction=0.25, min_rebuild_dead=4
        )
        generation = compact.generation
        for ad in ads[:9]:
            corpus.retire(ad.ad_id)
            assert not compact.maybe_compact()
        corpus.retire(ads[9].ad_id)  # 10/40 = exactly the threshold
        assert compact.maybe_compact()
        assert compact.generation == generation + 1
        assert compact.num_rows == compact.num_alive == 30
        assert compact.dead_fraction == 0.0
        compact.check_consistent()

    def test_min_dead_floor_defers_small_indexes(self):
        ads, corpus, _, compact = build_pair(
            num_ads=8, rebuild_dead_fraction=0.25, min_rebuild_dead=64
        )
        for ad in ads[:6]:
            corpus.retire(ad.ad_id)
        # 75% dead but below the absolute floor: no rebuild yet.
        assert not compact.maybe_compact()
        compact.check_consistent()

    def test_rows_reassigned_ascending_after_rebuild(self):
        ads, corpus, _, compact = build_pair(
            rebuild_dead_fraction=0.1, min_rebuild_dead=1
        )
        for ad in ads[::2]:
            corpus.retire(ad.ad_id)
        compact.maybe_compact()
        ids = compact.ad_ids
        assert np.all(np.diff(ids) > 0)
        assert bool(compact.alive.all())


class TestSharedMirrorLifetime:
    def test_a_vector_engine_holds_one_index(self, tiny_workload):
        """The probe, the kernel and its row cache read the engine's one
        index, which is the arrays (no dict index beside them)."""
        from repro.core.config import EngineConfig
        from repro.core.recommender import ContextAwareRecommender

        engine = ContextAwareRecommender.from_workload(
            tiny_workload, EngineConfig(searcher="vector")
        ).engine
        assert isinstance(engine.index, CompactIndex)
        assert engine.services.index is engine.index
        assert engine.candidate_gen._compact is engine.index
        assert engine.personalizer._compact is engine.index
        assert engine.personalizer.row_cache._compact is engine.index

    def test_dropped_engines_take_their_mirrors_along(self, tiny_workload):
        """Building and dropping engines must leave the heap flat: the
        compact index dies with its engine."""
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
        ads, _, _, compact = build_pair(seed=7)
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
        _, _, _, compact = build_pair(seed=3)
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
    """``num_ads`` wide ads in a corpus and its compact index (their
    base), and 60 more to launch."""
    pool = make_ads(num_ads + 60, seed=seed, terms_per_ad=WIDE)
    corpus = AdCorpus(pool[:num_ads])
    return pool, corpus, CompactIndex(corpus, **compact_kwargs)


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
        pool, corpus, compact = wide_pair(
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
        corpus.add(pool[30])
        corpus.add(replace(pool[31], terms={**pool[31].terms, "fresh": 0.7}))
        assert len(compact._segments) == 2 and compact._segments[0] is base
        check()
        assert_gather_is_the_oracle(compact, {"fresh": 0.3})
        assert compact.gather({"fresh": 0.3})[0].tolist() == [31]
        # Retirements in the base and in the tail: masked, not removed.
        corpus.retire(pool[3].ad_id)
        corpus.retire(pool[30].ad_id)
        check()
        # The tail outgrows its share of the base and is folded: one
        # segment again, rows and generation untouched.
        generation, launched = compact.generation, 32
        while len(compact._segments) == 2:
            corpus.add(pool[launched])
            launched += 1
        assert compact._segments[0] is not base
        assert compact.generation == generation
        assert compact.row_of(pool[31].ad_id) == 31
        check()
        # Enough dead rows for a compaction: rows renumbered.
        for ad in pool[4:14]:
            corpus.retire(ad.ad_id)
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
        pool, corpus, compact = wide_pair(
            10, seed=seed % 5, rebuild_dead_fraction=0.3, min_rebuild_dead=3
        )
        next_id = len(pool)
        for pick in ops:
            next_id = toggle(corpus, pool, pick, next_id)
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
        corpus = AdCorpus(pool[:4000])
        compact = CompactIndex(corpus)
        base = compact._segments[0]
        rows, weights = base.rows, base.weights
        for ad in pool[4000:]:
            corpus.add(ad)
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
        pool, corpus, compact = wide_pair(40)
        corpus.add(pool[40])
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
        vector = VectorSearcher(CompactIndex(corpus)).search(query, k)
        oracle = ThresholdSearcher(index).search(query, k)
        assert_entry_parity(vector, oracle)

    def test_parity_survives_churn(self):
        _, corpus, index, compact = build_pair(
            num_ads=30, rebuild_dead_fraction=0.2, min_rebuild_dead=2
        )
        rng = random.Random(9)
        pool = make_ads(60, seed=9)
        searcher = VectorSearcher(compact)
        for step, ad in enumerate(pool[30:]):
            corpus.add(ad)
            corpus.retire(pool[step].ad_id)  # sliding window
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
        """Random launch/retire churn: the arrays equal the corpus after
        every mutation and across every rebuild trigger."""
        pool = make_ads(60, seed=seed % 7)
        corpus = AdCorpus()
        compact = CompactIndex(
            corpus, rebuild_dead_fraction=0.3, min_rebuild_dead=3
        )
        next_id = len(pool)
        for pick in ops:
            next_id = toggle(corpus, pool, pick, next_id)
            compact.maybe_compact()
            compact.check_consistent()
        assert compact.num_alive == corpus.num_active

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
        corpus = AdCorpus()
        compact = CompactIndex(
            corpus, rebuild_dead_fraction=0.25, min_rebuild_dead=2
        )
        live: list = []
        for ad in pool:
            corpus.add(ad)
            live.append(ad)
            if len(live) > window:
                expired = live.pop(0)
                corpus.retire(expired.ad_id)
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


def assert_postings_are_the_oracles(compact, index):
    """Every term's live postings in the arrays are the oracle dict
    index's: the same ads, each weight the float32 rounding of the
    oracle's; a term the oracle no longer holds has no live posting."""
    for term, _ in index.term_items():
        assert term in compact.terms
    ad_ids, alive = compact.ad_ids, compact.alive
    for tid in range(len(compact.terms)):
        term = compact.terms.name_of(tid)
        rows, weights = compact.term_postings(term)
        live = alive[rows]
        got = dict(zip(ad_ids[rows[live]].tolist(), weights[live].tolist()))
        postings = index.postings(term)
        want = {
            ad_id: float(np.float32(weight))
            for ad_id, weight in (postings.doc_ordered() if postings else ())
        }
        assert got == want, term


class TestCorpusFedArraysMatchTheDictIndex:
    """A vector engine's one index against an :class:`AdInvertedIndex`
    oracle over the same corpus, under the engine's own launches,
    campaign ends and budget exhaustions, and compactions."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["launch", "end", "exhaust", "compact"]),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_churn_through_an_engine(self, seed, ops):
        from repro.core.config import EngineConfig
        from repro.core.engine import AdEngine
        from repro.graph.social import SocialGraph
        from repro.text.vectorizer import TfidfVectorizer

        rng = random.Random(seed)
        pool = [
            replace(ad, budget=1.0)
            for ad in make_ads(70, seed=seed % 7, terms_per_ad=5)
        ]
        rng.shuffle(pool)  # launches arrive in no id order
        corpus = AdCorpus(pool[:20])
        engine = AdEngine(
            corpus,
            SocialGraph(),
            TfidfVectorizer(),
            config=EngineConfig(searcher="vector"),
        )
        compact = engine.index
        compact._min_rebuild_dead, compact._rebuild_dead_fraction = 3, 0.2
        oracle = AdInvertedIndex.from_corpus(corpus, subscribe=True)
        launched = 20
        for op, pick in ops:
            active = corpus.active_ids()
            if op == "launch" and launched < len(pool):
                engine.launch_campaign(pool[launched], 0.0)
                launched += 1
            elif op == "end" and active:
                engine.end_campaign(active[pick % len(active)], 0.0)
            elif op == "exhaust" and active:
                assert engine.budget.charge(active[pick % len(active)], 1.0)
            generation = compact.generation
            if op == "compact":
                compact._rebuild()
            else:
                compact.maybe_compact()
            if compact.generation != generation:
                # A compaction numbers the live rows by ascending ad id.
                assert np.all(np.diff(compact.ad_ids) > 0)
                assert bool(compact.alive.all())
            compact.check_consistent()
            assert_postings_are_the_oracles(compact, oracle)
            for _ in range(3):
                assert_gather_is_the_oracle(compact, random_query(rng))

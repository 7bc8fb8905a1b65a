"""B1 (micro) — index searcher shoot-out: TA vs vector vs scan.

Same index, same query workload, exact same results (asserted) — only the
evaluation strategy differs. Expected shape: the numpy-backed ``vector``
searcher wins outright (it "evaluates" every match with fused array
arithmetic, so evaluation counts stop being the cost model); the
pure-Python TA reference evaluates far fewer documents than the corpus
size and sits between, and the scan evaluates everything. (The
document-at-a-time pruners this table once carried, WAND and MaxScore,
read 882 and 850 queries/s beside TA's 2,824 — pure-Python cursor
bookkeeping — and were deleted.)
"""

from __future__ import annotations

import random

import pytest

from conftest import save_table, workload_with
from repro.eval.report import ascii_table
from repro.index.compact import CompactIndex
from repro.index.vector import VectorSearcher
from repro.reference.brute import exact_topk
from repro.reference.inverted import AdInvertedIndex
from repro.reference.threshold import ThresholdSearcher

K = 10
NUM_QUERIES = 80
STRATEGIES = ["ta", "vector", "scan"]

_series: dict[str, tuple[float, float]] = {}


def _queries(workload):
    rng = random.Random(5)
    queries = []
    for post in workload.posts[:NUM_QUERIES]:
        vec = workload.vectorizer.transform(
            workload.tokenizer.tokenize(post.text)
        )
        if vec:
            queries.append(vec)
    assert queries
    return queries


def _setup(num_ads=4000):
    workload = workload_with(num_ads=num_ads, num_posts=NUM_QUERIES)
    corpus = workload.build_corpus()
    index = AdInvertedIndex.from_corpus(corpus, subscribe=False)
    return workload, corpus, index


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_b1_searchers(benchmark, strategy):
    workload, corpus, index = _setup()
    queries = _queries(workload)
    ads = list(corpus.active_ads())

    if strategy == "scan":
        def run():
            return [exact_topk(ads, query, K) for query in queries]
        evaluations = float(len(ads))
    else:
        searcher = {
            "ta": ThresholdSearcher(index),
            "vector": VectorSearcher(CompactIndex(corpus)),
        }[strategy]

        def run():
            results = [searcher.search(query, K) for query in queries]
            return results

        run()  # warm once to read instrumentation
        evaluations = searcher.last_evaluations

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    queries_per_s = len(queries) / benchmark.stats.stats.mean
    benchmark.extra_info["queries_per_s"] = queries_per_s
    _series[strategy] = (queries_per_s, float(evaluations))

    # Exactness cross-check on the first query. The pure-Python engine
    # agrees with brute force to 9 decimals; the vector searcher reads
    # float32 posting storage, so its contract is identical ranking with
    # scores within 1e-6.
    reference = exact_topk(ads, queries[0], K)
    first = results[0]
    assert [entry.item for entry in first] == [
        entry.item for entry in reference
    ]
    if strategy == "vector":
        for mine, ref in zip(first, reference):
            assert mine.score == pytest.approx(ref.score, abs=1e-6)
    else:
        assert [round(entry.score, 9) for entry in first] == [
            round(entry.score, 9) for entry in reference
        ]

    if len(_series) == len(STRATEGIES):
        table = ascii_table(
            ["strategy", "queries/s", "evals (last query)"],
            [
                [name, round(qps, 1), int(evals)]
                for name, (qps, evals) in _series.items()
            ],
            title="B1: top-k searcher comparison (4000 ads, k=10)",
        )
        save_table("b1_searchers", table)
        assert _series["ta"][0] > _series["scan"][0]
        # The compact-kernel searcher beats the pure-Python reference.
        assert _series["vector"][0] > _series["ta"][0]

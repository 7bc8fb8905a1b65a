"""T13 — index construction cost and size vs. corpus size."""

from __future__ import annotations

import pytest

from conftest import save_table, workload_with
from repro.eval.report import ascii_table
from repro.reference.inverted import AdInvertedIndex

#: Import-checked by the tier-1 smoke driver; too heavy to mini-run.
SMOKE_MINI = False

AD_COUNTS = [1000, 4000, 16000]

_series: dict[int, tuple[float, int, int]] = {}


@pytest.mark.parametrize("num_ads", AD_COUNTS)
def test_t13_index_build(benchmark, num_ads):
    workload = workload_with(num_ads=num_ads, num_posts=50)
    corpus = workload.build_corpus()

    AdInvertedIndex.from_corpus(corpus, subscribe=False)  # warm caches
    index = benchmark.pedantic(
        lambda: AdInvertedIndex.from_corpus(corpus, subscribe=False),
        rounds=3,
        iterations=1,
    )
    _series[num_ads] = (
        benchmark.stats.stats.min,  # min over rounds: robust to GC blips
        index.num_terms,
        index.num_postings,
    )
    assert index.num_ads == num_ads

    if len(_series) == len(AD_COUNTS):
        table = ascii_table(
            ["ads", "build time (s)", "terms", "postings"],
            [
                [
                    num_ads,
                    round(_series[num_ads][0], 4),
                    _series[num_ads][1],
                    _series[num_ads][2],
                ]
                for num_ads in AD_COUNTS
            ],
            title="T13: inverted index build cost and size",
        )
        save_table("t13_index_build", table)
        times = [_series[num_ads][0] for num_ads in AD_COUNTS]
        # 16x the postings must cost clearly more than the smallest build;
        # strict elementwise monotonicity is too timing-fragile to assert.
        assert times[-1] > times[0]
        postings = [_series[num_ads][2] for num_ads in AD_COUNTS]
        assert postings == sorted(postings)

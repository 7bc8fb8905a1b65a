"""Reference oracles used by the core equivalence tests, and the random
index set-ups the searcher tests share.

The oracles deliberately share no code with the engine's scoring fast
paths: they recompute everything from first principles over the whole
corpus, so agreement is meaningful.
"""

from __future__ import annotations

import random

from repro.ads.corpus import AdCorpus
from repro.core.config import ScoringWeights
from repro.geo.point import GeoPoint
from repro.reference.inverted import AdInvertedIndex
from repro.util.sparse import SparseVector, dot
from tests.conftest import make_ads


def scores_of(entries) -> list[float]:
    return [round(entry.score, 9) for entry in entries]


def random_setup(seed: int, num_ads: int = 60):
    rng = random.Random(seed)
    ads = make_ads(num_ads, seed=seed, terms_per_ad=rng.randint(2, 6))
    corpus = AdCorpus(ads)
    index = AdInvertedIndex.from_corpus(corpus)
    return rng, corpus, index


def random_query(rng: random.Random) -> dict[str, float]:
    terms = [f"t{i}" for i in range(12)]
    chosen = rng.sample(terms, rng.randint(1, 6))
    return {term: rng.uniform(0.05, 1.0) for term in chosen}


def oracle_slate_scores(
    corpus: AdCorpus,
    weights: ScoringWeights,
    message_vec: SparseVector,
    profile_vec: SparseVector,
    location: GeoPoint | None,
    timestamp: float,
    k: int,
    *,
    content_vec: SparseVector | None = None,
    content_is_raw: bool = False,
) -> list[float]:
    """Exact top-k *scores* under the engine's published semantics.

    ``content_vec`` defaults to the message vector (shared/exact modes); the
    incremental oracle passes the raw context aggregate instead
    (``content_is_raw`` only documents intent — the arithmetic is the same).
    """
    if content_vec is None:
        content_vec = message_vec
    scores: list[float] = []
    for ad in corpus.active_ads():
        content = dot(content_vec, ad.terms)
        profile_affinity = dot(profile_vec, ad.terms)
        if content <= 0.0 and profile_affinity <= 0.0:
            continue
        if not ad.targeting.matches(location, timestamp):
            continue
        scores.append(
            weights.alpha * content
            + weights.beta * profile_affinity
            + weights.gamma * ad.targeting.proximity(location)
            + weights.delta * corpus.normalized_bid(ad.ad_id)
        )
    scores.sort(reverse=True)
    return scores[:k]


def assert_scores_match(actual: list[float], expected: list[float]) -> None:
    """Elementwise approximate comparison of two descending score lists."""
    assert len(actual) == len(expected), (actual, expected)
    for got, want in zip(actual, expected):
        assert abs(got - want) < 1e-9, (actual, expected)

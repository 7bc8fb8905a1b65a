"""TF-IDF weighting for short social text.

``TfidfVectorizer`` is fitted once over a training corpus (document
frequencies), then turns any token list into a unit-L2 sparse vector. For
tweets, raw term frequency is nearly always 1, so the "tf" component uses
``1 + log(tf)`` damping which degrades gracefully for longer ad copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.errors import ConfigError
from repro.text.stemmer import _MEMO_TOKENS
from repro.util.sparse import MutableSparseVector, l2_normalize


class TfidfVectorizer:
    """Document-frequency-weighted bag-of-words vectorizer.

    IDF uses the smoothed form ``log((1 + N) / (1 + df)) + 1`` so that terms
    never get a non-positive weight and unseen terms (df = 0) get the maximum.
    """

    def __init__(self, *, min_df: int = 1) -> None:
        if min_df < 1:
            raise ConfigError(f"min_df must be >= 1, got {min_df}")
        self.min_df = min_df
        self._df: dict[str, int] = {}
        self._num_docs = 0
        # term → idf, dropped whenever a fit moves the statistics: serving
        # never refits, so a post's terms are nearly always here.
        self._idf: dict[str, float] = {}

    @property
    def num_docs(self) -> int:
        return self._num_docs

    @property
    def is_fitted(self) -> bool:
        return self._num_docs > 0

    def fit(self, documents: Iterable[Sequence[str]]) -> "TfidfVectorizer":
        """Learn document frequencies from tokenised documents."""
        self._idf.clear()
        for tokens in documents:
            self._num_docs += 1
            for term in set(tokens):
                self._df[term] = self._df.get(term, 0) + 1
        return self

    def partial_fit(self, tokens: Sequence[str]) -> None:
        """Fold one more document into the statistics (streaming fit)."""
        self._idf.clear()
        self._num_docs += 1
        for term in set(tokens):
            self._df[term] = self._df.get(term, 0) + 1

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of a term."""
        memo = self._idf
        idf = memo.get(term)
        if idf is None:
            df = self._df.get(term, 0)
            if df < self.min_df:
                df = 0
            if len(memo) >= _MEMO_TOKENS:
                memo.clear()
            idf = memo[term] = math.log((1 + self._num_docs) / (1 + df)) + 1.0
        return idf

    def document_frequency(self, term: str) -> int:
        return self._df.get(term, 0)

    def transform(self, tokens: Sequence[str]) -> MutableSparseVector:
        """Tokens → unit-L2 sparse TF-IDF vector (empty input → empty dict)."""
        if not tokens:
            return {}
        counts: dict[str, int] = {}
        for term in tokens:
            counts[term] = counts.get(term, 0) + 1
        weighted = {
            term: (1.0 + math.log(count)) * self.idf(term)
            for term, count in counts.items()
        }
        return l2_normalize(weighted)

    def fit_transform(
        self, documents: Sequence[Sequence[str]]
    ) -> list[MutableSparseVector]:
        """Fit on ``documents`` then transform each of them."""
        self.fit(documents)
        return [self.transform(tokens) for tokens in documents]

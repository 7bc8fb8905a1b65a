"""Tests for TF-IDF weighting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.text.vectorizer import TfidfVectorizer
from repro.util.sparse import norm

documents = [
    ["shoe", "run", "marathon"],
    ["shoe", "style", "leather"],
    ["run", "race", "marathon", "run"],
    ["coffee", "bean"],
]


@pytest.fixture()
def fitted() -> TfidfVectorizer:
    return TfidfVectorizer().fit(documents)


class TestFit:
    def test_counts_documents(self, fitted):
        assert fitted.num_docs == 4
        assert fitted.is_fitted

    def test_document_frequency(self, fitted):
        assert fitted.document_frequency("shoe") == 2
        assert fitted.document_frequency("coffee") == 1
        assert fitted.document_frequency("missing") == 0

    def test_df_counts_document_not_occurrences(self, fitted):
        # "run" appears twice in one doc but df counts documents.
        assert fitted.document_frequency("run") == 2

    def test_partial_fit_accumulates(self):
        vectorizer = TfidfVectorizer()
        vectorizer.partial_fit(["a", "b"])
        vectorizer.partial_fit(["a"])
        assert vectorizer.num_docs == 2
        assert vectorizer.document_frequency("a") == 2

    def test_min_df_validation(self):
        with pytest.raises(ConfigError):
            TfidfVectorizer(min_df=0)


class TestIdf:
    def test_rarer_terms_weigh_more(self, fitted):
        assert fitted.idf("coffee") > fitted.idf("shoe")

    def test_unseen_term_gets_max_idf(self, fitted):
        assert fitted.idf("zebra") == pytest.approx(
            math.log((1 + 4) / 1) + 1.0
        )

    def test_idf_always_positive(self, fitted):
        for term in ("shoe", "run", "coffee", "unknown"):
            assert fitted.idf(term) > 0.0

    def test_min_df_zeroes_rare_df(self):
        vectorizer = TfidfVectorizer(min_df=2).fit(documents)
        assert vectorizer.idf("coffee") == vectorizer.idf("never_seen")


class TestTransform:
    def test_empty_tokens(self, fitted):
        assert fitted.transform([]) == {}

    def test_unit_norm(self, fitted):
        vec = fitted.transform(["shoe", "run", "run"])
        assert norm(vec) == pytest.approx(1.0)

    def test_repeated_terms_dampened(self, fitted):
        once = fitted.transform(["run", "coffee"])
        many = fitted.transform(["run", "run", "run", "coffee"])
        # tf damping: tripling "run" should not triple its relative weight
        ratio_once = once["run"] / once["coffee"]
        ratio_many = many["run"] / many["coffee"]
        assert ratio_many < 3 * ratio_once

    def test_fit_transform_matches_transform(self):
        vectorizer = TfidfVectorizer()
        transformed = vectorizer.fit_transform(documents)
        assert transformed[0] == vectorizer.transform(documents[0])

    @given(
        st.lists(
            st.text(alphabet="xyz", min_size=1, max_size=2), min_size=1, max_size=10
        )
    )
    def test_transform_always_unit_or_empty(self, tokens):
        vectorizer = TfidfVectorizer().fit(documents)
        vec = vectorizer.transform(tokens)
        if vec:
            assert norm(vec) == pytest.approx(1.0)


def unmemoised_transform(vectorizer: TfidfVectorizer, tokens) -> dict[str, float]:
    """``transform`` with every idf recomputed from the document
    frequencies: the oracle of the idf memo."""
    from repro.util.sparse import l2_normalize

    counts: dict[str, int] = {}
    for term in tokens:
        counts[term] = counts.get(term, 0) + 1
    weighted = {}
    for term, count in counts.items():
        df = vectorizer.document_frequency(term)
        if df < vectorizer.min_df:
            df = 0
        idf = math.log((1 + vectorizer.num_docs) / (1 + df)) + 1.0
        weighted[term] = (1.0 + math.log(count)) * idf
    return l2_normalize(weighted) if tokens else {}


token_lists = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "zz"]), max_size=8)


class TestTheIdfMemo:
    @given(
        min_df=st.integers(1, 3),
        corpus=st.lists(token_lists, max_size=6),
        posts=st.lists(token_lists, min_size=1, max_size=6),
    )
    def test_equals_the_unmemoised_path(self, min_df, corpus, posts):
        vectorizer = TfidfVectorizer(min_df=min_df).fit(corpus)
        for tokens in posts + posts:  # the second pass reads the memo
            assert vectorizer.transform(tokens) == unmemoised_transform(
                vectorizer, tokens
            )

    @given(
        corpus=st.lists(token_lists, max_size=6),
        tokens=token_lists.filter(bool),
        refit=st.booleans(),
    )
    def test_a_fit_between_two_transforms_moves_the_idf(self, corpus, tokens, refit):
        vectorizer = TfidfVectorizer().fit(corpus)
        term = tokens[0]
        before = vectorizer.idf(term)
        vectorizer.transform(tokens)
        if refit:
            vectorizer.fit([[term]])
        else:
            vectorizer.partial_fit([term])
        # One more document holding the term: N and df both grow by one.
        df = vectorizer.document_frequency(term)
        num_docs = vectorizer.num_docs
        assert vectorizer.idf(term) == math.log((1 + num_docs) / (1 + df)) + 1.0
        assert vectorizer.idf(term) < before or df == vectorizer.num_docs
        assert vectorizer.transform(tokens) == unmemoised_transform(vectorizer, tokens)

"""Tests for the from-scratch Porter stemmer against published examples."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import stemmer as stemmer_module
from repro.text.stemmer import PorterStemmer
from repro.text.tokenizer import Tokenizer, TokenizerConfig


@pytest.fixture(scope="module")
def stemmer() -> PorterStemmer:
    return PorterStemmer()


class TestClassicExamples:
    """Vectors from Porter's 1980 paper and the reference implementation."""

    @pytest.mark.parametrize(
        ("word", "expected"),
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_known_vectors(self, stemmer, word, expected):
        assert stemmer.stem(word) == expected


class TestBehaviour:
    def test_short_words_pass_through(self, stemmer):
        assert stemmer.stem("at") == "at"
        assert stemmer.stem("a") == "a"

    def test_idempotent_on_common_words(self, stemmer):
        for word in ("running", "shoes", "marketing", "volleyball", "nation"):
            once = stemmer.stem(word)
            assert stemmer.stem(once) == once or len(stemmer.stem(once)) <= len(once)

    def test_conflates_inflections(self, stemmer):
        assert stemmer.stem("running") == stemmer.stem("runs")

    def test_synthetic_tokens_unchanged(self, stemmer):
        # Workload vocabulary words must survive the pipeline untouched.
        assert stemmer.stem("w00042") == "w00042"


class TestMemo:
    """``stem`` answers a repeated token from a bounded memo; the five
    steps themselves (``_porter``) stay the reference."""

    def test_equals_the_unmemoised_stem_over_a_workload(self, tiny_workload):
        raw = Tokenizer(TokenizerConfig(stem=False))
        texts = [post.text for post in tiny_workload.posts]
        texts += [ad.text for ad in tiny_workload.ads]
        tokens = [token for text in texts for token in raw.tokenize(text)]
        assert len(tokens) > 3 * len(set(tokens)), "a feed repeats itself"
        memoised, reference = PorterStemmer(), PorterStemmer()
        with mock.patch.object(
            memoised, "_porter", wraps=memoised._porter
        ) as porter:
            for token in tokens:
                expected = reference._porter(token) if len(token) > 2 else token
                assert memoised.stem(token) == expected
        # Each distinct token went through the five steps once.
        assert porter.call_count == len({t for t in tokens if len(t) > 2})

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcdeginrsty", min_size=1, max_size=9), max_size=60
        )
    )
    def test_bounded_and_still_right_after_it_forgets(self, words):
        stemmer, reference = PorterStemmer(), PorterStemmer()
        bound = 8
        with mock.patch.object(stemmer_module, "_MEMO_TOKENS", bound):
            for word in words + words:
                expected = reference._porter(word) if len(word) > 2 else word
                assert stemmer.stem(word) == expected
                assert len(stemmer._memo) <= bound

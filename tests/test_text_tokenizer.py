"""Tests for the tweet-aware tokenizer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.text.tokenizer import Tokenizer, TokenizerConfig


@pytest.fixture()
def tokenizer() -> Tokenizer:
    return Tokenizer()


@pytest.fixture()
def no_stem_tokenizer() -> Tokenizer:
    return Tokenizer(TokenizerConfig(stem=False))


class TestNoise:
    def test_strips_urls(self, no_stem_tokenizer):
        tokens = no_stem_tokenizer("check https://example.com/x?q=1 now")
        assert tokens == ["check", "now"]

    def test_strips_www_urls(self, no_stem_tokenizer):
        assert "www" not in no_stem_tokenizer("visit www.example.com today")

    def test_strips_mentions(self, no_stem_tokenizer):
        assert no_stem_tokenizer("@alice hello @bob_smith") == ["hello"]

    def test_hashtag_keeps_word(self, no_stem_tokenizer):
        assert no_stem_tokenizer("#volleyball tonight") == ["volleyball", "tonight"]

    def test_squeezes_elongations(self, no_stem_tokenizer):
        assert no_stem_tokenizer("sooooo good") == ["soo", "good"]

    def test_drops_punctuation_and_numbers_alone(self, no_stem_tokenizer):
        assert no_stem_tokenizer("!!! 123 ???") == []

    def test_alphanumeric_tokens_kept(self, no_stem_tokenizer):
        assert no_stem_tokenizer("w00042 arrived") == ["w00042", "arrived"]


class TestFiltering:
    def test_removes_stopwords(self, no_stem_tokenizer):
        assert no_stem_tokenizer("the best shoes in the world") == [
            "best",
            "shoes",
            "world",
        ]

    def test_keep_stopwords_option(self):
        tokenizer = Tokenizer(TokenizerConfig(stem=False, keep_stopwords=True))
        assert "the" in tokenizer("the best shoes")

    def test_min_token_length(self):
        tokenizer = Tokenizer(TokenizerConfig(stem=False, min_token_length=4))
        assert tokenizer("big dog runs fast") == ["runs", "fast"]

    def test_lowercases(self, no_stem_tokenizer):
        assert no_stem_tokenizer("VOLLEYBALL Rocks") == ["volleyball", "rocks"]

    def test_twitter_noise_words(self, no_stem_tokenizer):
        assert no_stem_tokenizer("rt lol omg shoes") == ["shoes"]


class TestStemming:
    def test_stems_by_default(self, tokenizer):
        assert tokenizer("running shoes") == ["run", "shoe"]

    def test_empty_text(self, tokenizer):
        assert tokenizer("") == []

    def test_callable_matches_method(self, tokenizer):
        text = "great marathon running shoes"
        assert tokenizer(text) == tokenizer.tokenize(text)


class TestConfigValidation:
    def test_min_token_length_positive(self):
        with pytest.raises(ConfigError):
            TokenizerConfig(min_token_length=0)


# Tweet-shaped pieces: URLs, mentions, hashtags, elongations, apostrophes,
# stopwords, digits, short and mixed-case words, punctuation.
PIECES = [
    "http://t.co/Ab12", "www.example.com/x?y=1", "@bob", "@Alice_99", "#Running",
    "#run", "soooo", "greeeeat", "yesss", "don't", "'quoted'", "it's", "''",
    "o'neil", "the", "and", "is", "a", "I", "ok", "Running", "runs", "ran",
    "2016", "x2", "h4x0r", "...", "!!", "café", "naïve", "marathon",
]
texts = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(max_size=12)), max_size=12
).map(" ".join)
configs = st.builds(
    TokenizerConfig,
    min_token_length=st.integers(1, 4),
    stem=st.booleans(),
    keep_stopwords=st.booleans(),
)


def unmemoised_tokenize(text: str, config: TokenizerConfig) -> list[str]:
    """The per-match loop the token memo replaced, kept as its oracle:
    strip, length, stopword and stemmer (a fresh one: nothing
    remembered) for every match."""
    from repro.text.stemmer import PorterStemmer
    from repro.text.stopwords import STOPWORDS
    from repro.text.tokenizer import (
        _ELONGATION_RE,
        _MENTION_RE,
        _TOKEN_RE,
        _URL_RE,
    )

    lowered = text.lower()
    lowered = _URL_RE.sub(" ", lowered)
    lowered = _MENTION_RE.sub(" ", lowered)
    lowered = lowered.replace("#", " ")
    lowered = _ELONGATION_RE.sub(r"\1\1", lowered)
    tokens = []
    for match in _TOKEN_RE.finditer(lowered):
        token = match.group(0).strip("'")
        if len(token) < config.min_token_length:
            continue
        if not config.keep_stopwords and token in STOPWORDS:
            continue
        if config.stem:
            token = PorterStemmer().stem(token)
        if len(token) >= config.min_token_length:
            tokens.append(token)
    return tokens


class TestTheTokenMemo:
    """A raw token is normalised once and remembered; every output is
    the un-memoised loop's, with the memo warm, cold or forgetting."""

    @settings(max_examples=200, deadline=None)
    @given(config=configs, batch=st.lists(texts, min_size=1, max_size=6))
    def test_equals_the_unmemoised_path(self, config, batch):
        tokenizer = Tokenizer(config)
        for text in batch + batch:  # the second pass reads the memo
            assert tokenizer.tokenize(text) == unmemoised_tokenize(text, config)

    @settings(max_examples=60, deadline=None)
    @given(batch=st.lists(texts, min_size=1, max_size=6))
    def test_a_full_memo_forgets_and_stays_right(self, batch):
        from unittest import mock

        tokenizer = Tokenizer()
        with mock.patch("repro.text.tokenizer._MEMO_TOKENS", 3):
            for text in batch + batch:
                assert tokenizer.tokenize(text) == unmemoised_tokenize(
                    text, tokenizer.config
                )
                assert len(tokenizer._memo) <= 3

"""Tweet-aware tokenizer.

Short social text needs slightly different handling from clean prose:
URLs and @mentions are noise, #hashtags are strong topical signal (the hash
is stripped, the word kept), and elongations ("soooo") are squeezed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.text.stemmer import _MEMO_TOKENS, PorterStemmer
from repro.text.stopwords import STOPWORDS

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z][a-z0-9']*")
# Squeeze letter elongations only ("soooo" → "soo"); digit runs are real
# data (ids, years, the synthetic vocabulary) and must survive intact.
_ELONGATION_RE = re.compile(r"([a-z])\1{2,}")
# A token memo miss (``None`` is a remembered "filtered out").
_UNSEEN = object()


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer behaviour switches.

    ``min_token_length`` filters single-letter noise; ``stem`` toggles Porter
    stemming; ``keep_stopwords`` is useful for language-model-style consumers.
    """

    min_token_length: int = 2
    stem: bool = True
    keep_stopwords: bool = False

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ConfigError(
                f"min_token_length must be >= 1, got {self.min_token_length}"
            )


@dataclass
class Tokenizer:
    """Turns raw text into a list of normalised tokens."""

    config: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __post_init__(self) -> None:
        self._stemmer = PorterStemmer()
        # Raw token → its normalised form, or None when it is filtered
        # out: a pure function of the token under ``config``, so bounded
        # like the stemmer's memo.
        self._memo: dict[str, str | None] = {}

    def tokenize(self, text: str) -> list[str]:
        """Normalise, split and filter ``text`` into topic-bearing tokens."""
        lowered = text.lower()
        lowered = _URL_RE.sub(" ", lowered)
        lowered = _MENTION_RE.sub(" ", lowered)
        lowered = lowered.replace("#", " ")
        lowered = _ELONGATION_RE.sub(r"\1\1", lowered)
        memo = self._memo
        tokens: list[str] = []
        for raw in _TOKEN_RE.findall(lowered):
            token = memo.get(raw, _UNSEEN)
            if token is _UNSEEN:
                if len(memo) >= _MEMO_TOKENS:
                    memo.clear()
                token = memo[raw] = self._normalise(raw)
            if token is not None:
                tokens.append(token)
        return tokens

    def _normalise(self, raw: str) -> str | None:
        """One matched token's strip, length, stopword and stemming
        steps, un-memoised: the token to keep, or None."""
        config = self.config
        token = raw.strip("'")
        if len(token) < config.min_token_length:
            return None
        if not config.keep_stopwords and token in STOPWORDS:
            return None
        if config.stem:
            token = self._stemmer.stem(token)
        return token if len(token) >= config.min_token_length else None

    def __call__(self, text: str) -> list[str]:
        return self.tokenize(text)

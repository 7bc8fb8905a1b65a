"""Porter stemming algorithm (Porter, 1980), implemented from scratch.

The classic five-step suffix-stripping stemmer. It is deliberately a plain,
dependency-free transcription of the published algorithm; the text pipeline
uses it to conflate inflected forms ("running" → "run") before weighting.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, index: int) -> bool:
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        if index == 0:
            return True
        return not _is_consonant(word, index - 1)
    return True


def _measure(stem: str) -> int:
    """The Porter 'measure' m: the number of VC sequences in the stem."""
    pattern: list[str] = []
    for index in range(len(stem)):
        kind = "c" if _is_consonant(stem, index) else "v"
        if not pattern or pattern[-1] != kind:
            pattern.append(kind)
    joined = "".join(pattern)
    if joined.startswith("c"):
        joined = joined[1:]
    if joined.endswith("v"):
        joined = joined[:-1]
    # After trimming, `joined` alternates v/c starting with "v" and ending
    # with "c", so the number of VC pairs is exactly half its length.
    return len(joined) // 2


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, index) for index in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    if len(word) < 2:
        return False
    if word[-1] != word[-2]:
        return False
    return _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


#: Tokens a stemmer memoises before it forgets them all (a feed's
#: vocabulary is Zipfian: nearly every call repeats a recent token).
_MEMO_TOKENS = 1 << 16


class PorterStemmer:
    """Porter stemmer with a bounded token → stem memo (a pure function
    of the token, so concurrent ``stem()`` calls at worst repeat work)."""

    def __init__(self) -> None:
        self._memo: dict[str, str] = {}

    def stem(self, word: str) -> str:
        """Stem one lower-case alphabetic token; short tokens pass through."""
        if len(word) <= 2:
            return word
        memo = self._memo
        stemmed = memo.get(word)
        if stemmed is None:
            if len(memo) >= _MEMO_TOKENS:
                memo.clear()
            stemmed = memo[word] = self._porter(word)
        return stemmed

    def _porter(self, word: str) -> str:
        """The five steps, un-memoised."""
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    @staticmethod
    def _replace(word: str, suffix: str, replacement: str) -> str:
        return word[: len(word) - len(suffix)] + replacement

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return self._replace(word, "sses", "ss")
        if word.endswith("ies"):
            return self._replace(word, "ies", "i")
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if _measure(stem) > 0:
                return stem + "ee"
            return word
        done = False
        if word.endswith("ed"):
            stem = word[:-2]
            if _contains_vowel(stem):
                word, done = stem, True
        elif word.endswith("ing"):
            stem = word[:-3]
            if _contains_vowel(stem):
                word, done = stem, True
        if done:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
                return word[:-1]
            if _measure(word) == 1 and _ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and _contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP3_SUFFIXES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if _measure(stem) > 1:
                    return stem
                return word
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and _measure(stem) > 1:
                return stem
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = _measure(stem)
            if m > 1 or (m == 1 and not _ends_cvc(stem)):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if word.endswith("ll") and _measure(word) > 1:
            return word[:-1]
        return word

"""Text pipeline: tokenisation, stemming and TF-IDF weighting."""

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.tokenizer import Tokenizer, TokenizerConfig
from repro.text.vectorizer import TfidfVectorizer
from repro.text.vocabulary import Vocabulary

__all__ = [
    "PorterStemmer",
    "STOPWORDS",
    "TfidfVectorizer",
    "Tokenizer",
    "TokenizerConfig",
    "Vocabulary",
    "is_stopword",
]

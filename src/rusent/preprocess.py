"""Five-step text cleanup: stop-word list, row extraction, lowercasing,
tokenization, stop-word removal."""

import string
from dataclasses import dataclass
from importlib import resources

from .corpus import Sentiment
from .exceptions import EmptyCorpusError, MalformedRowError

DEFAULT_STOPWORDS_RESOURCE = "stopwords_roman_urdu.txt"


@dataclass(frozen=True)
class StopWordList:
    """Deduplicated set of lowercase stop words."""

    words: frozenset

    def __contains__(self, token):
        return token in self.words

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(sorted(self.words))


@dataclass(frozen=True)
class TokenizedComment:
    """One preprocessed record: surviving tokens in original order."""

    row_id: int
    tokens: tuple
    label: Sentiment

    @property
    def text_final(self):
        return " ".join(self.tokens)

    @property
    def is_empty(self):
        return not self.tokens


def _parse_stopword_lines(lines, source):
    words = set()
    bad = []
    for ln, raw in enumerate(lines, start=1):
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        if any(ch.isspace() for ch in entry):
            bad.append((ln, f"entry contains whitespace: {raw.rstrip()!r}"))
            continue
        words.add(entry.lower())
    if bad:
        listing = "; ".join(f"line {ln}: {why}" for ln, why in bad)
        raise MalformedRowError(f"bad stop-word entries in {source} ({listing})", bad)
    return StopWordList(frozenset(words))


def load_stopwords(path):
    """Load a stop-word file: one word per line, '#' comments, blanks ignored."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"stop-word file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise MalformedRowError(f"{path}: {exc}") from None
    return _parse_stopword_lines(lines, path)


def default_stopwords():
    """The packaged Roman Urdu stop-word list."""
    text = (
        resources.files("rusent.data")
        .joinpath(DEFAULT_STOPWORDS_RESOURCE)
        .read_text(encoding="utf-8")
    )
    return _parse_stopword_lines(
        text.splitlines(), f"builtin:{DEFAULT_STOPWORDS_RESOURCE}"
    )


def lowercase(text):
    return text.lower()


def tokenize(text, strip_punct=False):
    """Split on whitespace runs; never emits empty tokens.

    With ``strip_punct``, leading/trailing ASCII punctuation is removed from
    each token and tokens reduced to nothing are dropped.
    """
    tokens = text.split()
    if strip_punct:
        tokens = [t.strip(string.punctuation) for t in tokens]
        tokens = [t for t in tokens if t]
    return tokens


def remove_stopwords(tokens, stopwords):
    return [t for t in tokens if t not in stopwords]


def preprocess_text(text, stopwords, strip_punct=False):
    """Lowercase, tokenize, and drop stop words from a single comment."""
    return remove_stopwords(tokenize(lowercase(text), strip_punct), stopwords)


def preprocess_corpus(corpus, stopwords, strip_punct=False):
    """Preprocess every record, preserving count, order, and labels.

    Records whose token list ends up empty are kept (their ``is_empty``
    flag is set); dropping them would change test-set sizes downstream.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("preprocess_corpus of an empty corpus")
    return [
        TokenizedComment(
            r.row_id, tuple(preprocess_text(r.text, stopwords, strip_punct)), r.label
        )
        for r in corpus
    ]

"""Labeled comment corpus: CSV ingestion, label distribution, splits and folds."""

import math
from enum import IntEnum
from typing import NamedTuple

from .artifacts import csv_rows
from .exceptions import EmptyCorpusError, MalformedRowError


class Sentiment(IntEnum):
    """Ternary sentiment label with stable integer codes used as matrix indices."""

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @classmethod
    def parse(cls, label):
        """Parse a label string case-insensitively; anything else is an error."""
        key = label.strip().lower()
        try:
            return _LABELS[key]
        except KeyError:
            raise ValueError(f"unknown sentiment label {label!r}") from None

    @property
    def label(self):
        return self.name.lower()


_LABELS = {s.name.lower(): s for s in Sentiment}

LABEL_NAMES = tuple(s.label for s in Sentiment)


class LabeledComment(NamedTuple):
    text: str
    label: Sentiment
    row_id: int


class SplitResult(NamedTuple):
    """One (train, test) pair of a split or a fold."""

    train: tuple
    test: tuple


def _parse_row(row):
    """The (text, label) of a dataset row, or why the row is not a data row."""
    if len(row) < 2:
        return "expected at least 2 fields"
    if not row[0].strip():
        return "empty comment text"
    try:
        return row[0].strip(), Sentiment.parse(row[1])
    except ValueError as exc:
        return str(exc)


def load_csv(path, *, dedup=True, skip_bad_rows=False):
    """Load a comment,sentiment[,ignored] CSV file into a tuple of LabeledComment.

    Each data row needs at least two fields: the comment text and a
    sentiment label. Any further fields are discarded. Line 1 is a header,
    and skipped, exactly when it is not a valid data row; row ids count
    the data rows from 0. Rows with empty text or an unparseable label
    abort the load with their line numbers unless ``skip_bad_rows`` is
    set; a row that is not valid CSV always does. With ``dedup``, repeats
    of an exact (text, label) pair are dropped.
    """
    records = []
    bad_rows = []
    seen = set()
    rows = ((line, _parse_row(row)) for line, row in csv_rows(path, has_header=False))
    data_rows = ((line, parsed) for line, parsed in rows
                 if line != 1 or not isinstance(parsed, str))
    for row_id, (line, parsed) in enumerate(data_rows):
        if isinstance(parsed, str):
            bad_rows.append((line, parsed))
            continue
        if dedup:
            if parsed in seen:
                continue
            seen.add(parsed)
        records.append(LabeledComment(*parsed, row_id))
    if bad_rows and not skip_bad_rows:
        listing = "; ".join(f"line {ln}: {why}" for ln, why in bad_rows)
        raise MalformedRowError(
            f"{len(bad_rows)} malformed row(s) in {path} ({listing})", bad_rows
        )
    if not records:
        raise EmptyCorpusError(f"no valid records in {path}")
    return tuple(records)


def label_distribution(corpus):
    """Per-class record counts and fractions; counts sum to ``len(corpus)``."""
    if len(corpus) == 0:
        raise EmptyCorpusError("label_distribution of an empty corpus")
    counts = [0] * len(Sentiment)
    for r in corpus:
        counts[r.label] += 1
    n = len(corpus)
    return {s: {"count": counts[s], "fraction": counts[s] / n} for s in Sentiment}


def _train_size(train_ratio, n):
    # Exact rational floor: float multiplication could land on the wrong
    # side of an integer boundary.
    from fractions import Fraction  # here, so that only a split loads it

    return int(math.floor(Fraction(train_ratio) * n))


def split(corpus, train_ratio, seed):
    """Seeded shuffle-and-cut split; train gets floor(train_ratio * n) records."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError(f"train_ratio must be in (0, 1), got {train_ratio}")
    n = len(corpus)
    if n < 2:
        raise EmptyCorpusError(f"corpus too small to split ({n} records)")
    import numpy as np  # here, so that a stage that splits nothing never loads it

    order = np.random.default_rng(seed).permutation(n)
    cut = _train_size(train_ratio, n)
    return SplitResult(tuple(corpus[i] for i in order[:cut]),
                       tuple(corpus[i] for i in order[cut:]))


def kfold(corpus, k, seed):
    """Seeded k-fold partition: k SplitResult pairs whose test folds
    are disjoint, cover the corpus, and differ in size by at most one
    (the first ``n mod k`` folds carry the extra record)."""
    n = len(corpus)
    if not 2 <= k <= n:
        raise ValueError(f"folds must be in [2, {n}], got {k}")
    import numpy as np

    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    trains = (np.concatenate(folds[:f] + folds[f + 1:]) for f in range(k))
    return [SplitResult(tuple(corpus[i] for i in train), tuple(corpus[i] for i in test))
            for train, test in zip(trains, folds)]

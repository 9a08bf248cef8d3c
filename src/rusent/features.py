"""Unigram TF-IDF features over pre-tokenized documents.

The weighting is raw in-document term count times a smoothed inverse
document frequency, ln((1 + N) / (1 + df)) + 1, with each document vector
l2-normalized afterwards (all-zero vectors stay zero). When the number of
distinct terms exceeds ``max_features``, the terms with the highest total
corpus frequency are kept, ties broken lexicographically ascending.
"""

import copy
from itertools import chain, repeat

import numpy as np

from .artifacts import INTS, TERMS, from_payload, read_json, to_payload, write_csv, write_json
from .base import BaseEstimator, CSRMatrix, check_is_fitted
from .models import AT_LEAST_ONE, MAX_FEATURES


class TermCounts:
    """How often each of the sorted ``terms`` (by default every token) occurs in
    each of ``docs``, which ``fit`` and ``transform`` take in their place: a
    term's id is its rank, and row i of the CSR arrays ``indptr``, ``ids`` and
    ``counts`` holds document i's term ids, ascending, and their counts."""

    def __init__(self, docs, terms=None):
        tokens = [getattr(doc, "tokens", doc) for doc in docs]
        if any(isinstance(sequence, str) for sequence in tokens):
            raise TypeError("documents must be token sequences, not raw strings")
        self.terms = sorted(set().union(*tokens)) if terms is None else terms
        index = dict(zip(self.terms, range(len(self.terms))))
        lengths = list(map(len, tokens))
        ids = np.fromiter(map(index.get, chain.from_iterable(tokens), repeat(-1)), np.int64)
        known, width = ids >= 0, max(len(self.terms), 1)
        rows = np.repeat(np.arange(len(tokens)), lengths)[known] * width
        cells, self.counts = np.unique(rows + ids[known], return_counts=True)
        rows, self.ids = np.divmod(cells, width)
        self.indptr = np.searchsorted(rows, np.arange(len(tokens) + 1))

    def take(self, rows):
        """The counts of the documents at ``rows``, in that order."""
        part, lengths = copy.copy(self), np.diff(self.indptr)[rows]
        part.indptr = np.concatenate(([0], np.cumsum(lengths)))
        at = np.repeat(self.indptr[rows] - part.indptr[:-1], lengths) + np.arange(part.indptr[-1])
        part.ids, part.counts = self.ids[at], self.counts[at]
        return part


class TfidfVectorizer(BaseEstimator):
    """Fit a capped vocabulary with idf weights; transform docs to sparse rows.

    Fitted attributes: ``terms_`` (the retained terms, sorted),
    ``document_frequency_``, ``n_documents_`` and ``n_features_``, which
    ``save_tfidf`` stores; ``vocabulary_`` (term -> dense index) and
    ``idf_``, derived from them; and ``feature_counts_`` (total corpus count
    per retained term, None after loading).
    """

    kind = "tfidf"
    hyperparameters = {"max_features": (MAX_FEATURES, AT_LEAST_ONE)}
    fitted = (
        ("terms", "terms_", TERMS, ("dimension",)),
        ("df", "document_frequency_", INTS, ("dimension",)),
        ("N", "n_documents_", INTS, ()),
    )
    feature_counts_ = None

    def fit(self, docs, y=None):
        self.check_params(self.get_params())
        counts = docs if isinstance(docs, TermCounts) else TermCounts(docs)
        if counts.indptr.size == 1:
            raise ValueError("cannot fit on an empty document sequence")
        df = np.bincount(counts.ids, minlength=len(counts.terms))
        totals = np.bincount(counts.ids, counts.counts, df.size).astype(np.int64)  # exact sums
        seen = np.flatnonzero(df)
        if not seen.size:
            raise ValueError("no terms: every document is empty")
        # ids follow the sorted terms: (-total, id) is the (-total, term) order
        kept = np.sort(seen[np.lexsort((seen, -totals[seen]))][: self.max_features])
        self.terms_ = [counts.terms[i] for i in kept.tolist()]
        self.document_frequency_ = df[kept]
        self.feature_counts_ = totals[kept]
        self.n_documents_ = counts.indptr.size - 1
        self._check_fitted()
        self.n_features_ = len(self.terms_)
        return self

    def _check_fitted(self):
        """Derive ``vocabulary_`` and ``idf_``; raise ValueError unless, as after any
        fit, 1..max_features terms are sorted and each is in 1..N >= 1 documents."""
        n, df, terms = self.n_documents_, self.document_frequency_, self.terms_
        if not 1 <= len(terms) <= self.max_features or list(terms) != sorted(terms):
            raise ValueError(f"parameters.terms: expected 1 to {self.max_features} sorted terms")
        if n < 1:
            raise ValueError(f"parameters.N: expected an integer >= 1, got {n}")
        if np.any((df < 1) | (df > n)):
            raise ValueError(f"parameters.df: expected document counts in [1, N = {n}]")
        self.vocabulary_ = {t: i for i, t in enumerate(self.terms_)}
        self.idf_ = np.log((1.0 + n) / (1.0 + df)) + 1.0

    def transform(self, docs):
        """A CSRMatrix whose row i is the l2-normalized tf-idf vector of docs[i];
        out-of-vocabulary tokens are ignored and fully out-of-vocabulary docs
        come out all-zero."""
        check_is_fitted(self)
        counts = docs if isinstance(docs, TermCounts) else TermCounts(docs, self.terms_)
        column = np.fromiter(map(self.vocabulary_.get, counts.terms, repeat(-1)), np.int64,
                             len(counts.terms))[counts.ids]  # -1 out of vocabulary
        known = column >= 0
        # the column ids of a row ascend, as its term ids and the sorted terms do
        cols, data = column[known], counts.counts[known] * self.idf_[column[known]]
        indptr = np.concatenate(([0], np.cumsum(known)))[counts.indptr]
        nnz = np.diff(indptr)
        # Each row's norm is np.sum over a contiguous run of its nnz values, as numpy
        # sums a 1-D row (pairwise from 8 values on), so rows are summed in blocks of
        # equal nnz. A nonempty row has a norm >= 1: every count and idf is >= 1.
        norms = np.zeros(nnz.size)
        for length in np.unique(nnz[nnz > 0]):
            same = np.flatnonzero(nnz == length)
            block = data[indptr[same, None] + np.arange(length)]
            norms[same] = np.sqrt(np.sum(block * block, axis=1))
        return CSRMatrix(data / np.repeat(norms, nnz), cols, indptr, (nnz.size, self.n_features_))

    def fit_transform(self, docs, y=None):
        return self.fit(counts := TermCounts(docs)).transform(counts)


def save_tfidf(model, path):
    write_json(path, to_payload(model))


def load_tfidf(path):
    return read_json(path, lambda payload: from_payload(payload, {"tfidf": TfidfVectorizer}))


def write_word_frequencies(model, path):
    """Dump (term, total corpus count) for the retained vocabulary as CSV,
    most frequent first."""
    check_is_fitted(model)
    if model.feature_counts_ is None:
        raise ValueError("word frequencies unavailable on a deserialized model")
    rows = zip(model.terms_, model.feature_counts_.tolist())
    write_csv(path, ["term", "count"], sorted(rows, key=lambda row: (-row[1], row[0])))

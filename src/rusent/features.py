"""Unigram TF-IDF features over pre-tokenized documents.

The weighting is raw in-document term count times a smoothed inverse
document frequency, ln((1 + N) / (1 + df)) + 1, with each document vector
l2-normalized afterwards (all-zero vectors stay zero). When the number of
distinct terms exceeds ``max_features``, the terms with the highest total
corpus frequency are kept, ties broken lexicographically ascending.
"""

from collections import Counter
from itertools import repeat

import numpy as np

from .artifacts import INTS, TERMS, from_payload, read_json, to_payload, write_csv, write_json
from .base import AT_LEAST_ONE, BaseEstimator, check_is_fitted

DEFAULT_MAX_FEATURES = 3000


def _doc_tokens(doc):
    if isinstance(doc, str):
        raise TypeError("documents must be token sequences, not raw strings")
    return getattr(doc, "tokens", doc)


class TfidfVectorizer(BaseEstimator):
    """Fit a capped vocabulary with idf weights; transform docs to sparse rows.

    Fitted attributes: ``terms_`` (the retained terms, sorted),
    ``document_frequency_``, ``n_documents_`` and ``n_features_``, which
    ``save_tfidf`` stores; ``vocabulary_`` (term -> dense index) and
    ``idf_``, derived from them; and ``feature_counts_`` (total corpus count
    per retained term, None after loading).
    """

    kind = "tfidf"
    constraints = {"max_features": AT_LEAST_ONE}
    fitted = (
        ("terms", "terms_", TERMS, ("dimension",)),
        ("df", "document_frequency_", INTS, ("dimension",)),
        ("N", "n_documents_", INTS, ()),
    )
    feature_counts_ = None

    def __init__(self, max_features=DEFAULT_MAX_FEATURES):
        self.max_features = max_features

    def fit(self, docs, y=None):
        self.check_params(self.get_params())
        docs = list(docs)
        if not docs:
            raise ValueError("cannot fit on an empty document sequence")
        df = Counter()
        totals = Counter()
        for doc in docs:
            tokens = _doc_tokens(doc)
            totals.update(tokens)
            df.update(set(tokens))
        if not totals:
            raise ValueError("no terms: every document is empty")
        retained = sorted(totals, key=lambda t: (-totals[t], t))[: self.max_features]
        self.terms_ = sorted(retained)
        self.document_frequency_ = np.array([df[t] for t in self.terms_], dtype=np.int64)
        self.feature_counts_ = np.array([totals[t] for t in self.terms_], dtype=np.int64)
        self.n_documents_ = len(docs)
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
        """Row i is the l2-normalized tf-idf vector of docs[i]; out-of-vocabulary
        tokens are ignored and fully out-of-vocabulary docs come out all-zero."""
        import scipy.sparse as sp  # here, so that a stage reading no matrix never loads it
        check_is_fitted(self)
        ids, lengths = [], []  # column id per token (-1 out of vocabulary), tokens per doc
        for doc in docs:
            before = len(ids)
            ids.extend(map(self.vocabulary_.get, _doc_tokens(doc), repeat(-1)))
            lengths.append(len(ids) - before)
        ids = np.array(ids, dtype=np.int64)
        known = ids >= 0
        rows = np.repeat(np.arange(len(lengths)), lengths)[known]
        width = self.n_features_
        cells, counts = np.unique(rows * width + ids[known], return_counts=True)
        rows, cols = np.divmod(cells, width)
        data = counts * self.idf_[cols]
        nnz = np.bincount(rows, minlength=len(lengths))
        indptr = np.concatenate(([0], np.cumsum(nnz)))
        # Each row's norm is np.sum over a contiguous run of its nnz values, as numpy
        # sums a 1-D row (pairwise from 8 values on), so rows are summed in blocks of
        # equal nnz. A nonempty row has a norm >= 1: every count and idf is >= 1.
        norms = np.zeros(len(lengths))
        for length in np.unique(nnz[nnz > 0]):
            same = np.flatnonzero(nnz == length)
            block = data[indptr[same, None] + np.arange(length)]
            norms[same] = np.sqrt(np.sum(block * block, axis=1))
        return sp.csr_matrix(
            (data / np.repeat(norms, nnz), cols.astype(np.int32), indptr),
            shape=(len(lengths), width),
        )

    def fit_transform(self, docs, y=None):
        docs = list(docs)
        return self.fit(docs).transform(docs)


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

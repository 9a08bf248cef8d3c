"""Unigram TF-IDF features over pre-tokenized documents.

The weighting is raw in-document term count times a smoothed inverse
document frequency, ln((1 + N) / (1 + df)) + 1, with each document vector
l2-normalized afterwards (all-zero vectors stay zero). When the number of
distinct terms exceeds ``max_features``, the terms with the highest total
corpus frequency are kept, ties broken lexicographically ascending.
"""

from collections import Counter

import numpy as np
import scipy.sparse as sp

from .artifacts import FLOATS, INTS, decode_value, fields, read_json, write_csv, write_json
from .base import AT_LEAST_ONE, BaseEstimator, check_is_fitted
from .exceptions import ArtifactError

DEFAULT_MAX_FEATURES = 3000


def _doc_tokens(doc):
    if isinstance(doc, str):
        raise TypeError("documents must be token sequences, not raw strings")
    return getattr(doc, "tokens", doc)


class TfidfVectorizer(BaseEstimator):
    """Fit a capped vocabulary with idf weights; transform docs to sparse rows.

    Fitted attributes: ``vocabulary_`` (term -> dense index),
    ``document_frequency_``, ``idf_``, ``feature_counts_`` (total corpus
    count per retained term, None after deserialization), ``n_documents_``
    and ``n_features_``.
    """

    constraints = {"max_features": AT_LEAST_ONE}

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
        terms = sorted(retained)
        n = len(docs)
        self.vocabulary_ = {t: i for i, t in enumerate(terms)}
        self.document_frequency_ = np.array([df[t] for t in terms], dtype=np.int64)
        self.feature_counts_ = np.array([totals[t] for t in terms], dtype=np.int64)
        self.idf_ = np.log((1.0 + n) / (1.0 + self.document_frequency_)) + 1.0
        self.n_documents_ = n
        self.n_features_ = len(terms)
        return self

    def transform(self, docs):
        """Row i is the l2-normalized tf-idf vector of docs[i]; out-of-vocabulary
        tokens are ignored and fully out-of-vocabulary docs come out all-zero."""
        check_is_fitted(self, "vocabulary_")
        indptr = [0]
        indices = []
        data = []
        for doc in docs:
            counts = Counter(
                self.vocabulary_[t] for t in _doc_tokens(doc) if t in self.vocabulary_
            )
            cols = sorted(counts)
            row = np.array([counts[c] * self.idf_[c] for c in cols], dtype=np.float64)
            norm = np.sqrt(np.sum(row * row))
            if norm > 0.0:
                row /= norm
            indices.extend(cols)
            data.extend(row)
            indptr.append(len(indices))
        return sp.csr_matrix(
            (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32), indptr),
            shape=(len(indptr) - 1, self.n_features_),
        )

    def fit_transform(self, docs, y=None):
        docs = list(docs)
        return self.fit(docs).transform(docs)

    def to_dict(self):
        check_is_fitted(self, "vocabulary_")
        return {
            "terms": sorted(self.vocabulary_, key=self.vocabulary_.get),
            "df": self.document_frequency_.tolist(),
            "idf": self.idf_.tolist(),
            "N": self.n_documents_,
            "max_features": self.max_features,
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a ``to_dict`` payload; a ValueError names a missing or bad key."""
        terms, df, idf, n_documents, max_features = fields(
            payload, ("terms", "df", "idf", "N", "max_features")
        )
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ArtifactError("terms: expected a list of strings")
        sizes = {"terms": len(terms)}
        model = cls(max_features=decode_value("max_features", INTS, max_features, (), sizes))
        cls.check_params(model.get_params())  # the message starts with the key
        model.vocabulary_ = {t: i for i, t in enumerate(terms)}
        if len(model.vocabulary_) < len(terms):
            raise ArtifactError("terms: expected distinct terms")
        model.document_frequency_ = decode_value("df", INTS, df, ("terms",), sizes)
        model.idf_ = decode_value("idf", FLOATS, idf, ("terms",), sizes)
        model.feature_counts_ = None
        model.n_documents_ = n = decode_value("N", INTS, n_documents, (), sizes)
        if n < 1:  # fit saw N >= 1 documents, each term in 1..N of them
            raise ArtifactError(f"N: expected an integer >= 1, got {n}")
        if np.any((model.document_frequency_ < 1) | (model.document_frequency_ > n)):
            raise ArtifactError(f"df: expected document counts in [1, N = {n}]")
        model.n_features_ = len(terms)
        return model


def save_tfidf(model, path):
    write_json(path, model.to_dict())


def load_tfidf(path):
    return read_json(path, TfidfVectorizer.from_dict)


def write_word_frequencies(model, path):
    """Dump (term, total corpus count) for the retained vocabulary as CSV,
    most frequent first."""
    check_is_fitted(model, "vocabulary_")
    if model.feature_counts_ is None:
        raise ValueError("word frequencies unavailable on a deserialized model")
    terms = sorted(
        model.vocabulary_,
        key=lambda t: (-model.feature_counts_[model.vocabulary_[t]], t),
    )
    write_csv(path, ["term", "count"],
              ([t, int(model.feature_counts_[model.vocabulary_[t]])] for t in terms))

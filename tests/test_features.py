import json
import math
import os
import re
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from rusent import ClassifierSpec, TfidfVectorizer, evaluate_specs, load_tfidf, plan_splits, save_tfidf
from rusent import eval as evaluation
from rusent.corpus import Sentiment
from rusent.exceptions import NotFittedError
from rusent.features import TermCounts, write_word_frequencies
from rusent.preprocess import TokenizedComment

from conftest import random_tfidf_instance

# Hand-worked 3-document example: df = 2 for each of acha/bura/drama with
# N = 3, so idf = ln((1+3)/(1+2)) + 1 for all three terms.
IDF_EXPECTED = 1.2876820724517808
INV_SQRT2 = 0.7071067811865475


class TestFit:
    def test_worked_example(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        assert vec.n_features_ == 3
        assert set(vec.vocabulary_) == {"acha", "bura", "drama"}
        assert vec.document_frequency_.tolist() == [2, 2, 2]
        np.testing.assert_allclose(vec.idf_, IDF_EXPECTED, atol=1e-9)
        assert vec.n_documents_ == 3

    def test_max_features_keeps_highest_total_frequency(self, toy_docs):
        # totals: acha 3, bura 3, drama 2 (hand count)
        vec = TfidfVectorizer(max_features=2).fit(toy_docs)
        assert set(vec.vocabulary_) == {"acha", "bura"}

    def test_tie_break_is_lexicographic(self):
        docs = [["zee", "aab"], ["zee"], ["aab"], ["meem"]]
        # totals: zee 2, aab 2, meem 1; cap 1 keeps "aab" (tie zee/aab -> lexicographic)
        vec = TfidfVectorizer(max_features=1).fit(docs)
        assert set(vec.vocabulary_) == {"aab"}

    def test_indices_dense_and_deterministic(self, toy_docs):
        a = TfidfVectorizer().fit(toy_docs)
        b = TfidfVectorizer().fit(toy_docs)
        assert a.vocabulary_ == b.vocabulary_
        assert sorted(a.vocabulary_.values()) == list(range(a.n_features_))

    def test_all_empty_docs_raises(self):
        with pytest.raises(ValueError, match="no terms"):
            TfidfVectorizer().fit([[], [], []])

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TfidfVectorizer().fit([])

    @pytest.mark.parametrize("cap", [0, -1, None])
    def test_invalid_max_features(self, cap, toy_docs):
        with pytest.raises(ValueError):
            TfidfVectorizer(max_features=cap).fit(toy_docs)

    def test_accepts_tokenized_comments(self, toy_docs):
        docs = [TokenizedComment(i, tuple(d), 0) for i, d in enumerate(toy_docs)]
        vec = TfidfVectorizer().fit(docs)
        assert vec.n_features_ == 3

    def test_rejects_raw_strings(self):
        with pytest.raises(TypeError):
            TfidfVectorizer().fit(["acha drama"])

    def test_transform_rejects_raw_strings(self, toy_docs):
        with pytest.raises(TypeError, match="not raw strings"):
            TfidfVectorizer().fit(toy_docs).transform(["acha drama"])

    def test_idf_monotone_in_df(self):
        docs = [["rare", "common"], ["common"], ["common", "mid"], ["mid"]]
        vec = TfidfVectorizer().fit(docs)
        idf = {t: vec.idf_[i] for t, i in vec.vocabulary_.items()}
        # df: common 3, mid 2, rare 1
        assert idf["rare"] > idf["mid"] > idf["common"]


class TestTransform:
    def test_worked_example_weights(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        row = vec.transform([toy_docs[0]]).toarray()[0]
        acha, drama = vec.vocabulary_["acha"], vec.vocabulary_["drama"]
        assert row[acha] == pytest.approx(INV_SQRT2, abs=1e-9)
        assert row[drama] == pytest.approx(INV_SQRT2, abs=1e-9)
        assert row[vec.vocabulary_["bura"]] == 0.0

    def test_out_of_vocabulary_ignored(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        row = vec.transform([["unseen", "words"]]).toarray()[0]
        assert np.all(row == 0.0)

    def test_empty_doc_is_zero_vector(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        assert vec.transform([[]]).nnz == 0

    def test_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            TfidfVectorizer().transform([["acha"]])
        with pytest.raises(NotFittedError):
            save_tfidf(TfidfVectorizer(), tmp_path / "tfidf.json")

    def test_rows_unit_norm_or_zero(self):
        rng = np.random.default_rng(3)
        terms = [f"t{i}" for i in range(30)]
        docs = [list(rng.choice(terms, size=int(rng.integers(1, 9)))) for _ in range(60)]
        docs.append([])
        vec = TfidfVectorizer(max_features=20).fit(docs)
        X = vec.transform(docs)
        norms = np.sqrt((X.toarray() ** 2).sum(axis=1))
        for norm in norms:
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_counts_scale_weights(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        row = vec.transform([["acha", "acha", "bura"]]).toarray()[0]
        acha, bura = vec.vocabulary_["acha"], vec.vocabulary_["bura"]
        # raw weights 2*idf and 1*idf -> normalized (2, 1)/sqrt(5)
        assert row[acha] == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-9)
        assert row[bura] == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-9)

    def test_batch_matches_doc_order(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        X = vec.transform(toy_docs)
        assert X.shape == (3, 3)
        for i, doc in enumerate(toy_docs):
            np.testing.assert_array_equal(
                X.toarray()[i : i + 1], vec.transform([doc]).toarray()
            )

    def test_empty_sequence_keeps_dimension(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        X = vec.transform([])
        assert X.shape == (0, 3)

    def test_transform_does_not_touch_vocabulary(self, toy_docs):
        vec = TfidfVectorizer().fit(toy_docs)
        before = dict(vec.vocabulary_)
        vec.transform([["new", "tokens", "acha"]])
        assert vec.vocabulary_ == before

    def test_indices_sorted_strictly_increasing(self):
        X, _ = random_tfidf_instance(11, n_docs=20, vocab_size=12, doc_len=6)
        for i in range(X.shape[0]):
            idx = X.indices[X.indptr[i] : X.indptr[i + 1]]
            assert np.all(np.diff(idx) > 0)


def per_document_transform(vec, docs):
    """The per-document loop that ``transform`` replaced: one Counter, one sorted
    column list and one np.sum norm per document. The reference it must equal."""
    indptr, indices, data = [0], [], []
    for doc in docs:
        counts = Counter(vec.vocabulary_[t] for t in doc if t in vec.vocabulary_)
        cols = sorted(counts)
        row = np.array([counts[c] * vec.idf_[c] for c in cols], dtype=np.float64)
        norm = np.sqrt(np.sum(row * row))
        if norm > 0.0:
            row /= norm
        indices.extend(cols)
        data.extend(row)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32), indptr),
        shape=(len(indptr) - 1, vec.n_features_),
    )


# Distinct in-vocabulary terms per row, across numpy's pairwise-sum boundaries:
# a plain loop below 8 values, 8-way unrolled blocks up to 128, recursive halves above.
ORACLE_DISTINCT = [*range(1, 140), 200, 255, 256, 257, 300, 511]


def oracle_corpus(seed):
    """A vectorizer fitted on 300 random documents over 600 terms (so the idf
    varies), and a shuffled batch of three documents per ORACLE_DISTINCT count,
    each term repeated 1-3 times among out-of-vocabulary tokens, plus empty and
    fully out-of-vocabulary documents."""
    rng = np.random.default_rng(seed)
    terms = [f"w{i}" for i in range(600)]
    fit_docs = [rng.choice(terms, size=int(rng.integers(1, 40))).tolist() for _ in range(300)]
    vec = TfidfVectorizer().fit(fit_docs)
    docs = [[], [], ["unseen"], ["unseen", "unseen", "never"]]
    for distinct in ORACLE_DISTINCT * 3:
        chosen = rng.choice(vec.terms_, size=distinct, replace=False)
        tokens = np.repeat(chosen, rng.integers(1, 4, size=distinct)).tolist()
        tokens += ["unseen"] * int(rng.integers(0, 3))
        docs.append([tokens[i] for i in rng.permutation(len(tokens))])
    return vec, [docs[i] for i in rng.permutation(len(docs))]


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestTransformOracle:
    """``transform`` equals the per-document loop bit for bit: same data bytes,
    indices, indptr and index dtypes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_document_loop(self, seed):
        vec, docs = oracle_corpus(seed)
        assert_same_csr(vec.transform(docs), per_document_transform(vec, docs))

    def test_generator_input(self):
        vec, docs = oracle_corpus(4)
        got = vec.transform(TokenizedComment(i, tuple(d), 0) for i, d in enumerate(docs))
        assert_same_csr(got, per_document_transform(vec, docs))

    @pytest.mark.parametrize("docs", [[], [[]], [["unseen"]], [[], ["unseen"], []]],
                             ids=["no-documents", "empty", "out-of-vocabulary", "all-zero"])
    def test_batches_without_terms(self, toy_docs, docs):
        vec = TfidfVectorizer().fit(toy_docs)
        assert_same_csr(vec.transform(docs), per_document_transform(vec, docs))


def per_document_fit(docs, max_features=3000):
    """The Counter loop that ``fit`` replaced: each document's tokens added to
    the corpus totals and, as a set, to the document frequencies; the cap keeps
    the highest totals, ties to the lexicographically first term. Returns a
    stand-in with the attributes ``fit`` sets, the ones
    ``per_document_transform`` reads among them."""
    docs = [getattr(doc, "tokens", doc) for doc in docs]
    if not docs:
        raise ValueError("cannot fit on an empty document sequence")
    df, totals = Counter(), Counter()
    for tokens in docs:
        totals.update(tokens)
        df.update(set(tokens))
    if not totals:
        raise ValueError("no terms: every document is empty")
    terms = sorted(sorted(totals, key=lambda t: (-totals[t], t))[:max_features])
    document_frequency = np.array([df[t] for t in terms], dtype=np.int64)
    n = len(docs)
    return SimpleNamespace(
        terms_=terms, document_frequency_=document_frequency,
        feature_counts_=np.array([totals[t] for t in terms], dtype=np.int64),
        n_documents_=n, n_features_=len(terms), vocabulary_={t: i for i, t in enumerate(terms)},
        idf_=np.log((1.0 + n) / (1.0 + document_frequency)) + 1.0)


def assert_same_fit(vec, reference):
    assert vec.terms_ == reference.terms_
    for name in ("document_frequency_", "feature_counts_"):
        got, expected = getattr(vec, name), getattr(reference, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert vec.n_documents_ == reference.n_documents_


def tied_corpus(seed):
    """(documents, cap): 150 random documents, a tenth of them empty, over 200
    terms whose names sort in another order than their frequencies, and a cap
    that cuts through a run of terms tied on their total count."""
    rng = np.random.default_rng(seed)
    terms = [f"w{i}" for i in rng.permutation(200)]
    weights = 1.0 / np.arange(1, 201)
    docs = [rng.choice(terms, size=int(rng.integers(1, 12)), p=weights / weights.sum()).tolist()
            if i % 10 else [] for i in range(150)]
    totals = sorted(Counter(chain.from_iterable(docs)).values(), reverse=True)
    cap = next(k for k in range(len(totals) // 3, len(totals)) if totals[k - 1] == totals[k])
    return docs, cap


class TestFitOracle:
    """``fit`` equals the per-document Counter loop: the same terms, document
    frequencies, total counts and document count, and the same refusals."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_counter_loop_with_ties_at_the_cap(self, seed):
        docs, cap = tied_corpus(seed)
        assert_same_fit(TfidfVectorizer(max_features=cap).fit(docs), per_document_fit(docs, cap))

    def test_matches_counter_loop_uncapped(self):
        docs, _ = tied_corpus(4)
        assert_same_fit(TfidfVectorizer().fit(docs), per_document_fit(docs))

    @pytest.mark.parametrize("docs", [[], [[]], [[], [], []]],
                             ids=["no-documents", "one-empty", "all-empty"])
    def test_refusals(self, docs):
        with pytest.raises(ValueError) as expected:
            per_document_fit(docs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            TfidfVectorizer().fit(docs)

    def test_selected_counts_fit_and_transform_as_their_documents(self):
        # rows of the counts of more documents, in another order and with repeats
        docs, cap = tied_corpus(5)
        rows = [*range(100, -1, -3), *range(5)]
        chosen, part = [docs[i] for i in rows], TermCounts(docs).take(rows)
        vec = TfidfVectorizer(max_features=cap).fit(part)
        reference = per_document_fit(chosen, cap)
        assert_same_fit(vec, reference)
        assert_same_csr(vec.transform(part), per_document_transform(reference, chosen))


def split_docs(seed, n=90):
    """Labelled documents over 60 terms, some empty, each other one with a term
    of its own: every test side holds terms that no training document does."""
    rng = np.random.default_rng(seed)
    terms = [f"w{i}" for i in rng.permutation(60)]
    return [TokenizedComment(i, () if i % 11 == 0 else tuple(
                rng.choice(terms, size=int(rng.integers(0, 8))).tolist()) + (f"solo{i}",),
             Sentiment(i % 3)) for i in range(n)]


class TestSplitFeatures:
    """Each split's matrices, built by ``evaluate_specs`` from one count of the
    plan's documents, are the per-document reference's, byte for byte."""

    CAP = 50  # below the number of distinct terms: the cap's tie-break is at work

    @pytest.mark.parametrize("protocol, fit_on_all", [
        ("repeated", False), ("kfold", False), ("kfold", True),
    ], ids=["repeated", "3-fold", "fit-on-all"])
    def test_cells_get_the_per_document_matrices(self, monkeypatch, protocol, fit_on_all):
        docs = split_docs(1)
        plan = plan_splits(docs, protocol, 7, runs=3, folds=3)
        fitted, handed = [], []  # the vectorizer and (X_train, X_test) of each split
        fit_vocabulary, fit_predict = evaluation.fit_vocabulary, evaluation._fit_predict
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(evaluation, "fit_vocabulary", lambda part, **options: fitted.append(
            fit_vocabulary(part, **options)) or fitted[-1])
        monkeypatch.setattr(evaluation, "_fit_predict",
                            lambda cell: handed.append(cell[1::2]) or fit_predict(cell))
        evaluate_specs([ClassifierSpec("knn", {"k": 1})], plan, fit_on_all=fit_on_all,
                       max_features=self.CAP)
        assert len(fitted) == len(handed) == len(plan) == 3
        for part, vec, (X_train, X_test) in zip(plan, fitted, handed):
            reference = per_document_fit(part.train + part.test if fit_on_all else part.train,
                                         self.CAP)
            assert_same_fit(vec, reference)
            for X, side in ((X_train, part.train), (X_test, part.test)):
                assert_same_csr(X, per_document_transform(reference, [d.tokens for d in side]))
            test_only = ({t for d in part.test for t in d.tokens}
                         - {t for d in part.train for t in d.tokens})
            assert test_only
            if not fit_on_all:
                assert not test_only & set(vec.terms_)


class TestSerialization:
    def test_round_trip_schema_and_behavior(self, toy_docs, tmp_path):
        vec = TfidfVectorizer().fit(toy_docs)
        path = tmp_path / "tfidf.json"
        save_tfidf(vec, path)
        payload = json.loads(path.read_text())
        assert payload == {
            "kind": "tfidf",
            "hyperparams": {"max_features": 3000},
            "dimension": 3,
            "parameters": {"terms": ["acha", "bura", "drama"], "df": [2, 2, 2], "N": 3},
        }
        loaded = load_tfidf(path)
        probe = [["acha", "drama", "acha"], ["bura"], []]
        np.testing.assert_array_equal(
            loaded.transform(probe).toarray(), vec.transform(probe).toarray()
        )
        again = tmp_path / "again.json"
        save_tfidf(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_word_frequency_dump(self, toy_docs, tmp_path):
        vec = TfidfVectorizer().fit(toy_docs)
        path = tmp_path / "freq.csv"
        write_word_frequencies(vec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "term,count"
        assert lines[1:] == ["acha,3", "bura,3", "drama,2"]

    def test_word_frequencies_of_a_loaded_vectorizer_refused(self, toy_docs, tmp_path):
        # a tfidf.json keeps document frequencies, not the corpus counts the dump lists
        save_tfidf(TfidfVectorizer().fit(toy_docs), tmp_path / "tfidf.json")
        with pytest.raises(ValueError, match="^word frequencies unavailable on a deserialized "
                                             "model$"):
            write_word_frequencies(load_tfidf(tmp_path / "tfidf.json"), tmp_path / "freq.csv")
        assert not (tmp_path / "freq.csv").exists()

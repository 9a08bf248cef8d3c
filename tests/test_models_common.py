import ast
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special as special
from scipy.sparse import _sparsetools

import rusent

from rusent import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    TfidfVectorizer,
    load_model,
    load_tfidf,
    make_classifier,
    save_model,
    save_tfidf,
)
from rusent.artifacts import from_payload, to_payload
from rusent.base import (CSRMatrix, check_feature_matrix, cross_entropy_rows, softmax,
                         softmax_cross_entropy, sparse_kernels)
from rusent.exceptions import DivergedError, NotFittedError
from rusent.models import classifier_class
from rusent.models.knn import chunk_dots

from conftest import (INPUT_FORMS, count_instance, random_tfidf_instance,
                      unsorted_with_duplicates, write_rows)

FAST_PARAMS = {
    "naive_bayes": {"allow_missing_class": True},
    "logistic_regression": {"epochs": 20},
    "linear_svm": {"epochs": 20},
    "knn": {"k": 3},
    "mlp": {"hidden_units": 4, "epochs": 5},
}


def fitted_model(kind, seed=0, labels=(0, 1, 2) * 6):
    X, _ = random_tfidf_instance(17, n_docs=18, vocab_size=7, doc_len=5)
    y = np.array(labels)
    model = make_classifier(ClassifierSpec(kind, FAST_PARAMS[kind]), seed=seed)
    return model.fit(X, y), X, y


class TestRegistry:
    def test_kinds_complete(self):
        assert set(CLASSIFIER_KINDS) == {
            "naive_bayes",
            "logistic_regression",
            "linear_svm",
            "knn",
            "mlp",
        }

    def test_each_kind_names_its_class(self):
        # the kinds are listed without importing the estimator modules
        assert [classifier_class(kind).kind for kind in CLASSIFIER_KINDS] == list(CLASSIFIER_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            ClassifierSpec("decision_tree")

    def test_unknown_kind_rejected_by_replace(self):
        spec = ClassifierSpec("knn", {"k": 3})
        assert spec._replace(hyperparams={"k": 5}) == ClassifierSpec("knn", {"k": 5})
        with pytest.raises(ValueError, match="unknown classifier kind"):
            spec._replace(kind="decision_tree")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            make_classifier(ClassifierSpec("knn", {"neighbors": 3}))

    def test_explicit_seed_param_wins(self):
        model = make_classifier(ClassifierSpec("mlp", {"seed": 7}), seed=2)
        assert model.seed == 7

    def test_repr_lists_every_hyperparameter_in_signature_order(self):
        model = make_classifier(ClassifierSpec("mlp", {"seed": 7, "lr": 0.5}))
        assert repr(model) == ("MLPClassifier(hidden_units=100, lr=0.5, epochs=50, "
                               "batch_size=32, seed=7)")

    @pytest.mark.parametrize("kind", [*CLASSIFIER_KINDS, "tfidf"])
    def test_constructor_stores_keywords_verbatim_and_takes_no_other(self, kind):
        cls = TfidfVectorizer if kind == "tfidf" else classifier_class(kind)
        given = FAST_PARAMS.get(kind, {"max_features": 50})
        model = cls(**given)
        assert all(model.get_params()[name] is value for name, value in given.items())
        # what sklearn.base.clone checks: the params rebuild the model, value for value
        params = model.get_params()
        rebuilt = type(model)(**params)
        assert rebuilt.get_params() == params
        assert all(rebuilt.get_params()[name] is value for name, value in params.items())
        cls.check_params(cls().get_params())  # every default passes its own rule
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**params, bogus=1)
        with pytest.raises(TypeError, match="positional argument"):
            cls(*params.values())


class TestUniformSurface:
    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_scores_shape_and_predict_consistency(self, kind):
        model, X, y = fitted_model(kind)
        scores = model.decision_scores(X)
        assert scores.shape == (X.shape[0], 3)
        preds = model.predict(X)
        assert preds.shape == (X.shape[0],)
        assert set(np.unique(preds)) <= {0, 1, 2}
        if kind != "knn":  # knn's documented vote-tie rule may diverge
            np.testing.assert_array_equal(preds, np.argmax(scores, axis=1))

    @pytest.mark.parametrize("kind", ["naive_bayes", "logistic_regression", "mlp"])
    def test_probabilistic_scores_sum_to_one(self, kind):
        model, X, _ = fitted_model(kind)
        scores = model.decision_scores(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores >= 0.0)

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_dimension_mismatch_rejected(self, kind):
        model, X, _ = fitted_model(kind)
        wrong = sp.csr_matrix((2, X.shape[1] + 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.predict(wrong)

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_unfitted_raises(self, kind, tmp_path):
        model = classifier_class(kind)()
        with pytest.raises(NotFittedError):
            model.predict(sp.csr_matrix((1, 3)))
        with pytest.raises(NotFittedError):
            save_model(model, tmp_path / "model.json")

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_zero_vector_is_legal(self, kind):
        model, X, _ = fitted_model(kind)
        zero = sp.csr_matrix((1, X.shape[1]))
        pred = model.predict(zero)
        assert pred[0] in (0, 1, 2)

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    @pytest.mark.parametrize("labels", [[0.9, 1.9, 2.9] * 6, [0, 1, 2.5] * 6, [0, 1, 3] * 6])
    def test_label_that_is_not_a_class_code_rejected(self, kind, labels):
        X, _ = random_tfidf_instance(17, n_docs=18, vocab_size=7, doc_len=5)
        model = make_classifier(ClassifierSpec(kind, FAST_PARAMS[kind]), seed=0)
        with pytest.raises(ValueError, match=r"labels must be class codes in \[0, 3\)"):
            model.fit(X, labels)
        with pytest.raises(NotFittedError):
            model.predict(X)

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    @pytest.mark.parametrize("rows, n_labels, message", [
        (18, 17, "label count 17 does not match row count 18"),
        (0, 0, "cannot fit on an empty feature matrix"),
    ], ids=["label-count", "no-rows"])
    def test_training_set_of_the_wrong_size_rejected(self, kind, rows, n_labels, message):
        X, _ = random_tfidf_instance(17, n_docs=18, vocab_size=7, doc_len=5)
        model = make_classifier(ClassifierSpec(kind, FAST_PARAMS[kind]), seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            model.fit(X[:rows], ([0, 1, 2] * 6)[:n_labels])
        with pytest.raises(NotFittedError):
            model.predict(X)

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_non_finite_feature_rejected(self, kind):
        model, X, y = fitted_model(kind)
        bad = X.copy()
        bad.data[0] = np.nan
        fresh = make_classifier(ClassifierSpec(kind, FAST_PARAMS[kind]), seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            fresh.fit(bad, y)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(bad)

    def test_argmax_tie_breaks_to_lowest_code(self):
        model, X, _ = fitted_model("logistic_regression")
        model.coef_[:] = 0.0
        model.intercept_[:] = 0.0
        assert model.predict(X[0]).item() == 0


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
class TestFeatureMatrixInput:
    """Each estimator takes any scipy sparse matrix or 2-D array, and never
    rewrites the caller's arrays."""

    @staticmethod
    def fresh(kind):
        return make_classifier(ClassifierSpec(kind, FAST_PARAMS[kind]), seed=0)

    def test_caller_matrix_is_left_as_given(self, kind):
        A, y = count_instance()
        X = unsorted_with_duplicates(A)
        before = [X.data.copy(), X.indices.copy(), X.indptr.copy()]
        model = self.fresh(kind).fit(X, y)
        model.predict(X)
        model.decision_scores(X)
        for got, expected in zip((X.data, X.indices, X.indptr), before, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_model_keeps_no_alias_of_its_input(self, kind):
        A, y = count_instance()
        X = sp.csr_matrix(A.astype(np.float64))  # canonical, so it may be shared as given
        probe = X.copy()
        model = self.fresh(kind).fit(X, y)
        expected = model.predict(probe), model.decision_scores(probe)
        X.data[:] = X.data[::-1]
        X.indices[:] = 0
        np.testing.assert_array_equal(model.predict(probe), expected[0])
        np.testing.assert_array_equal(model.decision_scores(probe), expected[1])

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_every_input_form_predicts_as_canonical_csr(self, kind, form):
        A, y = count_instance()
        canonical = sp.csr_matrix(A.astype(np.float64))
        reference = self.fresh(kind).fit(canonical, y)
        model = self.fresh(kind).fit(INPUT_FORMS[form](A), y)
        for X in (INPUT_FORMS[form](A), canonical):
            np.testing.assert_array_equal(model.predict(X), reference.predict(canonical))
            np.testing.assert_array_equal(model.decision_scores(X),
                                          reference.decision_scores(canonical))

    @pytest.mark.parametrize("X, ndim", [(np.ones(7), 1), (1.0, 0), (np.ones((2, 3, 7)), 3)],
                             ids=["vector", "scalar", "3-D"])
    def test_input_that_is_not_2d_refused(self, kind, X, ndim):
        model, _, _ = fitted_model(kind)
        message = rf"^feature matrix must be 2-D, got {ndim}-D$"
        with pytest.raises(ValueError, match=message):
            self.fresh(kind).fit(X, [0])
        with pytest.raises(ValueError, match=message):
            model.predict(X)

    def test_unfitted_objects_are_not_saved(self, kind, tmp_path):
        path = tmp_path / "unfitted.json"
        with pytest.raises(NotFittedError):
            save_model(classifier_class(kind)(), path)
        with pytest.raises(NotFittedError):
            save_tfidf(TfidfVectorizer(), path)
        assert list(tmp_path.iterdir()) == []


def canonical_scipy(A):
    X = sp.csr_matrix(A.astype(np.float64))
    assert X.has_canonical_format
    return X


# case -> (data, indices, indptr, shape) a CSRMatrix refuses, and the start of its message
MALFORMED_CSR = {
    "unsorted": (([1.0, 2.0], [2, 0], [0, 2], (1, 3)), "the column indices of a row"),
    "duplicate": (([1.0, 2.0], [1, 1], [0, 2], (1, 3)), "the column indices of a row"),
    "indptr-decreasing": (([1.0, 2.0], [0, 1], [0, 2, 1, 2], (3, 3)), "indptr must start"),
    "indptr-not-from-0": (([1.0, 2.0], [0, 1], [1, 2], (1, 3)), "indptr must start"),
    "index-above-width": (([1.0, 2.0], [0, 3], [0, 2], (1, 3)), "a column index is outside"),
    "negative-index": (([1.0, 2.0], [-1, 1], [0, 2], (1, 3)), "a column index is outside"),
    "shape-rows": (([1.0, 2.0], [0, 1], [0, 2], (2, 3)), "indptr has 2 entries"),
    "short-data": (([1.0], [0, 1], [0, 2], (1, 3)), "indptr ends at 2"),
    "shape-of-three": (([1.0], [0], [0, 1], (1, 3, 1)), "shape must be two sizes"),
    "float-indices": (([1.0], [0.0], [0, 1], (1, 3)), "indices and indptr must be integers"),
}


def sparse_matrix(rows, cols, seed, index=np.int32, density=0.3):
    """A random CSRMatrix whose every 5th row and 4th column is empty, its
    index arrays set to ``index`` after the constructor chose int32."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
    dense[::5], dense[:, ::4] = 0.0, 0.0
    X = check_feature_matrix(dense)
    X.indices, X.indptr = X.indices.astype(index), X.indptr.astype(index)
    return X


# name -> the CSRMatrix on the left of @ (X.T's operands have X's row count)
PRODUCT_MATRICES = {
    "int32": lambda: sparse_matrix(23, 9, seed=1),
    "int64-indices": lambda: sparse_matrix(23, 9, seed=2, index=np.int64),
    "no-rows": lambda: sparse_matrix(0, 9, seed=3),
}
# name -> the dense operand of n rows
PRODUCT_OPERANDS = {
    "vector": lambda rng, n: rng.normal(size=n),
    "column": lambda rng, n: rng.normal(size=(n, 1)),
    "wide": lambda rng, n: rng.normal(size=(n, 6)),
    "F-ordered": lambda rng, n: np.asfortranarray(rng.normal(size=(n, 6))),
    "int": lambda rng, n: rng.integers(-9, 10, size=(n, 3)),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the _sparsetools loops called from here on, in order, whether
    through rusent's sparse_kernels() or scipy's own module."""
    calls = []

    def spy(name, loop):
        return lambda *args: (calls.append(name), loop(*args))[1]

    for module in {id(m): m for m in (sparse_kernels(), _sparsetools)}.values():
        for name in [n for n in dir(module) if not n.startswith("_")]:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


class TestCSRMatrix:
    """The package's own CSR record: scipy's canonical form in numpy alone."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["X", "X.T"])
    @pytest.mark.parametrize("operand", PRODUCT_OPERANDS)
    @pytest.mark.parametrize("matrix", PRODUCT_MATRICES)
    def test_products_are_scipys_by_its_loops(self, kernel_calls, matrix, operand, transposed):
        X = PRODUCT_MATRICES[matrix]()
        A = X.scipy()
        left, right = (X.T, A.T) if transposed else (X, A)
        dense = PRODUCT_OPERANDS[operand](np.random.default_rng(4), X.shape[not transposed])
        kernel_calls.clear()
        got = left @ dense
        ours = kernel_calls[:]
        kernel_calls.clear()
        want = right @ dense
        assert ours == kernel_calls and len(ours) == 1
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("left, shape", [
        ("X", ()), ("X", (7,)), ("X", (8, 2, 1)), ("X", (5, 2)),
        ("X.T", ()), ("X.T", (8,)), ("X.T", (5, 2, 1)), ("X.T", (8, 2))])
    def test_an_operand_of_another_shape_is_refused(self, left, shape):
        # X is 5 x 8: no loop reads past the end of an operand
        X = sparse_matrix(5, 8, seed=1)
        with pytest.raises(ValueError, match="^dimension mismatch"):
            (X.T if left == "X.T" else X) @ np.ones(shape)

    @pytest.mark.parametrize("case", ["chunks", "disjoint-columns", "int64-training",
                                      "int64-queries", "no-queries"])
    def test_knn_chunk_dots_are_scipys(self, case):
        # more than two chunks, the last one short; the disjoint case's every
        # chunk has no entry in its product (scipy's maxnnz-0 return)
        queries, train = sparse_matrix(1100, 30, seed=5), sparse_matrix(70, 30, seed=6)
        if case == "disjoint-columns":  # the training rows use only the queries' empty columns
            dense = np.zeros((70, 30))
            dense[:, ::4] = np.random.default_rng(7).normal(size=(70, 8))
            train = check_feature_matrix(dense)
        elif case.startswith("int64"):
            side = train if case == "int64-training" else queries
            side.indices, side.indptr = side.indices.astype(np.int64), side.indptr.astype(np.int64)
        elif case == "no-queries":
            queries = sparse_matrix(0, 30, seed=5)
        Q, T = queries.scipy(), train.scipy()
        want = [(start, (Q[start : start + 512] @ T.T).toarray())
                for start in range(0, Q.shape[0], 512)]
        if case == "disjoint-columns":
            assert all(not (Q[start : start + 512] @ T.T).nnz for start, _ in want)
        got = list(chunk_dots(queries, train))
        assert [start for start, _ in got] == [start for start, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_every_input_form_becomes_scipys_canonical_form(self, form):
        A, _ = count_instance()
        got, want = check_feature_matrix(INPUT_FORMS[form](A)), canonical_scipy(A)
        assert type(got) is CSRMatrix and got.shape == want.shape and got.nnz == want.nnz
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(got.toarray(), want.toarray())

    def test_a_record_passes_as_given(self):
        X = check_feature_matrix(canonical_scipy(count_instance()[0]))
        assert check_feature_matrix(X, X.shape[1]) is X

    @pytest.mark.parametrize("width", [4, 2**31 - 1, 2**31])  # int32 up to its maximum
    def test_index_dtype_is_scipys(self, width):
        X = CSRMatrix(np.zeros(1), np.array([width - 1]), np.array([0, 1]), (1, width))
        want = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        assert X.indices.dtype == X.indptr.dtype == want.indices.dtype == want.indptr.dtype

    @pytest.mark.parametrize("X", [
        *(CSRMatrix(np.ones(1), np.array([width - 1]), np.array([0, 1]), (1, width))
          for width in (4, 2**31 - 1, 2**31)),  # int32 up to its maximum, then int64
        CSRMatrix(np.zeros(0), np.zeros(0, int), np.zeros(1, int), (0, 4)),
        CSRMatrix([0.5, 2.0, 1.0], [1, 3, 0], [0, 0, 2, 2, 2, 3], (5, 4)),
    ], ids=["width-4", "width-2**31-1", "width-2**31", "no-rows", "empty-rows"])
    def test_scipy_wraps_the_same_arrays(self, X):
        wrapped = X.scipy()
        back = check_feature_matrix(wrapped)
        assert type(wrapped) is sp.csr_matrix and wrapped.shape == back.shape == X.shape
        for name in ("data", "indices", "indptr"):
            a, b, c = getattr(X, name), getattr(wrapped, name), getattr(back, name)
            assert a.dtype == b.dtype == c.dtype and np.array_equal(a, c), name
            assert not a.size or np.shares_memory(a, b), name  # an empty array shares no memory

    @pytest.mark.parametrize("case", MALFORMED_CSR)
    def test_malformed_arrays_refused(self, case):
        arrays, message = MALFORMED_CSR[case]
        data, indices, indptr, shape = arrays
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            CSRMatrix(np.array(data), np.array(indices), np.array(indptr), shape)


class TestDeterminism:
    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_identical_inputs_identical_parameters(self, kind):
        a, X, _ = fitted_model(kind, seed=5)
        b, _, _ = fitted_model(kind, seed=5)
        pa = to_payload(a)["parameters"]
        pb = to_payload(b)["parameters"]
        assert pa == pb


class TestSerialization:
    @pytest.mark.parametrize(
        "kind, labels, parent_keys",
        [(kind, (0, 1, 2) * 6, {}) for kind in CLASSIFIER_KINDS]
        + [("naive_bayes", (0, 1) * 9, {}),
           # model files of earlier releases also stored epochs_run
           ("logistic_regression", (0, 1, 2) * 6, {"epochs_run": 20}), ("tfidf", None, {})],
        ids=[*CLASSIFIER_KINDS, "naive_bayes-missing-class", "logistic_regression-epochs_run",
             "tfidf"],
    )
    def test_round_trip_identical_predictions(self, kind, labels, parent_keys, tmp_path):
        if kind == "tfidf":  # four terms, capped to three; the probe has an unseen one
            nul = "drama\x00"  # a trailing NUL, which numpy strings would drop
            docs = [["acha", nul], ["acha", "bura", "bura"], ["kamal", nul], ["bura"]]
            model = TfidfVectorizer(max_features=3).fit(docs)
            save, load = save_tfidf, load_tfidf
            outputs = lambda m: (m.transform(docs + [["naya", "acha"]]).toarray(), m.idf_)
        else:
            model, _, _ = fitted_model(kind, labels=labels)
            probe, _ = random_tfidf_instance(99, n_docs=10, vocab_size=7, doc_len=5)
            save, load = save_model, load_model
            outputs = lambda m: (m.predict(probe), m.decision_scores(probe))
            if kind == "naive_bayes":  # the derived state is rebuilt to the bit
                outputs = lambda m: (m.predict(probe), m.decision_scores(probe),
                                     m.class_log_prior_, m.feature_log_prob_)
        path = written = tmp_path / f"{kind}.json"
        save(model, path)
        if parent_keys:
            doc = json.loads(path.read_text())
            doc["parameters"].update(parent_keys)
            written = tmp_path / "parent.json"
            written.write_text(json.dumps(doc))
        loaded = load(written)
        for got, expected in zip(outputs(loaded), outputs(model), strict=True):
            np.testing.assert_array_equal(got, expected)
        again = tmp_path / "again.json"
        save(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        if kind == "naive_bayes" and 2 not in labels:
            assert json.loads(path.read_text())["parameters"]["class_count"][2] == 0
            assert loaded.class_log_prior_[2] == -np.inf

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_payload_is_self_describing(self, kind):
        model, X, _ = fitted_model(kind)
        payload = to_payload(model)
        assert payload["kind"] == kind
        assert payload["dimension"] == X.shape[1]
        assert isinstance(payload["hyperparams"], dict)
        rebuilt = from_payload(payload, {kind: classifier_class(kind)})
        assert type(rebuilt) is type(model)

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "missing.json")


class TestSoftmaxHead:
    """``base.softmax`` and ``softmax_cross_entropy`` give what
    scipy.special's softmax and logsumexp give, without importing them."""

    def test_pinned_bits(self):
        logits = np.array([[0.6, 0.6, -3.6],  # tied maxima
                           [0.0, 0.0, 0.0],  # an all-zero row: three maxima
                           [1000.0, -1000.0, 999.5],  # large magnitudes
                           [-745.0, -745.0, -800.0],
                           [-0.2, -2.8, -0.3]])
        labels = [0, 2, 2, 1, 1]
        # naive Bayes gives a class missing from training a log prior of -inf
        missing_class = np.array([[0.3, -np.inf, -1.2]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as in fit
            losses = [softmax_cross_entropy(row[None], [c])[0] for row, c in zip(logits, labels)]
            _, delta = softmax_cross_entropy(logits, labels)
            probs = softmax(missing_class)
        # log(sum(exp(x - max))) + max misses the first and the last by one bit
        assert [v.hex() for v in losses] == [
            "0x1.66b7457e5ca49p-1", "0x1.193ea7aad030bp+0", "0x1.f2ba37edae000p-1",
            "0x1.62e42fefa3800p-1", "0x1.a42dcd31c004dp+1"]
        assert [v.hex() for v in delta[0].tolist()] == [
            "-0x1.01e7b7df6d88cp-1", "0x1.fc30904124ee9p-2", "0x1.e7b7df6d88b09p-8"]
        assert [v.hex() for v in delta[2].tolist()] == [
            "0x1.3eb2fd4d34391p-1", "0x0.0p+0", "-0x1.3eb2fd4d34390p-1"]
        assert [v.hex() for v in probs[0].tolist()] == [
            "0x1.a2991f2a97914p-1", "0x0.0p+0", "0x1.759b8355a1bafp-3"]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 30.0, 1e3])
    def test_matches_scipy_special(self, scale):
        rng = np.random.default_rng(5)
        logits = rng.normal(scale=scale, size=(200, 3))
        logits[::7, 1] = logits[::7, 0]
        y = rng.integers(0, 3, size=200)
        rows = np.arange(200)
        loss, delta = softmax_cross_entropy(logits, y)
        want = special.softmax(logits, axis=1)
        np.testing.assert_allclose(softmax(logits), want, rtol=1e-15, atol=0)
        want[rows, y] -= 1.0
        np.testing.assert_allclose(delta, want, rtol=1e-15, atol=0)
        want_loss = np.mean(special.logsumexp(logits, axis=1) - logits[rows, y])
        assert loss == pytest.approx(want_loss, rel=1e-15, abs=0)

    @staticmethod
    def run_python(code, *args):
        src = os.path.dirname(os.path.dirname(rusent.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                              text=True)

    def test_cli_start_up_skips_scipy_special(self):
        # importing scipy.special costs a CLI process about 0.13 s, scipy.sparse
        # about 0.23 s and numpy about 0.18 s; no command imports either scipy
        # module (the products load scipy's compiled loops alone, through
        # base.sparse_kernels()), only the stages that build an array import
        # numpy, and only compare's scoring loads multiprocessing. The
        # records are NamedTuples, so no command loads dataclasses (and with it
        # inspect and ast); fractions is imported by its one caller, and string
        # by none. Those three are compared with what the interpreter had loaded
        # before rusent, as a site hook may import any of them.
        code = ("import sys\n"
                "preloaded = set(sys.modules)\n"
                "import rusent.cli\n"
                "for name in ('numpy', 'scipy.special', 'scipy.sparse', 'multiprocessing'):\n"
                "    if name in sys.modules: sys.exit(f'{name} is loaded')\n"
                "added = {'dataclasses', 'fractions', 'string'} & set(sys.modules) - preloaded\n"
                "if added: sys.exit(f'rusent.cli loaded {sorted(added)}')\n")
        run = self.run_python(code)
        assert (run.returncode, run.stderr) == (0, "")

    def test_ingest_and_preprocess_run_without_numpy(self, tmp_path):
        # whatever hyperparameters the config overrides: their types and rules
        # are read from the table in rusent.models, not from an estimator
        rows = [(f"comment {i} acha", ("negative", "neutral", "positive")[i % 3])
                for i in range(30)]
        dataset = write_rows(tmp_path / "data.csv", rows, header=("comment", "sentiment"))
        config = tmp_path / "overrides.cfg"
        config.write_text("knn.k = 3\nlinear_svm.epochs = 30\nlogistic_regression.l2 = 0\n"
                          "mlp.lr = 1\nnaive_bayes.allow_missing_class = true\n",
                          encoding="utf-8")
        code = ("import sys\n"
                "preloaded = set(sys.modules)\n"
                "from rusent.config import parse_config_file\n"
                "parse_config_file(sys.argv[3])\n"
                "early = [name for name in sys.modules\n"
                "         if name == 'numpy' or name.startswith('rusent.models.')]\n"
                "if early: sys.exit(f'parse_config_file loaded {early}')\n"
                "from rusent.cli import main\n"
                "loaded = []\n"
                "for stage in ('ingest', 'preprocess', 'fit-features'):\n"
                "    if main([stage, '--config', sys.argv[3], '--dataset', sys.argv[1],\n"
                "             '--out', sys.argv[2]]) != 0:\n"
                "        sys.exit(f'{stage} failed')\n"
                "    loaded.append('numpy' in sys.modules)\n"
                "    added = {'dataclasses', 'fractions', 'string'} & set(sys.modules) - preloaded\n"
                "    if stage != 'fit-features' and added:\n"
                "        sys.exit(f'{stage} loaded {sorted(added)}')\n"
                "sys.exit(loaded != [False, False, True] and f'numpy loaded after each: {loaded}')\n")
        run = self.run_python(code, str(dataset), str(tmp_path / "out"), str(config))
        assert run.returncode == 0, run.stderr

    def test_no_module_imports_dataclasses(self):
        # nor fractions or string at module level: a split imports fractions where it is used
        package = os.path.dirname(rusent.__file__)
        for folder, _, names in os.walk(package):
            for name in (n for n in names if n.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                top = set(tree.body)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and not node.level:
                        modules = [node.module]
                    else:
                        continue
                    banned = {"dataclasses"} | ({"fractions", "string"} if node in top else set())
                    assert not banned & set(modules), f"{path}:{node.lineno} imports {modules}"

    def test_only_base_builds_a_scipy_matrix(self):
        # no other module builds a scipy matrix or imports anything from scipy:
        # the products go through CSRMatrix's @ and base.sparse_kernels(), and
        # base imports scipy.sparse only inside CSRMatrix.scipy(), the library bridge
        package = os.path.dirname(rusent.__file__)
        base = os.path.join(package, "base.py")
        for folder, _, names in os.walk(package):
            for name in (n for n in names if n.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                bridge = set()
                if path == base:
                    csr = next(node for node in tree.body
                               if isinstance(node, ast.ClassDef) and node.name == "CSRMatrix")
                    bridge = set(ast.walk(next(node for node in csr.body if getattr(
                        node, "name", None) == "scipy")))
                for node in ast.walk(tree):
                    if path != base:
                        called = isinstance(node, ast.Call) and getattr(
                            node.func, "attr", getattr(node.func, "id", None))
                        imported = isinstance(node, ast.ImportFrom) and [a.name for a in node.names]
                        assert "csr_matrix" not in [called, *(imported or [])], (
                            f"{path}:{node.lineno} builds a scipy matrix")
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in bridge:
                        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                                   else [node.module or ""])
                        assert not any(m.split(".")[0] == "scipy" for m in modules), (
                            f"{path}:{node.lineno} imports {modules}")

    def test_naive_bayes_stages_run_without_scipy(self, tmp_path):
        # naive Bayes adds its sums and products with np.bincount, and load_model
        # imports the estimator module of the file's kind alone
        rows = [(f"comment {i} acha", ("negative", "neutral", "positive")[i % 3])
                for i in range(30)]
        dataset = write_rows(tmp_path / "data.csv", rows, header=("comment", "sentiment"))
        code = ("import os, sys\n"
                "from rusent.cli import main\n"
                "from rusent.models import load_model\n"
                "common = ['--dataset', sys.argv[1], '--out', sys.argv[2]]\n"
                "for stage in ('ingest', 'preprocess', 'fit-features', 'train', 'predict',\n"
                "              'evaluate'):\n"
                "    staged = stage in ('train', 'predict', 'evaluate')\n"
                "    kind = ['--classifier', 'naive_bayes'] if staged else []\n"
                "    if main([stage, *kind, *common]) != 0:\n"
                "        sys.exit(f'{stage} failed')\n"
                "    scipy = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
                "    if scipy: sys.exit(f'{stage} loaded {scipy[:3]}')\n"
                "load_model(os.path.join(sys.argv[2], 'model_naive_bayes.json'))\n"
                "other = sorted(name for name in sys.modules if name.startswith('rusent.models.')\n"
                "               and name != 'rusent.models.naive_bayes')\n"
                "sys.exit(f'load_model loaded {other}' if other else 0)\n")
        run = self.run_python(code, str(dataset), str(tmp_path / "out"))
        assert run.returncode == 0, run.stderr

    def test_train_and_predict_run_without_scipy(self, tmp_path):
        # the four kinds that multiply load scipy's compiled loops alone, through
        # base.sparse_kernels(), which leaves no scipy module in sys.modules
        rows = [(f"comment {i} acha", ("negative", "neutral", "positive")[i % 3])
                for i in range(30)]
        dataset = write_rows(tmp_path / "data.csv", rows, header=("comment", "sentiment"))
        code = ("import sys\n"
                "from rusent.cli import main\n"
                "common = ['--dataset', sys.argv[1], '--out', sys.argv[2]]\n"
                "stages = [(stage, []) for stage in ('ingest', 'preprocess', 'fit-features')]\n"
                "for kind in ('knn', 'linear_svm', 'logistic_regression', 'mlp'):\n"
                "    stages += [(stage, ['--classifier', kind]) for stage in ('train', 'predict')]\n"
                "for stage, kind in stages:\n"
                "    if main([stage, *kind, *common]) != 0:\n"
                "        sys.exit(f'{stage} {kind} failed')\n"
                "    scipy = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
                "    if scipy: sys.exit(f'{stage} {kind} loaded {scipy[:3]}')\n")
        run = self.run_python(code, str(dataset), str(tmp_path / "out"))
        assert run.returncode == 0, run.stderr

    def test_load_model_imports_the_estimator_module_of_the_file_kind_alone(self, tmp_path):
        # one process: a file of an unknown kind is refused before any estimator
        # module loads, then each kind's file adds exactly its own module
        for kind in CLASSIFIER_KINDS:
            save_model(fitted_model(kind)[0], tmp_path / f"{kind}.json")
        for name, kind in (("unknown", "svm"), ("not-a-string", ["knn"])):
            doc = json.loads((tmp_path / "knn.json").read_text(encoding="utf-8"))
            (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "kind": kind}))
        code = ("import os, sys\n"
                "from rusent.exceptions import ArtifactError\n"
                "from rusent.models import CLASSIFIER_KINDS, _CLASSES, load_model\n"
                "def loaded():\n"
                "    return {name for name in sys.modules if name.startswith('rusent.models.')}\n"
                "for name in ('unknown', 'not-a-string'):\n"
                "    try:\n"
                "        load_model(os.path.join(sys.argv[1], name + '.json'))\n"
                "        sys.exit(f'{name} loaded')\n"
                "    except ArtifactError as exc:\n"
                "        print(str(exc).split(': ', 1)[1])\n"
                "    if loaded(): sys.exit(f'{name} loaded {sorted(loaded())}')\n"
                "for kind in CLASSIFIER_KINDS:\n"
                "    before = loaded()\n"
                "    model = load_model(os.path.join(sys.argv[1], kind + '.json'))\n"
                "    added = sorted(loaded() - before)\n"
                "    if (model.kind, added) != (kind, ['rusent.models.' + _CLASSES[kind][0]]):\n"
                "        sys.exit(f'{kind} loaded {model.kind} and {added}')\n")
        run = self.run_python(code, str(tmp_path))
        assert (run.returncode, run.stderr) == (0, "")
        expected = f"kind: expected one of {sorted(CLASSIFIER_KINDS)}, got "
        assert run.stdout == f"{expected}'svm'\n{expected}['knn']\n"


def row_major_cross_entropy_rows(logits, y):
    """``cross_entropy_rows`` reduced along the 3-wide axis of the (n, 3) logits,
    as it was before the class-major form: the reference."""
    top = logits.max(axis=1, keepdims=True)
    at_top = logits == top
    m = at_top.sum(axis=1)
    s = np.where(at_top, 0.0, np.exp(logits - top)).sum(axis=1) / m
    with np.errstate(divide="ignore"):
        log_sum = np.log1p(s) + np.log(m) + top[:, 0]
    return log_sum - logits[np.arange(logits.shape[0]), y]


def row_major_softmax(logits):
    """``softmax`` reduced along the 3-wide axis of the (n, 3) logits, as it was
    before the class-major form: the reference."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def row_major_softmax_cross_entropy(logits, y):
    """``softmax_cross_entropy`` on the (n, 3) logits, each part with its own
    row max and exp, as it was before the class-major form: the reference."""
    delta = row_major_softmax(logits)
    delta[np.arange(logits.shape[0]), y] -= 1.0
    return float(np.mean(row_major_cross_entropy_rows(logits, y))), delta


class TestClassMajorSoftmax:
    """The class-major probabilities, loss and gradient are the row-major
    reference's bit for bit. That holds only while numpy sums an (n, 3) row as
    (a0 + a1) + a2, the order the class-major rows are added in."""

    @pytest.mark.parametrize("n", [1, 32, 1000])
    @pytest.mark.parametrize("form", ["random", "times-50", "rounded"])
    def test_equals_the_row_major_reference(self, form, n):
        rng = np.random.default_rng(n)
        logits = rng.normal(scale=3.0, size=(n, 3))
        logits = {"random": logits, "times-50": logits * 50, "rounded": np.round(logits)}[form]
        if form == "rounded" and n > 1:
            assert np.any(np.sum(logits == logits.max(axis=1, keepdims=True), axis=1) > 1)
        y = rng.integers(0, 3, size=n)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as in fit
            loss, delta = softmax_cross_entropy(logits, y)
            want_loss, want_delta = row_major_softmax_cross_entropy(logits, y)
            rows = cross_entropy_rows(logits, y)
        assert loss == want_loss
        assert np.array_equal(delta, want_delta)
        assert delta.flags.c_contiguous  # X.T @ delta and its column means add as before
        assert np.array_equal(rows, row_major_cross_entropy_rows(logits, y))

    @pytest.mark.parametrize("n", [0, 1, 32, 400, 1000])
    @pytest.mark.parametrize("form", ["random", "times-50", "rounded", "missing-class"])
    def test_softmax_equals_the_row_major_reference(self, form, n):
        rng = np.random.default_rng(n + 7)
        logits = rng.normal(scale=3.0, size=(n, 3))
        if form == "missing-class":  # naive Bayes: a class missing from training, log prior -inf
            logits[:, 1] = -np.inf
        logits = {"times-50": logits * 50, "rounded": np.round(logits)}.get(form, logits)
        if form == "rounded" and n > 1:
            assert np.any(np.sum(logits == logits.max(axis=1, keepdims=True), axis=1) > 1)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as in fit
            probs, want = softmax(logits), row_major_softmax(logits)
        assert np.array_equal(probs, want)
        assert probs.flags.c_contiguous

    @pytest.mark.parametrize("target, reference, model", [
        ("logistic.softmax_cross_entropy", row_major_softmax_cross_entropy,
         lambda: LogisticRegression(lr=1e6, l2=1)),
        ("logistic.softmax_cross_entropy", row_major_softmax_cross_entropy,
         lambda: LogisticRegression(lr=5, epochs=5, l2=1)),
        ("mlp.cross_entropy_rows", row_major_cross_entropy_rows,
         lambda: MLPClassifier(hidden_units=4, lr=1e155, epochs=3, batch_size=8, seed=1)),
        ("mlp.cross_entropy_rows", row_major_cross_entropy_rows,
         lambda: MLPClassifier(hidden_units=4, lr=1e250, epochs=3, batch_size=8, seed=1)),
    ], ids=["lr-overflow", "lr-final-loss", "mlp-batch-loss", "mlp-matmul"])
    def test_a_diverging_fit_raises_the_reference_error(self, monkeypatch, target, reference,
                                                        model):
        X, y = random_tfidf_instance(1, n_docs=23, vocab_size=10, doc_len=1)
        with pytest.raises(DivergedError) as got:
            model().fit(X, y)
        monkeypatch.setattr(f"rusent.models.{target}", reference)
        with pytest.raises(DivergedError) as expected:
            model().fit(X, y)
        assert str(got.value) == str(expected.value)


class TestFitPieces:
    """A fit of independent pieces, each computed alone, then finished."""

    @staticmethod
    def svm():
        return LinearSVM(epochs=30, seed=7)

    def test_pieced_svm_fit_is_the_in_process_fit(self):
        X, y = random_tfidf_instance(4, n_docs=60, vocab_size=20, doc_len=6)
        whole = self.svm().fit(X, y)
        pieces = [self.svm().fit_piece(X, y, c) for c in range(LinearSVM.pieces)]
        pieced = self.svm().fit(X, y, pieces)
        assert np.array_equal(pieced.coef_, whole.coef_)
        assert np.array_equal(pieced.intercept_, whole.intercept_)
        assert pieced.objective_per_class_ == whole.objective_per_class_
        assert pieced.final_loss_ == whole.final_loss_
        assert to_payload(pieced) == to_payload(whole)

    @pytest.mark.parametrize("model, change, message", [
        (LinearSVM(lr=1.0), lambda X, y: (X, y), "^lr must be in"),
        (LinearSVM(), lambda X, y: (sp.csr_matrix([[np.nan]] * X.shape[0]), y), "non-finite"),
        (LinearSVM(), lambda X, y: (X, y + 3), "^labels must be class codes"),
        (LinearSVM(), lambda X, y: (X[:0], y[:0]), "^cannot fit on an empty"),
        (LinearSVM(C=1e308, lr=0.9), lambda X, y: (X, y), "^linear_svm training diverged"),
    ], ids=["hyperparameter", "non-finite", "label", "no-rows", "overflow"])
    def test_a_piece_is_checked_as_a_fit_is(self, model, change, message):
        X, y = change(*random_tfidf_instance(0))
        for fit in (model.fit, lambda X, y: model.fit_piece(X, y, 0)):
            with pytest.raises(ValueError, match=message):
                fit(X, y)

    @pytest.mark.parametrize("piece", [-1, 3, 7])
    def test_a_piece_number_outside_the_pieces_is_refused(self, piece):
        X, y = random_tfidf_instance(0)
        with pytest.raises(ValueError, match=rf"^piece must be in range\(3\), got {piece}$"):
            self.svm().fit_piece(X, y, piece)

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_a_fit_from_other_than_every_piece_is_refused(self, count):
        # Two pieces once fit a model that never predicts the third class
        X, y = random_tfidf_instance(0)
        pieces = [self.svm().fit_piece(X, y, c % 3) for c in range(count)]
        model = self.svm()
        with pytest.raises(ValueError, match=f"^a linear_svm fit takes 3 pieces, got {count}$"):
            model.fit(X, y, pieces)
        assert not hasattr(model, "coef_")

    @pytest.mark.parametrize("kind", ["naive_bayes", "knn", "logistic_regression", "mlp"])
    def test_a_kind_fit_whole_refuses_a_pieced_fit(self, kind):
        # piece 0 and a one-piece list pass the two checks above
        X, y = random_tfidf_instance(0)
        model = classifier_class(kind)()
        assert model.pieces == 1
        with pytest.raises(ValueError, match=f"^a {kind} fit takes no pieces$"):
            model.fit_piece(X, y, 0)
        with pytest.raises(ValueError, match=f"^a {kind} fit takes no pieces$"):
            model.fit(X, y, [None])
        assert getattr(model, "n_features_", None) is None


class TestSklearnInterop:
    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_clone_compatible(self, kind):
        base = pytest.importorskip("sklearn.base")
        model = classifier_class(kind)()
        cloned = base.clone(model)
        assert cloned.get_params() == model.get_params()

    def test_set_params_round_trip(self):
        model = classifier_class("mlp")()
        model.set_params(hidden_units=9, lr=0.01)
        assert model.get_params()["hidden_units"] == 9
        with pytest.raises(ValueError):
            model.set_params(bogus=1)

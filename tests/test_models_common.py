import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special as special

import rusent

from rusent import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    LinearSVM,
    TfidfVectorizer,
    load_model,
    load_tfidf,
    make_classifier,
    save_model,
    save_tfidf,
)
from rusent.artifacts import from_payload, to_payload
from rusent.base import CSRMatrix, check_feature_matrix, softmax, softmax_cross_entropy
from rusent.exceptions import NotFittedError
from rusent.models import classifier_class

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


class TestCSRMatrix:
    """The package's own CSR record: scipy's canonical form in numpy alone."""

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
        # about 0.23 s and numpy about 0.18 s; only the estimator modules of the
        # four kinds that multiply with scipy.sparse import it (train and predict
        # of those kinds, and compare), only the stages that build an array
        # import numpy, and only compare's scoring loads multiprocessing
        code = ("import rusent.cli, sys\n"
                "for name in ('numpy', 'scipy.special', 'scipy.sparse', 'multiprocessing'):\n"
                "    if name in sys.modules: sys.exit(f'{name} is loaded')\n")
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
                "sys.exit(loaded != [False, False, True] and f'numpy loaded after each: {loaded}')\n")
        run = self.run_python(code, str(dataset), str(tmp_path / "out"), str(config))
        assert run.returncode == 0, run.stderr

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

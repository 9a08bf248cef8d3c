import json

import numpy as np
import pytest
import scipy.sparse as sp

from rusent import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    load_model,
    make_classifier,
    save_model,
)
from rusent.exceptions import NotFittedError
from rusent.models import classifier_class, model_from_dict, model_to_dict

from conftest import random_tfidf_instance

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            ClassifierSpec("decision_tree")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            make_classifier(ClassifierSpec("knn", {"neighbors": 3}))

    def test_explicit_seed_param_wins(self):
        model = make_classifier(ClassifierSpec("mlp", {"seed": 7}), seed=2)
        assert model.seed == 7

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_constraints_cover_every_hyperparameter(self, kind):
        cls = classifier_class(kind)
        assert set(cls.constraints) == set(cls._param_names())
        cls.check_params(cls().get_params())


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
    def test_unfitted_raises(self, kind):
        model = classifier_class(kind)()
        with pytest.raises(NotFittedError):
            model.predict(sp.csr_matrix((1, 3)))

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_zero_vector_is_legal(self, kind):
        model, X, _ = fitted_model(kind)
        zero = sp.csr_matrix((1, X.shape[1]))
        pred = model.predict(zero)
        assert pred[0] in (0, 1, 2)

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


class TestDeterminism:
    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_identical_inputs_identical_parameters(self, kind):
        a, X, _ = fitted_model(kind, seed=5)
        b, _, _ = fitted_model(kind, seed=5)
        pa = model_to_dict(a)["parameters"]
        pb = model_to_dict(b)["parameters"]
        assert pa == pb


class TestSerialization:
    @pytest.mark.parametrize(
        "kind, labels",
        [(kind, (0, 1, 2) * 6) for kind in CLASSIFIER_KINDS]
        + [("naive_bayes", (0, 1) * 9)],
        ids=[*CLASSIFIER_KINDS, "naive_bayes-missing-class"],
    )
    def test_round_trip_identical_predictions(self, kind, labels, tmp_path):
        model, X, _ = fitted_model(kind, labels=labels)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        probe, _ = random_tfidf_instance(99, n_docs=10, vocab_size=7, doc_len=5)
        np.testing.assert_array_equal(loaded.predict(probe), model.predict(probe))
        np.testing.assert_allclose(
            loaded.decision_scores(probe), model.decision_scores(probe), rtol=0, atol=0
        )
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        if 2 not in labels:
            assert json.loads(path.read_text())["parameters"]["class_log_prior"][2] is None

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_payload_is_self_describing(self, kind):
        model, X, _ = fitted_model(kind)
        payload = model_to_dict(model)
        assert payload["kind"] == kind
        assert payload["dimension"] == X.shape[1]
        assert isinstance(payload["hyperparams"], dict)
        rebuilt = model_from_dict(payload)
        assert type(rebuilt) is type(model)

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "missing.json")


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

import numpy as np
import pytest

from rusent import LogisticRegression, TfidfVectorizer, preprocess_corpus
from rusent.exceptions import DivergedError, NotFittedError
from rusent.models.logistic import softmax_objective

from conftest import (central_diff, label_codes, random_tfidf_instance, relative_error,
                      two_class_corpus)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs", [{"lr": 0.0}, {"lr": -1.0}, {"epochs": -1}, {"l2": -0.5}]
    )
    def test_invalid_hyperparameters(self, kwargs):
        X, y = random_tfidf_instance(0)
        with pytest.raises(ValueError):
            LogisticRegression(**kwargs).fit(X, y)


    def test_diverged_fit_raises(self):
        X, y = random_tfidf_instance(0)
        model = LogisticRegression(lr=1e6, l2=1)
        with pytest.raises(DivergedError, match="logistic_regression training diverged"):
            model.fit(X, y)
        with pytest.raises(NotFittedError):
            model.predict(X)

    def test_fit_ending_above_starting_loss_raises(self):
        # finite, but far above ln 3, the loss at the zero starting weights
        X, y = random_tfidf_instance(0)
        model = LogisticRegression(lr=5, epochs=5, l2=1)
        with pytest.raises(DivergedError, match=r"starting loss 1\.0986"):
            model.fit(X, y)
        with pytest.raises(NotFittedError):
            model.predict(X)


class TestZeroEpochs:
    def test_uniform_scores_and_tie_break(self):
        X, y = random_tfidf_instance(1)
        model = LogisticRegression(epochs=0).fit(X, y)
        assert np.all(model.coef_ == 0.0)
        scores = model.decision_scores(X)
        np.testing.assert_allclose(scores, 1.0 / 3.0, atol=1e-12)
        assert np.all(model.predict(X) == 0)


class TestGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_differences(self, seed):
        X, y = random_tfidf_instance(seed, n_docs=5, vocab_size=4)
        rng = np.random.default_rng(seed + 500)
        W = rng.normal(size=(3, X.shape[1]))
        b = rng.normal(size=3)
        l2 = float(rng.uniform(0.0, 0.1))
        _, grad_W, grad_b = softmax_objective(W, b, X, y, l2)

        fd_W = central_diff(
            lambda w: softmax_objective(w.reshape(3, -1), b, X, y, l2)[0], W.ravel()
        )
        fd_b = central_diff(lambda bb: softmax_objective(W, bb, X, y, l2)[0], b)
        assert relative_error(grad_W.ravel(), fd_W) < 1e-4
        assert relative_error(grad_b, fd_b) < 1e-4


class TestTraining:
    def test_loss_non_increasing_at_defaults(self):
        X, y = random_tfidf_instance(4, n_docs=30, vocab_size=10, doc_len=5)
        model = LogisticRegression().fit(X, y)
        curve = np.array(model.loss_curve_)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_separable_two_class_converges(self):
        corpus = two_class_corpus(40, seed=0)
        docs = preprocess_corpus(corpus, frozenset())
        vec = TfidfVectorizer().fit(docs)
        X = vec.transform(docs)
        y = label_codes(corpus)
        model = LogisticRegression(lr=0.5, epochs=200).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_deterministic(self):
        X, y = random_tfidf_instance(6, n_docs=20, vocab_size=8)
        a = LogisticRegression(epochs=50).fit(X, y)
        b = LogisticRegression(epochs=50).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        np.testing.assert_array_equal(a.intercept_, b.intercept_)

    def test_scores_are_probabilities(self):
        X, y = random_tfidf_instance(8, n_docs=15, vocab_size=6)
        model = LogisticRegression(epochs=40).fit(X, y)
        scores = model.decision_scores(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores >= 0.0)
        assert np.all(np.isfinite(model.coef_))

    def test_l2_shrinks_weights(self):
        X, y = random_tfidf_instance(10, n_docs=25, vocab_size=9)
        small = LogisticRegression(epochs=100, l2=1e-6).fit(X, y)
        large = LogisticRegression(epochs=100, l2=1.0).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

import numpy as np
import pytest
import scipy.sparse as sp

from rusent import LinearSVM, TfidfVectorizer, preprocess_corpus
from rusent.exceptions import DivergedError
from rusent.models.svm import _pairs, hinge_objective

from conftest import (central_diff, label_codes, random_tfidf_instance, relative_error,
                      two_class_corpus)


def signed(y, c):
    return np.where(np.asarray(y) == c, 1.0, -1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs", [{"lr": 0.0}, {"lr": 1.0}, {"lr": -0.2}, {"epochs": -1}, {"C": -1.0}]
    )
    def test_invalid_hyperparameters(self, kwargs):
        X, y = random_tfidf_instance(0)
        with pytest.raises(ValueError):
            LinearSVM(**kwargs).fit(X, y)

    def test_diverged_fit_raises(self):
        X, y = random_tfidf_instance(0)
        with pytest.raises(DivergedError, match="linear_svm training diverged"):
            LinearSVM(C=1e308, lr=0.9).fit(X, y)

    def test_fit_ending_above_starting_objective_raises(self):
        # the objective at zero weights is C; one epoch of large steps ends far above it
        X, y = random_tfidf_instance(0)
        with pytest.raises(DivergedError, match=r"starting loss 1000\.0\)"):
            LinearSVM(C=1000.0, lr=0.9, epochs=1).fit(X, y)

    @pytest.mark.parametrize("C", [0.1, 0.3, 1.0, 7.0])
    def test_zero_epochs_ends_at_the_starting_objective(self, C):
        X, y = random_tfidf_instance(0)
        model = LinearSVM(C=C, epochs=0).fit(X, y)
        assert np.all(model.coef_ == 0.0)
        assert model.final_loss_ == pytest.approx(C, rel=1e-15)


class TestGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_differences_off_hinge(self, seed):
        X, y = random_tfidf_instance(seed, n_docs=6, vocab_size=4)
        rng = np.random.default_rng(seed + 900)
        ys = signed(y, int(rng.integers(0, 3)))
        C = float(rng.uniform(0.2, 3.0))
        # resample the evaluation point until no margin sits near the hinge,
        # where the objective is differentiable
        for _ in range(100):
            w = rng.normal(size=X.shape[1])
            b = float(rng.normal())
            margins = ys * (X @ w + b)
            if np.all(np.abs(margins - 1.0) > 1e-3):
                break
        else:
            pytest.fail("could not find an off-hinge evaluation point")
        _, grad_w, grad_b = hinge_objective(w, b, X, ys, C)
        fd_w = central_diff(lambda ww: hinge_objective(ww, b, X, ys, C)[0], w)
        fd_b = central_diff(
            lambda bb: hinge_objective(w, float(bb[0]), X, ys, C)[0], np.array([b])
        )
        assert relative_error(grad_w, fd_w) < 1e-4
        assert relative_error(np.array([grad_b]), fd_b) < 1e-4


class TestTraining:
    def test_row_pairs_hold_each_rows_entries_in_column_order(self):
        X = sp.csr_matrix(np.array([[0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 3.0]]))
        assert _pairs(X) == [[(1, 1.5)], [], [(0, 2.0), (2, 3.0)]]

    def test_separable_two_class_all_margins_correct_sign(self):
        corpus = two_class_corpus(40, seed=1)
        docs = preprocess_corpus(corpus, frozenset())
        vec = TfidfVectorizer().fit(docs)
        X = vec.transform(docs)
        y = label_codes(corpus)
        # large C so the regularized optimum separates; see the class docstring
        model = LinearSVM(C=100.0, epochs=300, seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0
        for c in (0, 2):
            decisions = X.toarray() @ model.coef_[c] + model.intercept_[c]
            assert np.all(np.sign(decisions) == signed(y, c))

    def test_c_zero_reduces_to_pure_shrinkage(self):
        # C=0 objective is (1/2)||w||^2 with optimum w=0; training starts
        # there and every step is a pure shrink, so the weights stay at 0
        X, y = random_tfidf_instance(3, n_docs=12, vocab_size=6)
        model = LinearSVM(C=0.0, epochs=80, seed=0).fit(X, y)
        assert np.linalg.norm(model.coef_) == 0.0
        assert model.final_loss_ == 0.0
        # from any nonzero point the C=0 gradient is the shrink direction w
        w = np.full(X.shape[1], 0.5)
        value, grad_w, grad_b = hinge_objective(w, 1.0, X, signed(y, 0), 0.0)
        np.testing.assert_allclose(grad_w, w)
        assert grad_b == 0.0
        assert value == pytest.approx(0.5 * float(w @ w))

    def test_approaches_reference_optimum(self):
        # the trained objective should land near the scipy-optimized minimum
        scipy_optimize = pytest.importorskip("scipy.optimize")
        X, y = random_tfidf_instance(12, n_docs=30, vocab_size=8, doc_len=5)
        model = LinearSVM(epochs=400, seed=0).fit(X, y)
        for c in range(3):
            ys = signed(y, c)

            def fun(p):
                value, gw, gb = hinge_objective(p[:-1], p[-1], X, ys, 1.0)
                return value, np.concatenate([gw, [gb]])

            res = scipy_optimize.minimize(
                fun, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B"
            )
            assert model.objective_per_class_[c] <= res.fun + 0.01

    def test_deterministic(self):
        X, y = random_tfidf_instance(5, n_docs=15, vocab_size=7)
        a = LinearSVM(epochs=40, seed=9).fit(X, y)
        b = LinearSVM(epochs=40, seed=9).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        np.testing.assert_array_equal(a.intercept_, b.intercept_)

    def test_score_shift_invariance(self):
        X, y = random_tfidf_instance(7, n_docs=12, vocab_size=6)
        model = LinearSVM(epochs=40, seed=2).fit(X, y)
        scores = model.decision_scores(X)
        preds = np.argmax(scores, axis=1)
        shifted = np.argmax(scores + 3.7, axis=1)
        np.testing.assert_array_equal(preds, shifted)
        np.testing.assert_array_equal(preds, model.predict(X))

    def test_weights_finite(self):
        X, y = random_tfidf_instance(8, n_docs=20, vocab_size=8)
        model = LinearSVM(epochs=60, seed=1).fit(X, y)
        assert np.all(np.isfinite(model.coef_))
        assert np.all(np.isfinite(model.intercept_))

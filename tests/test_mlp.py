import numpy as np
import pytest
import scipy.sparse as sp

from rusent import MLPClassifier
from rusent.models.mlp import init_params, mlp_objective

from conftest import central_diff, random_tfidf_instance, relative_error


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"hidden_units": 0}, {"hidden_units": -2}, {"lr": 0.0}, {"epochs": -1},
         {"batch_size": 0}],
    )
    def test_invalid_hyperparameters(self, kwargs):
        X, y = random_tfidf_instance(0)
        with pytest.raises(ValueError):
            MLPClassifier(**kwargs).fit(X, y)


class TestInit:
    def test_uniform_bounds_follow_fan_in_fan_out(self):
        rng = np.random.default_rng(0)
        V, H = 50, 20
        W1, b1, W2, b2 = init_params(V, H, rng)
        assert W1.shape == (H, V) and W2.shape == (3, H)
        assert np.abs(W1).max() <= np.sqrt(6.0 / (V + H))
        assert np.abs(W2).max() <= np.sqrt(6.0 / (H + 3))
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)


class TestGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_all_four_blocks_match_central_differences(self, seed):
        X, y = random_tfidf_instance(seed, n_docs=4, vocab_size=3)
        rng = np.random.default_rng(seed + 300)
        H = 2
        params = init_params(X.shape[1], H, rng)
        # random perturbation moves the evaluation point off any ReLU kink
        params = tuple(p + rng.normal(scale=0.3, size=p.shape) for p in params)
        _, grads = mlp_objective(params, X, y)

        def loss_with(block_index, flat):
            trial = list(params)
            trial[block_index] = flat.reshape(params[block_index].shape)
            return mlp_objective(tuple(trial), X, y)[0]

        for idx in range(4):
            fd = central_diff(
                lambda flat, i=idx: loss_with(i, flat), params[idx].ravel().copy()
            )
            assert relative_error(grads[idx].ravel(), fd) < 1e-4


class TestBatchStep:
    def test_matches_reference_gradient_update(self):
        # the row-sparse in-place update of fit must equal a dense-gradient step
        X, y = random_tfidf_instance(21, n_docs=12, vocab_size=9, doc_len=4)
        lr, seed = 0.3, 5
        params = init_params(X.shape[1], 6, np.random.default_rng(seed))
        ref_loss, grads = mlp_objective(params, X, y)
        model = MLPClassifier(hidden_units=6, lr=lr, epochs=1, batch_size=X.shape[0],
                              seed=seed).fit(X, y)
        assert model.loss_curve_[0] == pytest.approx(ref_loss, abs=1e-12)
        got = (model.hidden_coef_, model.hidden_intercept_, model.output_coef_,
               model.output_intercept_)
        for param, grad, fitted in zip(params, grads, got):
            np.testing.assert_allclose(fitted, param - lr * grad, rtol=0, atol=1e-12)


class TestTraining:
    def test_xor_style_instance_beats_linear_cap(self):
        # four docs over two terms, labels pos/neg/neg/pos; no linear model
        # exceeds 3/4 on this layout
        X = sp.csr_matrix(
            np.array(
                [
                    [0.0, 0.0],
                    [0.0, 1.0],
                    [1.0, 0.0],
                    [np.sqrt(0.5), np.sqrt(0.5)],
                ]
            )
        )
        y = np.array([2, 0, 0, 2])
        best = 0.0
        for seed in range(5):
            model = MLPClassifier(
                hidden_units=8, lr=0.5, epochs=2000, batch_size=4, seed=seed
            ).fit(X, y)
            best = max(best, float(np.mean(model.predict(X) == y)))
            if best == 1.0:
                break
        assert best >= 0.75

    def test_deterministic(self):
        X, y = random_tfidf_instance(4, n_docs=20, vocab_size=8)
        a = MLPClassifier(hidden_units=5, epochs=10, seed=3).fit(X, y)
        b = MLPClassifier(hidden_units=5, epochs=10, seed=3).fit(X, y)
        np.testing.assert_array_equal(a.hidden_coef_, b.hidden_coef_)
        np.testing.assert_array_equal(a.output_coef_, b.output_coef_)

    def test_different_seeds_differ(self):
        X, y = random_tfidf_instance(4, n_docs=20, vocab_size=8)
        a = MLPClassifier(hidden_units=5, epochs=10, seed=3).fit(X, y)
        b = MLPClassifier(hidden_units=5, epochs=10, seed=4).fit(X, y)
        assert not np.array_equal(a.hidden_coef_, b.hidden_coef_)

    def test_scores_are_probabilities(self):
        X, y = random_tfidf_instance(6, n_docs=15, vocab_size=6)
        model = MLPClassifier(hidden_units=4, epochs=15, seed=0).fit(X, y)
        scores = model.decision_scores(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores >= 0.0)
        for block in (model.hidden_coef_, model.output_coef_):
            assert np.all(np.isfinite(block))

    def test_training_reduces_loss(self):
        X, y = random_tfidf_instance(9, n_docs=40, vocab_size=10, doc_len=5)
        model = MLPClassifier(hidden_units=16, epochs=40, seed=1).fit(X, y)
        assert model.final_loss_ < model.loss_curve_[0]

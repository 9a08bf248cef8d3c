import numpy as np
import pytest
import scipy.sparse as sp

from rusent import MLPClassifier, TfidfVectorizer, preprocess_corpus
from rusent.base import CSRMatrix, softmax_cross_entropy, sparse_kernels
from rusent.exceptions import DivergedError, NotFittedError
from rusent.models.mlp import batch_gradients, epoch_batches, init_params
from rusent.preprocess import default_stopwords

from conftest import (central_diff, label_codes, mlp_objective, random_tfidf_instance,
                      relative_error, three_class_corpus)


def compact(data, indices, indptr, start, stop):
    """Rows ``start:stop`` of the CSR matrix with arrays (data, indices, indptr)
    over only the columns they use: the rows' (data, indices, indptr) and cols,
    where column j of the rows is column cols[j] of the matrix. The reference
    for ``epoch_batches``, one batch at a time."""
    lo, hi = indptr[start], indptr[stop]
    cols, inverse = np.unique(indices[lo:hi], return_inverse=True)
    return data[lo:hi], inverse.astype(indptr.dtype), indptr[start : stop + 1] - lo, cols


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

    def test_dead_hidden_layer_raises(self):
        # huge steps switch every ReLU off for good; the output is then one
        # constant class, with a finite loss of thousands of nats
        corpus = three_class_corpus(90, seed=8)
        docs = preprocess_corpus(corpus, default_stopwords())
        X, y = TfidfVectorizer().fit_transform(docs), label_codes(corpus)
        model = MLPClassifier(lr=1e5, epochs=5, hidden_units=32)
        with pytest.raises(DivergedError, match="every hidden unit is inactive"):
            model.fit(X, y)
        with pytest.raises(NotFittedError):
            model.predict(X)


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


def gathered_batch_fit(X, y, hidden_units, lr, epochs, batch_size, seed):
    """The training loop before contiguous compacted batches: each batch's
    rows gathered with ``X[idx]`` and multiplied over every column."""
    rng = np.random.default_rng(seed)
    W1, b1, W2, b2 = init_params(X.shape[1], hidden_units, rng)
    W1T = np.ascontiguousarray(W1.T)
    curve = []
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        losses = []
        for start in range(0, X.shape[0], batch_size):
            idx = order[start : start + batch_size]
            Xb, yb = X[idx], y[idx]
            z1 = Xb @ W1T + b1
            a1 = np.maximum(0.0, z1)
            loss, delta2 = softmax_cross_entropy(a1 @ W2.T + b2, yb)
            delta2 /= Xb.shape[0]
            delta1 = (delta2 @ W2) * (z1 > 0.0)
            cols = np.unique(Xb.indices)
            W2 -= lr * (delta2.T @ a1)
            b2 -= lr * delta2.sum(axis=0)
            W1T[cols, :] -= lr * (Xb[:, cols].T @ delta1)
            b1 -= lr * delta1.sum(axis=0)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return (W1T.T, b1, W2, b2), curve


class TestExactBatches:
    @pytest.mark.parametrize("seed", range(4))
    def test_fit_equals_gathered_batches_bit_for_bit(self, seed):
        # 23 rows in batches of 5 leave a short last batch of 3; row 7 is
        # all zero, as a document emptied by preprocessing is
        X, y = random_tfidf_instance(seed + 40, n_docs=23, vocab_size=15, doc_len=3)
        X.data[X.indptr[7] : X.indptr[8]] = 0.0
        X.eliminate_zeros()
        assert X[7].nnz == 0 and X.shape[0] % 5 == 3
        params, curve = gathered_batch_fit(X, y, 6, 0.5, 4, 5, seed)
        model = MLPClassifier(hidden_units=6, lr=0.5, epochs=4, batch_size=5,
                              seed=seed).fit(X, y)
        got = (model.hidden_coef_, model.hidden_intercept_, model.output_coef_,
               model.output_intercept_)
        for want, fitted in zip(params, got):
            assert np.array_equal(fitted, want)
        assert model.loss_curve_ == curve


def per_batch_gradients(W1T, b1, W2, b2, data, indices, indptr, cols, y):
    """A mini-batch step before the loss was taken per epoch: the mean
    cross-entropy of the rows and then its gradients, (loss, gW1T, gb1, gW2,
    gb2), with the sparse products through scipy's public ``@``."""
    rows = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, cols.size))
    z1 = rows @ W1T[cols] + b1
    a1 = np.maximum(0.0, z1)
    loss, delta2 = softmax_cross_entropy(a1 @ W2.T + b2, y)
    delta2 /= rows.shape[0]
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    return loss, rows.T @ delta1, delta1.sum(axis=0), delta2.T @ a1, delta2.sum(axis=0)


class PerBatchMLP(MLPClassifier):
    """The training loop before the per-epoch compaction: each mini-batch
    compacted on its own, and its loss taken as it is stepped."""

    def _fit(self, X, y):
        n, V = X.shape
        rng = np.random.default_rng(self.seed)
        W1, b1, W2, b2 = init_params(V, self.hidden_units, rng)
        W1T = np.ascontiguousarray(W1.T)
        every_row = compact(X.data, X.indices, X.indptr, 0, n)
        start_loss = per_batch_gradients(W1T, b1, W2, b2, *every_row, y)[0]
        row_nnz = np.diff(X.indptr)
        curve = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            indptr = np.zeros_like(X.indptr)
            np.cumsum(row_nnz[order], out=indptr[1:])
            at = np.repeat(X.indptr[order] - indptr[:-1], row_nnz[order]) + np.arange(indptr[-1])
            data, indices, y_epoch = X.data[at], X.indices[at], y[order]
            batch_losses = []
            for start in range(0, n, self.batch_size):
                stop = min(start + self.batch_size, n)
                *batch, cols = compact(data, indices, indptr, start, stop)
                loss, gW1T, gb1, gW2, gb2 = per_batch_gradients(
                    W1T, b1, W2, b2, *batch, cols, y_epoch[start:stop])
                W2 -= self.lr * gW2
                b2 -= self.lr * gb2
                W1T[cols, :] -= self.lr * gW1T
                b1 -= self.lr * gb1
                batch_losses.append(loss)
            curve.append(float(np.mean(batch_losses)))
        self.final_loss_ = per_batch_gradients(W1T, b1, W2, b2, *every_row, y)[0]
        if not np.any(sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape) @ W1T
                      + b1 > 0.0):
            raise DivergedError("mlp training diverged (every hidden unit is inactive on "
                                "every training row)")
        self.hidden_coef_ = np.ascontiguousarray(W1T.T)
        self.hidden_intercept_ = b1
        self.output_coef_ = W2
        self.output_intercept_ = b2
        self.loss_curve_ = curve
        return start_loss


class TestEpochCompaction:
    """``fit`` compacts each epoch's mini-batches with one np.unique and takes
    their losses once the epoch is stepped; it must equal ``PerBatchMLP`` bit
    for bit, and refuse a diverging fit with the same error."""

    @pytest.mark.parametrize("n, batch_size, empty_rows", [
        (23, 5, ()), (23, 1, ()), (23, 23, ()), (23, 40, ()), (23, 4, (0, 7, 8, 22)),
        (200, 32, (3,)),
    ], ids=["short-last-batch", "batch-of-one", "one-batch", "batch-above-rows", "empty-rows",
            "default-batch"])
    def test_fit_equals_per_batch_loop(self, n, batch_size, empty_rows):
        X, y = random_tfidf_instance(n + batch_size, n_docs=n, vocab_size=15, doc_len=3)
        for row in empty_rows:
            X.data[X.indptr[row] : X.indptr[row + 1]] = 0.0
        X.eliminate_zeros()
        params = dict(hidden_units=6, lr=0.5, epochs=4, batch_size=batch_size, seed=3)
        expected, got = PerBatchMLP(**params).fit(X, y), MLPClassifier(**params).fit(X, y)
        for name in ("hidden_coef_", "hidden_intercept_", "output_coef_", "output_intercept_"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        assert got.loss_curve_ == expected.loss_curve_
        assert got.final_loss_ == expected.final_loss_

    @pytest.mark.parametrize("lr, error", [
        (1e155, "overflow encountered in reduce"),  # in a batch's loss, before its step
        (1e250, "overflow encountered in matmul"),
    ])
    def test_a_diverging_fit_raises_the_per_batch_error(self, lr, error):
        X, y = random_tfidf_instance(1, n_docs=23, vocab_size=10, doc_len=1)
        params = dict(hidden_units=4, lr=lr, epochs=3, batch_size=8, seed=1)
        with pytest.raises(DivergedError) as expected:
            PerBatchMLP(**params).fit(X, y)
        with pytest.raises(DivergedError) as got:
            MLPClassifier(**params).fit(X, y)
        assert str(got.value) == str(expected.value) == f"mlp training diverged ({error})"

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("size", [1, 4, 5, 22, 23, 40])
    def test_epoch_batches_are_the_compacted_runs_of_rows(self, size, shuffled):
        X, _ = random_tfidf_instance(8, n_docs=23, vocab_size=15, doc_len=3)
        X.data[X.indptr[4] : X.indptr[6]] = 0.0
        X.eliminate_zeros()
        order = np.random.default_rng(size).permutation(23) if shuffled else np.arange(23)
        batches = list(epoch_batches(X, order, size))
        starts = range(0, X.shape[0], size)
        assert len(batches) == len(starts)
        rows = X[order]
        for got, start in zip(batches, starts):
            expected = compact(rows.data, rows.indices, rows.indptr, start,
                               min(start + size, X.shape[0]))
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def kernel_batch(case):
    """(matrix, start, stop, hidden units) of one kernel-oracle batch."""
    X, _ = random_tfidf_instance(50, n_docs=12, vocab_size=20, doc_len=5)
    if case == "emptied_row":
        X.data[X.indptr[4] : X.indptr[5]] = 0.0
        X.eliminate_zeros()
        return X, 2, 9, 6
    if case == "every_row_empty":
        return sp.csr_matrix(X.shape), 0, 5, 6
    if case == "single_row":
        return X, 7, 8, 6
    if case == "int64_indices":
        X.indices, X.indptr = X.indices.astype(np.int64), X.indptr.astype(np.int64)
        return X, 3, 12, 6
    return X, 0, 12, 1  # one hidden unit: `@` takes its matrix-vector path


class TestSparseKernels:
    """``batch_gradients`` runs its two sparse products through scipy's
    compiled CSR kernels on the batch's raw arrays; each must equal scipy's
    public ``@`` on the same batch bit for bit. A scipy release that changes
    or moves the kernels fails here."""

    @pytest.mark.parametrize("case", ["emptied_row", "every_row_empty", "single_row",
                                      "int64_indices", "one_hidden_unit"])
    def test_products_equal_csr_matmul(self, monkeypatch, case):
        X, start, stop, H = kernel_batch(case)
        data, indices, indptr, cols = compact(X.data, X.indices, X.indptr, start, stop)
        assert indices.dtype == indptr.dtype == X.indptr.dtype
        assert (cols.size == 0) == (case == "every_row_empty")
        rng = np.random.default_rng(7)
        W1T = rng.normal(size=(X.shape[1], H))
        W2, b2 = rng.normal(size=(3, H)), rng.normal(size=3)
        b1 = rng.normal(size=H)
        y = rng.integers(0, 3, size=stop - start)
        seen = {}

        def spy(name, kernel):
            def call(*args):
                kernel(*args)
                seen[name] = args[-2].copy(), args[-1].copy()  # (dense input, output)
            return call

        for name in ("csr_matvecs", "csc_matvecs"):
            monkeypatch.setattr(sparse_kernels(), name, spy(name, getattr(sparse_kernels(), name)))
        gW1T = batch_gradients(W1T[cols], b1, W2, b2, data, indices, indptr, y)[1]
        monkeypatch.undo()
        rows = sp.csr_matrix((data, indices, indptr), shape=(stop - start, cols.size))
        weights, z1 = seen["csr_matvecs"]
        delta1, out = seen["csc_matvecs"]
        assert np.array_equal(weights, W1T[cols].ravel())
        assert np.array_equal(z1.reshape(-1, H), rows @ W1T[cols])
        assert np.array_equal(out.reshape(-1, H), rows.T @ delta1.reshape(-1, H))
        assert np.array_equal(gW1T, out.reshape(-1, H))

    def test_no_sparse_matrix_built_per_epoch(self, monkeypatch):
        X, y = random_tfidf_instance(3, n_docs=30, vocab_size=12, doc_len=4)
        built = []

        def counting(init):
            def __init__(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return __init__

        for cls in (sp.csr_matrix, sp.csc_matrix, CSRMatrix):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        counts = []
        for epochs in (0, 3):
            built.clear()
            MLPClassifier(hidden_units=4, epochs=epochs, batch_size=4).fit(X, y)
            counts.append(len(built))
        assert counts[0] == counts[1]


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

"""One-hidden-layer perceptron: ReLU hidden activation, softmax output,
mean cross-entropy loss, mini-batch stochastic gradient descent."""

import numpy as np

from ..artifacts import FLOATS
from ..base import N_CLASSES, ClassifierBase, softmax, softmax_cross_entropy
from ..exceptions import DivergedError


def compact(data, indices, indptr, start, stop):
    """Rows ``start:stop`` of the CSR matrix with arrays (data, indices, indptr)
    over only the columns they use: the rows' (data, indices, indptr) and cols,
    where column j of the rows is column cols[j] of the matrix."""
    lo, hi = indptr[start], indptr[stop]
    cols, inverse = np.unique(indices[lo:hi], return_inverse=True)
    return data[lo:hi], inverse.astype(indptr.dtype), indptr[start : stop + 1] - lo, cols


def batch_gradients(W1T, b1, W2, b2, data, indices, indptr, cols, y):
    """Mean cross-entropy on the CSR rows (data, indices, indptr) and its
    gradients, (loss, gW1T, gb1, gW2, gb2). The rows hold only the feature
    columns ``cols`` they use (``compact``), the hidden weights ``W1T`` are
    feature-major, shape (V, H), and ``gW1T`` holds only the gradient rows
    ``cols`` (the rest are zero)."""
    # The compiled kernels behind `csr_matrix @ dense` and `csr_matrix.T @ dense`,
    # called on the raw arrays: building the two CSR objects costs far more than
    # the products. The module is private; tests/test_mlp.py pins them to `@`.
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs
    n, m, H = indptr.size - 1, cols.size, b1.size
    z1 = np.zeros((n, H))
    csr_matvecs(n, m, H, indptr, indices, data, W1T[cols].ravel(), z1.ravel())
    z1 += b1
    a1 = np.maximum(0.0, z1)
    loss, delta2 = softmax_cross_entropy(a1 @ W2.T + b2, y)
    delta2 /= n
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    gW1T = np.zeros((m, H))
    csc_matvecs(m, n, H, indptr, indices, data, delta1.ravel(), gW1T.ravel())
    return loss, gW1T, delta1.sum(axis=0), delta2.T @ a1, delta2.sum(axis=0)


def mlp_objective(params, X, y):
    """Mean cross-entropy and its dense gradients for all four parameter
    blocks: the finite-difference reference for ``batch_gradients``.

    ``params`` is (W1, b1, W2, b2) with W1 of shape (H, V) and W2 of shape
    (3, H). Returns (loss, (gW1, gb1, gW2, gb2)).
    """
    W1, b1, W2, b2 = params
    *batch, cols = compact(X.data, X.indices, X.indptr, 0, X.shape[0])
    loss, gW1T, gb1, gW2, gb2 = batch_gradients(W1.T, b1, W2, b2, *batch, cols, y)
    gW1 = np.zeros_like(W1)
    gW1[:, cols] = gW1T.T
    return loss, (gW1, gb1, gW2, gb2)


def init_params(n_features, hidden_units, rng):
    """Uniform [-r, r] weight init with r = sqrt(6 / (fan_in + fan_out));
    biases start at zero."""
    r1 = np.sqrt(6.0 / (n_features + hidden_units))
    W1 = rng.uniform(-r1, r1, size=(hidden_units, n_features))
    r2 = np.sqrt(6.0 / (hidden_units + N_CLASSES))
    W2 = rng.uniform(-r2, r2, size=(N_CLASSES, hidden_units))
    return W1, np.zeros(hidden_units), W2, np.zeros(N_CLASSES)


class MLPClassifier(ClassifierBase):
    """Feedforward network with one ReLU hidden layer and softmax output."""

    kind = "mlp"
    fitted = (
        ("hidden_coef", "hidden_coef_", FLOATS, ("hidden_units", "dimension")),
        ("hidden_intercept", "hidden_intercept_", FLOATS, ("hidden_units",)),
        ("output_coef", "output_coef_", FLOATS, (N_CLASSES, "hidden_units")),
        ("output_intercept", "output_intercept_", FLOATS, (N_CLASSES,)),
        ("final_loss", "final_loss_", FLOATS, ()),
    )
    loss_curve_ = None  # not saved: a loaded model reads None
    # Mini-batch steps can end a working fit a little above its starting loss
    # (1.161 from 1.101 nats on a benchmark fold); one at twice it has diverged.
    loss_limit = 2.0

    def _fit(self, X, y):
        n, V = X.shape
        rng = np.random.default_rng(self.seed)
        W1, b1, W2, b2 = init_params(V, self.hidden_units, rng)
        W1T = np.ascontiguousarray(W1.T)
        every_row = compact(X.data, X.indices, X.indptr, 0, n)
        start_loss = batch_gradients(W1T, b1, W2, b2, *every_row, y)[0]
        row_nnz = np.diff(X.indptr)
        curve = []
        for _ in range(self.epochs):
            # the rows, shuffled, as CSR arrays: each mini-batch is a contiguous slice
            order = rng.permutation(n)
            indptr = np.zeros_like(X.indptr)
            np.cumsum(row_nnz[order], out=indptr[1:])
            at = np.repeat(X.indptr[order] - indptr[:-1], row_nnz[order]) + np.arange(indptr[-1])
            data, indices, y_epoch = X.data[at], X.indices[at], y[order]
            batch_losses = []
            for start in range(0, n, self.batch_size):
                stop = min(start + self.batch_size, n)
                *batch, cols = compact(data, indices, indptr, start, stop)
                loss, gW1T, gb1, gW2, gb2 = batch_gradients(
                    W1T, b1, W2, b2, *batch, cols, y_epoch[start:stop])
                W2 -= self.lr * gW2
                b2 -= self.lr * gb2
                W1T[cols, :] -= self.lr * gW1T
                b1 -= self.lr * gb1
                batch_losses.append(loss)
            curve.append(float(np.mean(batch_losses)))
        self.final_loss_ = batch_gradients(W1T, b1, W2, b2, *every_row, y)[0]
        if not np.any(X @ W1T + b1 > 0.0):  # the output is one constant class
            raise DivergedError("mlp training diverged (every hidden unit is inactive on "
                                "every training row)")
        self.hidden_coef_ = np.ascontiguousarray(W1T.T)
        self.hidden_intercept_ = b1
        self.output_coef_ = W2
        self.output_intercept_ = b2
        self.loss_curve_ = curve
        return start_loss

    def decision_scores(self, X):
        """Softmax output probabilities (rows sum to 1)."""
        X = self._validate_input(X)
        hidden = np.maximum(0.0, X @ self.hidden_coef_.T + self.hidden_intercept_)
        return softmax(hidden @ self.output_coef_.T + self.output_intercept_)

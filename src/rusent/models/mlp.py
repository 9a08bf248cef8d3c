"""One-hidden-layer perceptron: ReLU hidden activation, softmax output,
mean cross-entropy loss, mini-batch stochastic gradient descent."""

import numpy as np

from ..artifacts import FLOATS
from ..base import N_CLASSES, ClassifierBase, cross_entropy_rows, softmax, sparse_kernels
from ..exceptions import DivergedError


def epoch_batches(X, order, size):
    """Each run of ``size`` rows of the CSR matrix ``X``, in the order ``order``, as
    (data, indices, indptr, cols): the run over only the columns cols it uses. One
    np.unique over the keys batch * width + column finds every run's columns."""
    nnz, width = np.diff(X.indptr)[order], X.shape[1]
    indptr = np.zeros_like(X.indptr)
    np.cumsum(nnz, out=indptr[1:])
    at = np.repeat(X.indptr[order] - indptr[:-1], nnz) + np.arange(indptr[-1])
    batch = np.repeat(np.arange(order.size) // size, nnz)  # of each entry
    used, inverse = np.unique(batch * width + X.indices[at], return_inverse=True)
    bounds = np.searchsorted(used, np.arange(0, order.size + size, size) // size * width)
    inverse = (inverse - bounds[batch]).astype(indptr.dtype)
    data, cols = X.data[at], (used % width).astype(X.indices.dtype)
    for b, start in enumerate(range(0, order.size, size)):
        lo, hi = indptr[start], indptr[min(start + size, order.size)]
        yield (data[lo:hi], inverse[lo:hi], indptr[start : start + size + 1] - lo,
               cols[bounds[b] : bounds[b + 1]])


def batch_gradients(block, b1, W2, b2, data, indices, indptr, y):
    """The output logits of the CSR rows (data, indices, indptr), which hold only
    the feature columns ``cols`` they use (``epoch_batches``), and the gradients of
    their mean cross-entropy: (logits, gW1T, gb1, gW2, gb2). ``block`` is
    W1T[cols], the rows of the feature-major (V, H) hidden weights ``W1T`` at
    those columns; ``gW1T`` holds only the gradient rows ``cols``. If logits
    reach 1e307 / n, the n rows' summed loss may overflow: it is then taken
    first, to raise before the gradients, as a loss taken per batch did."""
    (m, H), n, kernels = block.shape, indptr.size - 1, sparse_kernels()
    # The loops of CSRMatrix's `X @ dense` and `X.T @ dense`, called on the raw arrays:
    # building two CSRMatrix records costs far more than the products. Pinned to
    # scipy's `@` by tests/test_mlp.py.
    z1 = np.zeros((n, H))
    kernels.csr_matvecs(n, m, H, indptr, indices, data, block.ravel(), z1.ravel())
    z1 += b1
    a1 = np.maximum(0.0, z1)
    logits = a1 @ W2.T + b2
    if not np.abs(logits).max() < 1e307 / n:
        np.mean(cross_entropy_rows(logits, y))
    delta2 = softmax(logits)
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    gW1T = np.zeros((m, H))
    kernels.csc_matvecs(m, n, H, indptr, indices, data, delta1.ravel(), gW1T.ravel())
    return logits, gW1T, delta1.sum(axis=0), delta2.T @ a1, delta2.sum(axis=0)


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
        if 8 * self.hidden_units * (V + N_CLASSES) > np.iinfo(np.intp).max:  # beyond any array
            raise MemoryError(f"{self.hidden_units} hidden units over {V} features are too many")
        rng = np.random.default_rng(self.seed)
        W1, b1, W2, b2 = init_params(V, self.hidden_units, rng)
        W1T = np.ascontiguousarray(W1.T)

        def every_row():  # the hidden layer and the mean loss on every row
            hidden = X @ W1T + b1
            logits = np.maximum(0.0, hidden) @ W2.T + b2
            return hidden, float(np.mean(cross_entropy_rows(logits, y)))

        start_loss = every_row()[1]
        curve, size = [], min(self.batch_size, n)  # every size >= n is one batch
        for _ in range(self.epochs):
            order, logits, steps = rng.permutation(n), [], range(0, n, size)
            y_epoch = y[order]
            for start, (*batch, cols) in zip(steps, epoch_batches(X, order, size)):
                block = W1T[cols]
                out, gW1T, gb1, gW2, gb2 = batch_gradients(
                    block, b1, W2, b2, *batch, y_epoch[start : start + size])
                W2 -= self.lr * gW2
                b2 -= self.lr * gb2
                W1T[cols] = block - self.lr * gW1T
                b1 -= self.lr * gb1
                logits.append(out)
            losses = cross_entropy_rows(np.concatenate(logits), y_epoch)  # every batch's at once
            means = losses[: n - n % size].reshape(-1, size).mean(axis=1)  # a full batch a row
            short = losses[n - n % size :]  # the rows of a short last batch, if there is one
            curve.append(float(np.mean(np.append(means, short.mean()) if short.size else means)))
        hidden, self.final_loss_ = every_row()
        if not np.any(hidden > 0.0):  # the output is one constant class
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

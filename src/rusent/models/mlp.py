"""One-hidden-layer perceptron: ReLU hidden activation, softmax output,
mean cross-entropy loss, mini-batch stochastic gradient descent."""

import numpy as np
from scipy.special import softmax

from ..artifacts import FLOATS, INTS
from ..base import AT_LEAST_ONE, COUNT, N_CLASSES, POSITIVE, ClassifierBase, softmax_cross_entropy


def batch_gradients(W1T, b1, W2, b2, X, y):
    """Mean cross-entropy on the rows of ``X`` and its gradients.

    Returns (loss, cols, gW1T, gb1, gW2, gb2). Two layouts keep a step
    cheap on wide vocabularies: the hidden weights ``W1T`` arrive
    feature-major, shape (V, H), so the sparse product needs no transposed
    copy, and ``gW1T`` holds only the gradient rows of the feature columns
    ``cols`` present in ``X`` (it is exactly zero elsewhere).
    """
    z1 = X @ W1T + b1
    a1 = np.maximum(0.0, z1)
    loss, delta2 = softmax_cross_entropy(a1 @ W2.T + b2, y)
    delta2 /= X.shape[0]
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    cols = np.unique(X.indices)
    return (loss, cols, X[:, cols].T @ delta1, delta1.sum(axis=0),
            delta2.T @ a1, delta2.sum(axis=0))


def mlp_objective(params, X, y):
    """Mean cross-entropy and its dense gradients for all four parameter
    blocks: the finite-difference reference for ``batch_gradients``.

    ``params`` is (W1, b1, W2, b2) with W1 of shape (H, V) and W2 of shape
    (3, H). Returns (loss, (gW1, gb1, gW2, gb2)).
    """
    W1, b1, W2, b2 = params
    loss, cols, gW1T, gb1, gW2, gb2 = batch_gradients(W1.T, b1, W2, b2, X, y)
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
    constraints = {"hidden_units": AT_LEAST_ONE, "lr": POSITIVE, "epochs": COUNT,
                   "batch_size": AT_LEAST_ONE, "seed": COUNT}
    fitted = (
        ("hidden_coef", "hidden_coef_", FLOATS, ("hidden_units", "dimension")),
        ("hidden_intercept", "hidden_intercept_", FLOATS, ("hidden_units",)),
        ("output_coef", "output_coef_", FLOATS, (N_CLASSES, "hidden_units")),
        ("output_intercept", "output_intercept_", FLOATS, (N_CLASSES,)),
        ("epochs_run", "epochs_", INTS, ()),
        ("final_loss", "final_loss_", FLOATS, ()),
    )
    loss_curve_ = None  # not saved: a loaded model reads None

    def __init__(self, hidden_units=100, lr=0.05, epochs=50, batch_size=32, seed=0):
        self.hidden_units = hidden_units
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed

    def _fit(self, X, y):
        n, V = X.shape
        rng = np.random.default_rng(self.seed)
        W1, b1, W2, b2 = init_params(V, self.hidden_units, rng)
        W1T = np.ascontiguousarray(W1.T)
        curve = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                loss, cols, gW1T, gb1, gW2, gb2 = batch_gradients(
                    W1T, b1, W2, b2, X[idx], y[idx])
                W2 -= self.lr * gW2
                b2 -= self.lr * gb2
                W1T[cols, :] -= self.lr * gW1T
                b1 -= self.lr * gb1
                batch_losses.append(loss)
            curve.append(float(np.mean(batch_losses)))
        self.final_loss_ = batch_gradients(W1T, b1, W2, b2, X, y)[0]
        self.hidden_coef_ = np.ascontiguousarray(W1T.T)
        self.hidden_intercept_ = b1
        self.output_coef_ = W2
        self.output_intercept_ = b2
        self.loss_curve_ = curve
        self.epochs_ = self.epochs

    def decision_scores(self, X):
        """Softmax output probabilities (rows sum to 1)."""
        X = self._validate_input(X)
        hidden = np.maximum(0.0, X @ self.hidden_coef_.T + self.hidden_intercept_)
        return softmax(hidden @ self.output_coef_.T + self.output_intercept_, axis=1)

"""One-hidden-layer perceptron: ReLU hidden activation, softmax output,
mean cross-entropy loss, mini-batch stochastic gradient descent."""

import numpy as np
from scipy.special import logsumexp, softmax

from ..artifacts import FLOATS, INTS
from ..base import AT_LEAST_ONE, COUNT, N_CLASSES, POSITIVE, ClassifierBase


def mlp_objective(params, X, y):
    """Mean cross-entropy and its gradients for all four parameter blocks.

    ``params`` is (W1, b1, W2, b2) with W1 of shape (H, V) and W2 of shape
    (3, H). Returns (loss, (gW1, gb1, gW2, gb2)).
    """
    W1, b1, W2, b2 = params
    n = X.shape[0]
    z1 = X @ W1.T + b1
    a1 = np.maximum(0.0, z1)
    z2 = a1 @ W2.T + b2
    loss = float(np.mean(logsumexp(z2, axis=1) - z2[np.arange(n), y]))
    delta2 = softmax(z2, axis=1)
    delta2[np.arange(n), y] -= 1.0
    delta2 /= n
    gW2 = delta2.T @ a1
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    gW1 = (X.T @ delta1).T
    gb1 = delta1.sum(axis=0)
    return loss, (gW1, gb1, gW2, gb2)


def _batch_step(W1T, b1, W2, b2, Xb, yb, lr):
    """One in-place SGD step on a mini-batch.

    Identical math to ``mlp_objective`` gradients, with two layout tricks:
    the hidden weights arrive feature-major (V, H) so the sparse product
    needs no transposed copy, and the hidden-layer update touches only the
    feature rows present in the batch (the gradient is exactly zero
    elsewhere). Both matter for wide vocabularies.
    """
    n = Xb.shape[0]
    z1 = Xb @ W1T + b1
    a1 = np.maximum(0.0, z1)
    z2 = a1 @ W2.T + b2
    loss = float(np.mean(logsumexp(z2, axis=1) - z2[np.arange(n), yb]))
    delta2 = softmax(z2, axis=1)
    delta2[np.arange(n), yb] -= 1.0
    delta2 /= n
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    W2 -= lr * (delta2.T @ a1)
    b2 -= lr * delta2.sum(axis=0)
    cols = np.unique(Xb.indices)
    if cols.size:
        W1T[cols, :] -= lr * (Xb[:, cols].T @ delta1)
    b1 -= lr * delta1.sum(axis=0)
    return loss


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

    def fit(self, X, y):
        X, y = self._validate_training_set(X, y)
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
                loss = _batch_step(W1T, b1, W2, b2, X[idx], y[idx], self.lr)
                batch_losses.append(loss)
            curve.append(float(np.mean(batch_losses)))
        W1 = np.ascontiguousarray(W1T.T)
        self.hidden_coef_ = W1
        self.hidden_intercept_ = b1
        self.output_coef_ = W2
        self.output_intercept_ = b2
        self.loss_curve_ = curve
        self.epochs_ = self.epochs
        self.final_loss_ = mlp_objective((W1, b1, W2, b2), X, y)[0]
        self.n_features_ = V
        return self

    def decision_scores(self, X):
        """Softmax output probabilities (rows sum to 1)."""
        X = self._validate_input(X)
        hidden = np.maximum(0.0, X @ self.hidden_coef_.T + self.hidden_intercept_)
        return softmax(hidden @ self.output_coef_.T + self.output_intercept_, axis=1)

"""Multinomial (softmax) logistic regression trained by full-batch
gradient descent."""

import numpy as np

from ..base import (COUNT, LINEAR_FITTED, N_CLASSES, NON_NEGATIVE, POSITIVE, ClassifierBase,
                    softmax, softmax_cross_entropy)


def softmax_objective(W, b, X, y, l2):
    """Mean cross-entropy of softmax(X W^T + b) plus (l2/2)*||W||^2.

    Returns (loss, grad_W, grad_b). The bias is not regularized.
    """
    loss, delta = softmax_cross_entropy(X @ W.T + b, y)
    loss += 0.5 * l2 * float(np.sum(W * W))
    grad_W = (X.T @ delta).T / X.shape[0] + l2 * W
    grad_b = delta.mean(axis=0)
    return loss, grad_W, grad_b


class LogisticRegression(ClassifierBase):
    """Softmax classifier minimized from zero-initialized weights.

    Full-batch gradient descent; with a suitable learning rate the
    objective is non-increasing over epochs. The optimizer draws no random
    numbers, so there is no seed.
    """

    kind = "logistic_regression"
    constraints = {"lr": POSITIVE, "epochs": COUNT, "l2": NON_NEGATIVE}
    fitted = LINEAR_FITTED
    loss_curve_ = None  # not saved: a loaded model reads None

    def __init__(self, lr=0.5, epochs=300, l2=1e-4):
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2

    def _fit(self, X, y):
        W = np.zeros((N_CLASSES, X.shape[1]))
        b = np.zeros(N_CLASSES)
        curve = []
        for _ in range(self.epochs):
            loss, grad_W, grad_b = softmax_objective(W, b, X, y, self.l2)
            curve.append(loss)
            W -= self.lr * grad_W
            b -= self.lr * grad_b
        curve.append(softmax_objective(W, b, X, y, self.l2)[0])
        self.coef_ = W
        self.intercept_ = b
        self.loss_curve_ = curve
        self.final_loss_ = curve[-1]
        return curve[0]  # the loss at the zero starting weights

    def decision_scores(self, X):
        """Softmax probabilities (rows sum to 1)."""
        X = self._validate_input(X)
        return softmax(X @ self.coef_.T + self.intercept_)

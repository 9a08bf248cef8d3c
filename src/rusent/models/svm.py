"""Linear SVM: three one-vs-rest hinge-loss classifiers trained by
seeded, shuffled per-sample subgradient descent."""

import numpy as np

from ..base import LINEAR_FITTED, N_CLASSES, ClassifierBase

# Refold the lazily scaled weight vector before the scale underflows.
_SCALE_FLOOR = 1e-100


def hinge_objective(w, b, X, y_signed, C):
    """(1/2)||w||^2 + C * mean hinge loss, with its (sub)gradient.

    ``y_signed`` holds +/-1 labels. At points where some margin equals 1
    exactly the hinge term is non-differentiable; the subgradient used
    here treats those samples as inactive.
    """
    n = X.shape[0]
    margins = y_signed * (X @ w + b)
    slack = np.maximum(0.0, 1.0 - margins)
    value = 0.5 * float(w @ w) + C * float(slack.mean())
    active = margins < 1.0
    coeff = np.where(active, -y_signed, 0.0)
    grad_w = w + (C / n) * (X.T @ coeff)
    grad_b = (C / n) * float(coeff.sum())
    return value, grad_w, grad_b


def _pairs(X):
    """Each row of the CSR matrix ``X`` as a list of (column, value) pairs."""
    indptr, pairs = X.indptr.tolist(), list(zip(X.indices.tolist(), X.data.tolist()))
    return [pairs[a:b] for a, b in zip(indptr, indptr[1:])]


def _sgd_binary(rows, y_signed, V, lr, epochs, C, rng):
    """Per-sample subgradient descent on one one-vs-rest problem.

    The objective splits into n per-sample pieces
    f_i = (1/2n)*||w||^2 + (C/n)*max(0, 1 - y_i*(w.x_i + b)), so one
    shuffled pass over the data moves like a single full-batch subgradient
    step of size lr. The regularization shrink is applied through a lazy
    scale factor, keeping each step O(nnz(row)). Plain Python floats beat
    numpy here: rows hold only a handful of nonzeros.
    """
    v = [0.0] * V
    scale = 1.0
    b = 0.0
    n = len(rows)
    shrink = 1.0 - lr / n
    push = lr * C / n
    labels = [float(t) for t in y_signed]
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            pairs = rows[i]
            dot = 0.0
            for j, val in pairs:
                dot += v[j] * val
            yi = labels[i]
            margin = yi * (scale * dot + b)
            scale *= shrink
            if scale < _SCALE_FLOOR:
                v = [entry * scale for entry in v]
                scale = 1.0
            if margin < 1.0:
                step = push * yi / scale
                for j, val in pairs:
                    v[j] += step * val
                b += push * yi
    return scale * np.array(v), b


class LinearSVM(ClassifierBase):
    """One-vs-rest linear SVM; prediction is the argmax of the three raw
    decision values.

    ``lr`` must lie in (0, 1) so the per-step weight shrink stays positive
    for any training-set size. ``C`` weights the mean hinge loss against
    the (1/2)||w||^2 regularizer; C=0 degenerates to pure shrinkage of the
    weights toward zero.
    """

    kind = "linear_svm"
    pieces = N_CLASSES  # one one-vs-rest problem each
    fitted = LINEAR_FITTED
    objective_per_class_ = None  # not saved: a loaded model reads None

    def _fit_piece(self, X, y, c, rows=None):
        """Weights, intercept and objective of class ``c`` against the rest (rows: _pairs(X))."""
        y_signed = np.where(y == c, 1.0, -1.0)
        rng = np.random.default_rng([self.seed, c])
        rows = _pairs(X) if rows is None else rows
        w, b = _sgd_binary(rows, y_signed, X.shape[1], self.lr, self.epochs, self.C, rng)
        return w, b, hinge_objective(w, b, X, y_signed, self.C)[0]

    def _fit(self, X, y):
        rows = _pairs(X)
        return self._assemble([self._fit_piece(X, y, c, rows) for c in range(N_CLASSES)])

    def _assemble(self, pieces):
        weights, intercepts, objectives = zip(*pieces)
        self.coef_ = np.array(weights)
        self.intercept_ = np.array(intercepts)
        self.objective_per_class_ = list(objectives)
        self.final_loss_ = float(np.mean(objectives))
        # the objective at zero weights (every hinge is 1), averaged as final_loss_ is
        return float(np.mean([self.C] * N_CLASSES))

    def decision_scores(self, X):
        """Raw one-vs-rest decision values (not probabilities)."""
        X = self._validate_input(X)
        return X @ self.coef_.T + self.intercept_

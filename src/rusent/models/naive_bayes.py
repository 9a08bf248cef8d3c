"""Multinomial naive Bayes over fractional tf-idf weights."""

import numpy as np

from ..artifacts import FLOATS, INTS, LOG_PROBS
from ..base import FLAG, N_CLASSES, POSITIVE, ClassifierBase, softmax
from ..exceptions import MissingClassError


class MultinomialNaiveBayes(ClassifierBase):
    """Weighted multinomial naive Bayes with Laplace-style smoothing.

    Class priors are empirical label frequencies; per-term likelihoods are
    (class feature-weight sum + alpha) / (class total weight + alpha * V),
    stored as logs. Training sets missing a class are rejected unless
    ``allow_missing_class`` is set, in which case the absent class keeps a
    zero prior and uniform likelihoods.
    """

    kind = "naive_bayes"
    constraints = {"alpha": POSITIVE, "allow_missing_class": FLAG}
    fitted = (
        ("class_log_prior", "class_log_prior_", LOG_PROBS, (N_CLASSES,)),
        ("feature_log_prob", "feature_log_prob_", FLOATS, (N_CLASSES, "dimension")),
        ("class_count", "class_count_", INTS, (N_CLASSES,)),
    )

    def __init__(self, alpha=1.0, allow_missing_class=False):
        self.alpha = alpha
        self.allow_missing_class = allow_missing_class

    def _fit(self, X, y):
        counts = np.bincount(y, minlength=N_CLASSES)
        if np.any(counts == 0) and not self.allow_missing_class:
            missing = [int(c) for c in np.flatnonzero(counts == 0)]
            raise MissingClassError(
                f"training data is missing class code(s) {missing}; "
                "pass allow_missing_class=True to permit this"
            )
        n, V = X.shape
        with np.errstate(divide="ignore"):
            self.class_log_prior_ = np.log(counts / n)
        weight_sums = np.zeros((N_CLASSES, V))
        for c in range(N_CLASSES):
            rows = np.flatnonzero(y == c)
            if rows.size:
                weight_sums[c] = np.asarray(X[rows].sum(axis=0)).ravel()
        smoothed = weight_sums + self.alpha
        self.feature_log_prob_ = np.log(smoothed) - np.log(
            smoothed.sum(axis=1, keepdims=True)
        )
        self.class_count_ = counts

    def decision_scores(self, X):
        """Class posterior probabilities (rows sum to 1)."""
        X = self._validate_input(X)
        joint = X @ self.feature_log_prob_.T + self.class_log_prior_
        return softmax(joint)

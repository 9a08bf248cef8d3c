"""Multinomial naive Bayes over fractional tf-idf weights."""

import numpy as np

from ..artifacts import FLOATS, INTS
from ..base import FLAG, N_CLASSES, POSITIVE, ClassifierBase, softmax
from ..exceptions import MissingClassError


class MultinomialNaiveBayes(ClassifierBase):
    """Weighted multinomial naive Bayes with Laplace-style smoothing.

    A fit keeps each class's count and per-term weight sums. From them come
    the empirical class priors and the per-term likelihoods (class weight sum
    + alpha) / (class total weight + alpha * V), as logs. Training sets
    missing a class are rejected unless ``allow_missing_class`` is set, in
    which case the absent class keeps a zero prior and uniform likelihoods.
    """

    kind = "naive_bayes"
    constraints = {"alpha": POSITIVE, "allow_missing_class": FLAG}
    fitted = (
        ("class_count", "class_count_", INTS, (N_CLASSES,)),
        ("feature_weight_sum", "feature_weight_sum_", FLOATS, (N_CLASSES, "dimension")),
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
        weight_sums = np.zeros((N_CLASSES, X.shape[1]))
        for c in range(N_CLASSES):
            rows = np.flatnonzero(y == c)
            if rows.size:
                weight_sums[c] = np.asarray(X[rows].sum(axis=0)).ravel()
        self.class_count_ = counts
        self.feature_weight_sum_ = weight_sums

    def _check_fitted(self):
        """Derive ``class_log_prior_`` and ``feature_log_prob_`` from the
        counts and weight sums; raise ValueError unless those could come
        from a fit and give finite log-likelihoods."""
        counts, weight_sums = self.class_count_, self.feature_weight_sum_
        with np.errstate(all="ignore"):  # checked below; a count of 0 gives a -inf log prior
            self.class_log_prior_ = np.log(counts / counts.sum())
            smoothed = weight_sums + self.alpha
            self.feature_log_prob_ = (np.log(smoothed)
                                      - np.log(smoothed.sum(axis=1, keepdims=True)))
        if np.any(counts < 0) or not np.all(self.class_log_prior_ <= 0):  # NaN: a 0 total
            raise ValueError("parameters.class_count: expected counts >= 0, total > 0")
        if (np.any(weight_sums < 0) or np.any(weight_sums[counts == 0] > 0)
                or not np.isfinite(self.feature_log_prob_).all()):
            raise ValueError("parameters.feature_weight_sum: expected sums >= 0, 0 for a class "
                             f"of count 0, and finite log-likelihoods at alpha = {self.alpha}")
        if np.any(counts == 0) and not self.allow_missing_class:
            raise ValueError("parameters.class_count: a count of 0 needs allow_missing_class")

    def decision_scores(self, X):
        """Class posterior probabilities (rows sum to 1)."""
        X = self._validate_input(X)
        joint = X @ self.feature_log_prob_.T + self.class_log_prior_
        return softmax(joint)

"""Multinomial naive Bayes over fractional tf-idf weights, in numpy alone."""

import numpy as np

from ..artifacts import FLOATS, INTS
from ..base import N_CLASSES, ClassifierBase, softmax
from ..exceptions import MissingClassError


def class_sums(X, y):
    """Row c is the sum of the rows of the CSRMatrix ``X`` whose class code in
    ``y`` is c. Each class's entries are added in row order, as scipy's
    ``X[rows].sum(axis=0)`` adds them, by one bincount over (class, column)."""
    V = X.shape[1]
    keys = np.repeat(y, np.diff(X.indptr)) * V + X.indices
    return np.bincount(keys, X.data, N_CLASSES * V).reshape(N_CLASSES, V)


def times_transpose(X, W):
    """``X @ W.T`` for the CSRMatrix ``X``. Each row's products are added in
    column order, as scipy's CSR kernel adds them, by one bincount per row of W."""
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    return np.column_stack([np.bincount(rows, X.data * w[X.indices], X.shape[0]) for w in W])


class MultinomialNaiveBayes(ClassifierBase):
    """Weighted multinomial naive Bayes with Laplace-style smoothing.

    A fit keeps each class's count and per-term weight sums. From them come
    the empirical class priors and the per-term likelihoods (class weight sum
    + alpha) / (class total weight + alpha * V), as logs. Training sets
    missing a class are rejected unless ``allow_missing_class`` is set, in
    which case the absent class keeps a zero prior and uniform likelihoods.
    """

    kind = "naive_bayes"
    fitted = (
        ("class_count", "class_count_", INTS, (N_CLASSES,)),
        ("feature_weight_sum", "feature_weight_sum_", FLOATS, (N_CLASSES, "dimension")),
    )

    def _fit(self, X, y):
        counts = np.bincount(y, minlength=N_CLASSES)
        if np.any(counts == 0) and not self.allow_missing_class:
            missing = [int(c) for c in np.flatnonzero(counts == 0)]
            raise MissingClassError(
                f"training data is missing class code(s) {missing}; "
                "pass allow_missing_class=True to permit this"
            )
        self.class_count_ = counts
        self.feature_weight_sum_ = class_sums(X, y)

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
        joint = times_transpose(self._validate_input(X), self.feature_log_prob_)
        return softmax(joint + self.class_log_prior_)

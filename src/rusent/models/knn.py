"""k-nearest-neighbor classifier over cosine distance."""

import numpy as np

from ..artifacts import CSR, INTS
from ..base import AT_LEAST_ONE, N_CLASSES, ClassifierBase, check_labels

_CHUNK = 512


class KNeighborsClassifier(ClassifierBase):
    """Lazy learner: stores the training matrix and votes over the k
    nearest neighbors by cosine distance (1 - dot product; rows are
    l2-normalized or zero, so this is monotone in Euclidean distance).

    Equidistant neighbors at the k boundary are resolved toward the lower
    training-row index. A tied majority vote falls back to the label of
    the single nearest neighbor.
    """

    kind = "knn"
    constraints = {"k": AT_LEAST_ONE}
    fitted = (("matrix", "X_", CSR, ("rows", "dimension")), ("labels", "y_", INTS, ("rows",)))

    def __init__(self, k=5):
        self.k = k

    def fit(self, X, y):
        X, y = self._validate_training_set(X, y)
        self.X_, self.y_ = X, y
        self._check_fitted()
        self.n_features_ = X.shape[1]
        return self

    def _check_fitted(self):
        check_labels(self.y_)
        if self.k > self.X_.shape[0]:
            raise ValueError(f"k must be in [1, {self.X_.shape[0]}], got {self.k}")

    def _neighbors(self, X):
        """Indices of the k nearest training rows per query row, ordered by
        (distance, training index)."""
        out = np.empty((X.shape[0], self.k), dtype=np.int64)
        for start in range(0, X.shape[0], _CHUNK):
            chunk = X[start : start + _CHUNK]
            distances = 1.0 - (chunk @ self.X_.T).toarray()
            # stable argsort keeps lower training indices first among ties
            order = np.argsort(distances, axis=1, kind="stable")
            out[start : start + chunk.shape[0]] = order[:, : self.k]
        return out

    def decision_scores(self, X):
        """Per-class vote fractions among the k nearest neighbors."""
        X = self._validate_input(X)
        neighbors = self._neighbors(X)
        votes = self.y_[neighbors]
        scores = np.empty((X.shape[0], N_CLASSES))
        for i in range(X.shape[0]):
            scores[i] = np.bincount(votes[i], minlength=N_CLASSES) / self.k
        return scores

    def predict(self, X):
        X = self._validate_input(X)
        neighbors = self._neighbors(X)
        predictions = np.empty(X.shape[0], dtype=np.int64)
        for i in range(X.shape[0]):
            counts = np.bincount(self.y_[neighbors[i]], minlength=N_CLASSES)
            top = counts.max()
            if np.count_nonzero(counts == top) == 1:
                predictions[i] = counts.argmax()
            else:
                predictions[i] = self.y_[neighbors[i, 0]]
        return predictions

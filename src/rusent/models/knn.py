"""k-nearest-neighbor classifier over cosine distance."""

import numpy as np

from ..artifacts import CSR, INTS
from ..base import N_CLASSES, ClassifierBase, CSRMatrix, check_labels

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
    fitted = (("matrix", "X_", CSR, ("rows", "dimension")), ("labels", "y_", INTS, ("rows",)))

    def _fit(self, X, y):
        # X may share the caller's arrays
        self.X_ = CSRMatrix(X.data.copy(), X.indices.copy(), X.indptr.copy(), X.shape)
        self.y_ = y

    def _check_fitted(self):
        check_labels(self.y_)
        if self.k > self.X_.shape[0]:
            raise ValueError(f"knn.k must be in [1, {self.X_.shape[0]}], got {self.k}")

    def _votes(self, X):
        """Per-class vote counts among the k nearest training rows of each
        query row, ordered by (distance, training index), and the label of
        the nearest one."""
        X, train = self._validate_input(X).scipy(), self.X_.scipy()
        k = self.k
        counts = np.empty((X.shape[0], N_CLASSES), dtype=np.int64)
        nearest = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], _CHUNK):
            chunk = X[start : start + _CHUNK]
            distances = 1.0 - (chunk @ train.T).toarray()
            # Select k, then order them by (distance, index). Only a row with more
            # than k distances at or below its k-th takes the first k of its stable
            # sort, which keeps the lower training indices among the ties.
            near = np.argpartition(distances, k - 1, axis=1)[:, :k]
            kth = np.take_along_axis(distances, near[:, k - 1 :], axis=1)
            tied = np.count_nonzero(distances <= kth, axis=1) > k
            near[tied] = np.argsort(distances[tied], axis=1, kind="stable")[:, :k]
            order = np.lexsort((near, np.take_along_axis(distances, near, axis=1)))
            labels = self.y_[np.take_along_axis(near, order, axis=1)]
            rows = slice(start, start + chunk.shape[0])
            counts[rows] = (labels[:, :, None] == np.arange(N_CLASSES)).sum(axis=1)
            nearest[rows] = labels[:, 0]
        return counts, nearest

    def decision_scores(self, X):
        """Per-class vote fractions among the k nearest neighbors."""
        return self._votes(X)[0] / self.k

    def predict(self, X):
        counts, nearest = self._votes(X)
        unique = np.count_nonzero(counts == counts.max(axis=1, keepdims=True), axis=1) == 1
        return np.where(unique, counts.argmax(axis=1), nearest)

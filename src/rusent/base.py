"""Estimator base class and input validation helpers.

Estimators follow the scikit-learn parameter conventions (constructor
arguments stored verbatim, ``get_params``/``set_params``, fitted attributes
carrying a trailing underscore) so they compose with pipeline tooling that
relies on those conventions, without this package depending on scikit-learn.
"""

import contextlib
import operator
import sys

import numpy as np

from .artifacts import FLOATS, check_is_fitted
from .exceptions import DivergedError, RusentError
from .models import check_hyperparams, kind_entry

N_CLASSES = 3


class BaseEstimator:
    """Minimal scikit-learn-compatible parameter handling. ``hyperparameters``
    maps each keyword of the constructor to its (default, rule), in ``get_params`` order."""

    hyperparameters = {}

    def __init__(self, **params):
        for name, (default, _) in self.hyperparameters.items():
            setattr(self, name, params.pop(name, default))
        for name in params:
            raise TypeError(f"{type(self).__name__}() got an unexpected keyword argument {name!r}")

    @classmethod
    def check_params(cls, params):
        """``models.check_hyperparams`` with this class's hyperparameters."""
        check_hyperparams(params, cls.hyperparameters, cls.__name__)

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self.hyperparameters}

    def set_params(self, **params):
        self.check_params(params)
        for name, value in params.items():
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class CSRMatrix:
    """The package's feature matrix: float64 values in canonical compressed
    sparse row form, the layout scipy.sparse.csr_matrix uses, without scipy.
    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which strictly ascend. ``indices`` and
    ``indptr`` share scipy's index dtype: int32 while every size fits, else
    int64. The constructor raises ValueError for arrays that break any of this,
    and copies an array only to change its dtype."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        data, indices, indptr = np.asarray(data, np.float64), *map(np.asarray, (indices, indptr))
        shape = tuple(map(operator.index, shape))
        if len(shape) != 2 or min(shape) < 0:
            raise ValueError(f"shape must be two sizes >= 0, got {shape}")
        if not all(a.ndim == 1 for a in (data, indices, indptr)):
            raise ValueError("data, indices and indptr must be 1-D")
        if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu":
            raise ValueError("indices and indptr must be integers")
        if indptr.size != shape[0] + 1:
            raise ValueError(f"indptr has {indptr.size} entries, {shape[0]} rows need "
                             f"{shape[0] + 1}")
        lengths = np.diff(indptr)
        if indptr[0] != 0 or np.any(lengths < 0):
            raise ValueError("indptr must start at 0 and never decrease")
        if not indptr[-1] == indices.size == data.size:
            raise ValueError(f"indptr ends at {indptr[-1]}, with {indices.size} indices "
                             f"and {data.size} values")
        if indices.size and not 0 <= indices.min() <= indices.max() < shape[1]:
            raise ValueError(f"a column index is outside [0, {shape[1]})")
        row_start = np.zeros(indices.size, dtype=bool)
        row_start[indptr[:-1][lengths > 0]] = True
        if np.any((np.diff(indices) <= 0) & ~row_start[1:]):
            raise ValueError("the column indices of a row must strictly ascend "
                             "(sorted, no duplicates)")
        index = np.int32 if max(*shape, data.size) <= np.iinfo(np.int32).max else np.int64
        self.data, self.shape = data, shape
        self.indices, self.indptr = (a.astype(index, copy=False) for a in (indices, indptr))

    @property
    def nnz(self):
        return self.data.size

    def toarray(self):
        dense = np.zeros(self.shape)
        dense[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return dense


def check_feature_matrix(X, n_features=None):
    """``X``, a CSRMatrix, any scipy sparse matrix or a 2-D array, as a
    CSRMatrix. The caller's arrays are never rewritten: a result that needs
    converting, sorting or summing is a copy. Raises ValueError for input that
    is not 2-D, a NaN or infinite entry, or a width other than ``n_features``
    when that is given."""
    if not isinstance(X, CSRMatrix):
        if np.ndim(X) != 2:
            raise ValueError(f"feature matrix must be 2-D, got {np.ndim(X)}-D")
        sparse = sys.modules.get("scipy.sparse")  # loaded wherever a scipy matrix exists
        if sparse is not None and sparse.issparse(X):
            X = sparse.csr_matrix(X, dtype=np.float64)  # may share the input's arrays
            if not X.has_canonical_format:
                X = X.copy()
                X.sum_duplicates()
            X = CSRMatrix(X.data, X.indices, X.indptr, X.shape)
        else:
            dense = np.asarray(X, dtype=np.float64)
            rows, cols = np.nonzero(dense)
            X = CSRMatrix(dense[rows, cols], cols,
                          np.searchsorted(rows, np.arange(dense.shape[0] + 1)), dense.shape)
    if not np.isfinite(X.data).all():
        raise ValueError("feature matrix has a non-finite (NaN or infinite) entry")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"dimension mismatch: input has {X.shape[1]} features, "
                         f"model expects {n_features}")
    return X


def check_labels(y, n_rows=None, name="labels"):
    """``y`` as int64 class codes; a fractional label is refused, not truncated."""
    y = np.asarray(y).ravel()
    if n_rows is not None and y.shape[0] != n_rows:
        raise ValueError(
            f"label count {y.shape[0]} does not match row count {n_rows}"
        )
    if not np.isin(y, np.arange(N_CLASSES)).all():
        raise ValueError(f"{name} must be class codes in [0, {N_CLASSES})")
    return y.astype(np.int64)


def softmax(logits):
    """Row-wise softmax of the (n, 3) ``logits`` as a C-contiguous array."""
    return _class_major(logits)[3]


def _class_major(logits):
    """The (n, 3) ``logits`` as a contiguous class-major (3, n) copy L, each row's max
    ``top``, exp(L - top) and the C-contiguous (n, 3) softmax: one exp for them all."""
    L = np.ascontiguousarray(logits.T)
    top = np.maximum(np.maximum(L[0], L[1]), L[2])
    exp = np.exp(L - top)
    probs = np.empty(logits.shape)
    np.divide(exp, (exp[0] + exp[1]) + exp[2], out=probs.T)  # numpy's order for an (n, 3) row
    return L, top, exp, probs


def _rows_loss(L, top, exp, y):
    at_top = L == top
    m = at_top.sum(axis=0)
    rest = np.where(at_top, 0.0, exp)
    s = (rest[0] + rest[1] + rest[2]) / m  # one of the three is 0: any order adds the same
    with np.errstate(divide="ignore"):  # a row with a NaN has no max (m = 0): NaN loss
        log_sum = np.log1p(s) + np.log(m) + top
    return log_sum - L[y, np.arange(L.shape[1])]


def cross_entropy_rows(logits, y):
    """Each row's cross-entropy of softmax(``logits``) against its class code in
    ``y``. The log-sum-exp is scipy.special.logsumexp's to the bit: the row's m
    maxima leave the sum s of exp(x - max), and it is log1p(s / m) + log(m) + max."""
    return _rows_loss(*_class_major(logits)[:3], y)


def softmax_cross_entropy(logits, y):
    """The mean of ``cross_entropy_rows`` and each row's gradient, softmax - onehot,
    as a C-contiguous (n, 3) array: ``softmax`` and ``cross_entropy_rows`` to the bit."""
    L, top, exp, delta = _class_major(logits)
    delta.T[y, np.arange(L.shape[1])] -= 1.0
    return float(np.mean(_rows_loss(L, top, exp, y))), delta


# The ``fitted`` rows of both linear kinds, logistic regression and linear SVM.
LINEAR_FITTED = (
    ("coef", "coef_", FLOATS, (N_CLASSES, "dimension")),
    ("intercept", "intercept_", FLOATS, (N_CLASSES,)),
    ("final_loss", "final_loss_", FLOATS, ()),
)


class ClassifierBase(BaseEstimator):
    """Shared training and prediction surface for the five classifier kinds.

    ``fit`` checks the hyperparameters and the training set, then calls the
    kind's ``_fit(X, y)`` with a CSRMatrix and class codes. The fit is
    refused with ``DivergedError`` on a numpy overflow, invalid or divide
    error, and when ``_fit`` returns the loss at its starting parameters
    and ``final_loss_`` is above ``loss_limit`` times it.
    A kind whose fit has ``pieces`` > 1 independent parts fits part i by ``fit_piece(X,
    y, i)`` and finishes by ``fit(X, y, pieces)`` (its ``_fit_piece``, ``_assemble``).
    ``decision_scores`` returns one row of three per-class scores per input
    row (class-code order); ``predict`` takes the argmax, breaking exact
    ties toward the lowest class code.

    Each kind declares ``fitted``, the (JSON key, attribute, codec, axes) rows
    that ``artifacts.to_payload`` saves and ``artifacts.from_payload`` loads; its
    ``hyperparameters`` are the ones ``models`` lists for its ``kind``.
    """

    fitted = ()
    loss_limit = 1.0
    pieces = 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.hyperparameters = kind_entry(cls.kind)[2]

    def _check_fitted(self):
        """Derive what the kind computes from its ``fitted`` state, and raise
        ValueError naming ``parameters.<key>`` if that state breaks a rule
        its axes cannot state. ``fit`` and the model loader both call it."""

    @contextlib.contextmanager
    def _training(self, X, y):
        """The checked CSRMatrix and class codes; a numpy error in the block is DivergedError."""
        self.check_params(self.get_params())
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty feature matrix")
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                yield X, y
        except FloatingPointError as exc:
            raise DivergedError(f"{self.kind} training diverged ({exc})") from None
        except MemoryError as exc:
            raise RusentError(f"{self.kind} training ran out of memory ({exc})") from None

    def _check_pieced(self):
        if self.pieces == 1:
            raise ValueError(f"a {self.kind} fit takes no pieces")

    def fit_piece(self, X, y, piece):
        self._check_pieced()
        if piece not in range(self.pieces):
            raise ValueError(f"piece must be in range({self.pieces}), got {piece!r}")
        with self._training(X, y) as (X, y):
            return self._fit_piece(X, y, piece)

    def fit(self, X, y, pieces=None):
        if pieces is not None:
            self._check_pieced()
            if len(pieces) != self.pieces:
                raise ValueError(f"a {self.kind} fit takes {self.pieces} pieces, "
                                 f"got {len(pieces)}")
        with self._training(X, y) as (X, y):
            self.n_features_ = None  # a refused fit leaves the model unfitted
            start = self._fit(X, y) if pieces is None else self._assemble(pieces)
        if start is not None and not self.final_loss_ <= self.loss_limit * start:  # NaN fails
            raise DivergedError(f"{self.kind} training diverged (final loss "
                                f"{self.final_loss_}, starting loss {start})")
        self._check_fitted()
        self.n_features_ = X.shape[1]
        return self

    def _fit(self, X, y):
        raise NotImplementedError

    def decision_scores(self, X):
        raise NotImplementedError

    def predict(self, X):
        return np.argmax(self.decision_scores(X), axis=1).astype(np.int64)

    def _validate_input(self, X):
        check_is_fitted(self)
        return check_feature_matrix(X, self.n_features_)

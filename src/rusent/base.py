"""Estimator base class and input validation helpers.

Estimators follow the scikit-learn parameter conventions (constructor
arguments stored verbatim, ``get_params``/``set_params``, fitted attributes
carrying a trailing underscore) so they compose with pipeline tooling that
relies on those conventions, without this package depending on scikit-learn.
"""

import inspect
import numbers

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp, softmax

from .artifacts import FLOATS, INTS
from .exceptions import DivergedError, NotFittedError

N_CLASSES = 3


# Hyperparameter rules for ``BaseEstimator.constraints``: (test, rule text).
# A test that raises TypeError (None > 0, say) fails.
POSITIVE = (lambda v: v > 0, "> 0")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
COUNT = (lambda v: isinstance(v, numbers.Integral) and v >= 0, "an integer >= 0")
AT_LEAST_ONE = (lambda v: isinstance(v, numbers.Integral) and v >= 1, "an integer >= 1")
FLAG = (lambda v: isinstance(v, bool), "true or false")


class BaseEstimator:
    """Minimal scikit-learn-compatible parameter handling. ``constraints``
    holds a (test, rule text) pair for every constructor parameter."""

    constraints = {}

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    @classmethod
    def check_params(cls, params):
        """Raise ValueError for the first entry of the name -> value mapping
        ``params`` that is not a parameter or breaks its rule. The message
        starts with the name."""
        for name, value in params.items():
            if name not in cls.constraints:
                raise ValueError(
                    f"{name} is an unknown hyperparameter for {cls.__name__} "
                    f"(accepted: {sorted(cls.constraints)})"
                )
            test, rule = cls.constraints[name]
            try:  # a bool passes the flag rule only, never a numeric one
                ok = isinstance(value, bool) == (test is FLAG[0]) and test(value)
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {value!r}")

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        self.check_params(params)
        for name, value in params.items():
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, *attributes):
    for attr in attributes:
        if getattr(estimator, attr, None) is None:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted; call fit() first"
            )


def check_feature_matrix(X):
    """Coerce ``X`` to a float64 CSR matrix with canonical (sorted) indices;
    NaN or infinite entries raise ValueError."""
    if sp.issparse(X):
        X = X.tocsr()
        if X.dtype != np.float64:
            X = X.astype(np.float64)
        X.sum_duplicates()
        X.sort_indices()
    else:
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got {arr.ndim}-D")
        X = sp.csr_matrix(arr)
    if not np.isfinite(X.data).all():
        raise ValueError("feature matrix has a non-finite (NaN or infinite) entry")
    return X


def check_labels(y, n_rows=None):
    y = np.asarray(y, dtype=np.int64).ravel()
    if n_rows is not None and y.shape[0] != n_rows:
        raise ValueError(
            f"label count {y.shape[0]} does not match row count {n_rows}"
        )
    if y.size and (y.min() < 0 or y.max() >= N_CLASSES):
        raise ValueError(f"labels must be class codes in [0, {N_CLASSES})")
    return y


def check_dimension(X, n_features):
    if X.shape[1] != n_features:
        raise ValueError(
            f"dimension mismatch: input has {X.shape[1]} features, "
            f"model expects {n_features}"
        )


def softmax_cross_entropy(logits, y):
    """Mean cross-entropy of softmax(``logits``) against the class codes
    ``y``, and its per-row gradient in the logits, softmax - onehot (not yet
    divided by the row count)."""
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(logsumexp(logits, axis=1) - logits[rows, y]))
    delta = softmax(logits, axis=1)
    delta[rows, y] -= 1.0
    return loss, delta


# The ``fitted`` rows of both linear kinds, logistic regression and linear SVM.
LINEAR_FITTED = (
    ("coef", "coef_", FLOATS, (N_CLASSES, "dimension")),
    ("intercept", "intercept_", FLOATS, (N_CLASSES,)),
    ("epochs_run", "epochs_", INTS, ()),
    ("final_loss", "final_loss_", FLOATS, ()),
)


class ClassifierBase(BaseEstimator):
    """Shared training and prediction surface for the five classifier kinds.

    ``fit`` checks the hyperparameters and the training set, then calls the
    kind's ``_fit(X, y)`` with a CSR matrix and class codes. A kind that
    records ``final_loss_`` has its fit refused when that loss is not
    finite. ``decision_scores`` returns one row of three per-class scores
    per input row (class-code order); ``predict`` takes the argmax, breaking
    exact ties toward the lowest class code.

    Each kind declares ``constraints`` and ``fitted``, the (JSON key,
    attribute, codec, axes) rows that ``rusent.models`` saves and loads.
    """

    fitted = ()

    def _check_fitted(self):
        """Raise ValueError if the fitted state breaks a rule that the
        ``fitted`` axes cannot state; the model loader calls it."""

    def fit(self, X, y):
        self.check_params(self.get_params())
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty feature matrix")
        self.n_features_ = None  # a refused fit leaves the model unfitted
        self._fit(X, y)
        loss = getattr(self, "final_loss_", None)
        if loss is not None and not np.isfinite(loss):
            raise DivergedError(f"{self.kind} training diverged (final loss {loss})")
        self.n_features_ = X.shape[1]
        return self

    def _fit(self, X, y):
        raise NotImplementedError

    def decision_scores(self, X):
        raise NotImplementedError

    def predict(self, X):
        return np.argmax(self.decision_scores(X), axis=1).astype(np.int64)

    def _validate_input(self, X):
        check_is_fitted(self, "n_features_")
        X = check_feature_matrix(X)
        check_dimension(X, self.n_features_)
        return X

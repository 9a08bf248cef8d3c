"""The five classifier kinds behind one fit/predict surface, plus saving and loading
them as JSON model files. A kind's estimator module, and numpy with it, is imported when
its class is first asked for. Only the MLP's loads scipy.sparse with the module, for its
_sparsetools kernels; evaluate_specs loads it before it forks compare's workers."""

import importlib
import math
import numbers
from typing import NamedTuple

from ..artifacts import from_payload, read_json, to_payload, write_json

# Hyperparameter rules: (test, rule text). A test that raises TypeError (None > 0, say) fails.
POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")
COUNT = (lambda v: isinstance(v, numbers.Integral) and v >= 0, "an integer >= 0")
AT_LEAST_ONE = (lambda v: isinstance(v, numbers.Integral) and v >= 1, "an integer >= 1")
FLAG = (lambda v: isinstance(v, bool), "true or false")
MAX_FEATURES = 3000  # the default cap on the tf-idf vocabulary, which has no kind

# kind -> the module and the name of its estimator class, whose ``kind`` it is, and
# its hyperparameters, name -> (default, rule), in the order get_params lists them
_CLASSES = {
    "knn": ("knn", "KNeighborsClassifier", {"k": (5, AT_LEAST_ONE)}),
    "linear_svm": ("svm", "LinearSVM", {
        "lr": (0.1, (lambda v: 0 < v < 1, "in (0, 1)")), "epochs": (300, COUNT),
        "C": (1.0, NON_NEGATIVE), "seed": (0, COUNT)}),
    "logistic_regression": ("logistic", "LogisticRegression", {
        "lr": (0.5, POSITIVE), "epochs": (300, COUNT), "l2": (1e-4, NON_NEGATIVE)}),
    "mlp": ("mlp", "MLPClassifier", {
        "hidden_units": (100, AT_LEAST_ONE), "lr": (0.05, POSITIVE), "epochs": (50, COUNT),
        "batch_size": (32, AT_LEAST_ONE), "seed": (0, COUNT)}),
    "naive_bayes": ("naive_bayes", "MultinomialNaiveBayes", {
        "alpha": (1.0, POSITIVE), "allow_missing_class": (False, FLAG)}),
}

CLASSIFIER_KINDS = tuple(sorted(_CLASSES))


def kind_entry(kind):
    """The module, estimator class name and hyperparameter table of ``kind``."""
    try:
        return _CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}"
        ) from None


def classifier_class(kind):
    module, name, _ = kind_entry(kind)
    return getattr(importlib.import_module(f".{module}", __name__), name)


def check_hyperparams(params, table, owner):
    """Raise ValueError for the first entry of the name -> value mapping ``params``
    that is not in the name -> (default, rule) ``table`` or breaks its rule. The
    message starts with the name; an unknown name's cites the class name ``owner``."""
    for name, value in params.items():
        if name not in table:
            raise ValueError(
                f"{name} is an unknown hyperparameter for {owner} (accepted: {sorted(table)})"
            )
        test, rule = table[name][1]
        try:  # a bool passes the flag rule only, never a numeric one
            ok = isinstance(value, bool) == (test is FLAG[0]) and test(value)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


class ClassifierSpec(NamedTuple("ClassifierSpec", [("kind", str), ("hyperparams", dict)])):
    """A classifier kind with hyperparameter overrides."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, kind, hyperparams=None):
        kind_entry(kind)  # validates the kind eagerly
        return super().__new__(cls, kind, {} if hyperparams is None else hyperparams)


def make_classifier(spec, seed=None):
    """Instantiate the estimator for ``spec``. A kind with a ``seed``
    hyperparameter trains with the one ``spec`` sets, else with ``seed``
    (usually a split's derived train seed), else with its default."""
    cls = classifier_class(spec.kind)
    cls.check_params(spec.hyperparams)
    params = dict(spec.hyperparams)
    if "seed" in cls.hyperparameters and seed is not None:
        params.setdefault("seed", seed)
    return cls(**params)


def save_model(model, path):
    write_json(path, to_payload(model))


def load_model(path):
    """The model saved at ``path``; of the estimator modules, only its kind's is imported."""

    def rebuild(payload):  # any other kind is refused by the table's keys; no module loads
        kind = payload.get("kind") if isinstance(payload, dict) else None
        known = isinstance(kind, str) and kind in _CLASSES
        return from_payload(payload, {kind: classifier_class(kind)} if known else _CLASSES)

    return read_json(path, rebuild)

"""The five classifier kinds behind one fit/predict surface, plus
saving and loading them as JSON model files. A kind's estimator module,
and numpy with it, is imported when its class is first asked for."""

import importlib
from dataclasses import dataclass, field

from ..artifacts import from_payload, read_json, to_payload, write_json

# kind -> the module and the name of its estimator class, whose ``kind`` it is
_CLASSES = {
    "knn": ("knn", "KNeighborsClassifier"),
    "linear_svm": ("svm", "LinearSVM"),
    "logistic_regression": ("logistic", "LogisticRegression"),
    "mlp": ("mlp", "MLPClassifier"),
    "naive_bayes": ("naive_bayes", "MultinomialNaiveBayes"),
}

CLASSIFIER_KINDS = tuple(sorted(_CLASSES))


def classifier_class(kind):
    try:
        module, name = _CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}"
        ) from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind with hyperparameter overrides."""

    kind: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        classifier_class(self.kind)  # validates the kind eagerly


def make_classifier(spec, seed=None):
    """Instantiate the estimator for ``spec``. A kind with a ``seed``
    hyperparameter trains with the one ``spec`` sets, else with ``seed``
    (usually a split's derived train seed), else with its default."""
    cls = classifier_class(spec.kind)
    cls.check_params(spec.hyperparams)
    params = dict(spec.hyperparams)
    if "seed" in cls.constraints and seed is not None:
        params.setdefault("seed", seed)
    return cls(**params)


def save_model(model, path):
    write_json(path, to_payload(model))


def load_model(path):
    classes = {kind: classifier_class(kind) for kind in CLASSIFIER_KINDS}
    return read_json(path, lambda payload: from_payload(payload, classes))

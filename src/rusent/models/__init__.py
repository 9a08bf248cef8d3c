"""The five classifier kinds behind one fit/predict surface, plus
saving and loading them as JSON model files."""

from dataclasses import dataclass, field

from ..artifacts import from_payload, read_json, to_payload, write_json
from .knn import KNeighborsClassifier
from .logistic import LogisticRegression
from .mlp import MLPClassifier
from .naive_bayes import MultinomialNaiveBayes
from .svm import LinearSVM

_REGISTRY = {
    cls.kind: cls
    for cls in (
        MultinomialNaiveBayes,
        LogisticRegression,
        LinearSVM,
        KNeighborsClassifier,
        MLPClassifier,
    )
}

CLASSIFIER_KINDS = tuple(sorted(_REGISTRY))


def classifier_class(kind):
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}"
        ) from None


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
    return read_json(path, lambda payload: from_payload(payload, _REGISTRY))

"""The five classifier kinds behind one fit/predict surface, plus
JSON model persistence."""

from dataclasses import dataclass, field

from ..artifacts import INTS, decode_value, encode_value, fields, read_json, write_json
from ..exceptions import ArtifactError
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
    """A classifier kind with hyperparameter overrides and an optional
    fixed training seed (None means the caller derives one)."""

    kind: str
    hyperparams: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        classifier_class(self.kind)  # validates the kind eagerly


def make_classifier(spec, seed=None):
    """Instantiate the estimator for ``spec``.

    The training seed precedence is: explicit ``seed`` hyperparameter,
    then ``spec.seed``, then the caller-supplied (usually derived) seed.
    """
    cls = classifier_class(spec.kind)
    cls.check_params(spec.hyperparams)
    params = dict(spec.hyperparams)
    if "seed" in cls.constraints and "seed" not in params:
        effective = spec.seed if spec.seed is not None else seed
        if effective is not None:
            params["seed"] = effective
    return cls(**params)


def model_to_dict(model):
    """Self-describing JSON payload: kind, hyperparams, dimension, parameters."""
    return {
        "kind": model.kind,
        "hyperparams": model.get_params(),
        "dimension": model.n_features_,
        "parameters": {key: encode_value(codec, getattr(model, attr))
                       for key, attr, codec, _ in model.fitted},
    }


def model_from_dict(payload):
    """Rebuild a ``model_to_dict`` payload. A ValueError names the first key that is
    missing, breaks its rule, or holds an array whose shape disagrees with its axes."""
    kind, hyperparams, dimension, parameters = fields(
        payload, ("kind", "hyperparams", "dimension", "parameters")
    )
    if kind not in CLASSIFIER_KINDS:
        raise ArtifactError(f"kind: unknown classifier kind {kind!r}")
    cls = _REGISTRY[kind]
    fields(hyperparams, cls.constraints, "hyperparams.")
    cls.check_params(hyperparams)
    model = cls(**hyperparams)
    model.n_features_ = decode_value("dimension", INTS, dimension, (), {})
    sizes = {"dimension": model.n_features_, **hyperparams}
    for key, attr, codec, axes in cls.fitted:
        (raw,) = fields(parameters, (key,), "parameters.")
        setattr(model, attr, decode_value(f"parameters.{key}", codec, raw, axes, sizes))
    model._check_fitted()
    return model


def save_model(model, path):
    write_json(path, model_to_dict(model))


def load_model(path):
    return read_json(path, model_from_dict)

"""rusent: Roman Urdu sentiment classification toolkit.

From-scratch TF-IDF features and five classifiers (multinomial naive
Bayes, softmax logistic regression, one-vs-rest linear SVM, cosine KNN,
one-hidden-layer MLP) behind a scikit-learn-style fit/predict surface,
with a reproducible benchmark CLI.
"""

import importlib

from .models import _CLASSES

__version__ = "0.1.0"

# Public name -> the submodule it is read from on first use, so that importing
# the package, or a stage that touches no array, does not load numpy.
_SOURCES = {
    **dict.fromkeys(("LabeledComment", "Sentiment", "SplitResult", "kfold",
                     "label_distribution", "load_csv", "split"), "corpus"),
    **dict.fromkeys(("MetricsReport", "RunAggregate", "accuracy", "confusion_matrix",
                     "evaluate_once", "evaluate_specs", "metrics", "plan_splits"), "eval"),
    **dict.fromkeys(("TfidfVectorizer", "load_tfidf", "save_tfidf"), "features"),
    **dict.fromkeys(("CLASSIFIER_KINDS", "ClassifierSpec", "load_model", "make_classifier",
                     "save_model"), "models"),
    **{name: f"models.{module}" for module, name, _ in _CLASSES.values()},
    **dict.fromkeys(("TokenizedComment", "default_stopwords", "load_stopwords", "lowercase",
                     "preprocess_corpus", "preprocess_text", "remove_stopwords", "tokenize"),
                    "preprocess"),
}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)

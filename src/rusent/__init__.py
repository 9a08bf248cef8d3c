"""rusent: Roman Urdu sentiment classification toolkit.

From-scratch TF-IDF features and five classifiers (multinomial naive
Bayes, softmax logistic regression, one-vs-rest linear SVM, cosine KNN,
one-hidden-layer MLP) behind a scikit-learn-style fit/predict surface,
with a reproducible benchmark CLI.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    LabeledComment,
    Sentiment,
    SplitResult,
    kfold,
    label_distribution,
    load_csv,
    split,
)
from .eval import (
    MetricsReport,
    RunAggregate,
    accuracy,
    confusion_matrix,
    evaluate_once,
    evaluate_specs,
    metrics,
    plan_splits,
)
from .features import TfidfVectorizer, load_tfidf, save_tfidf
from .models import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    KNeighborsClassifier,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    MultinomialNaiveBayes,
    load_model,
    make_classifier,
    save_model,
)
from .preprocess import (
    StopWordList,
    TokenizedComment,
    default_stopwords,
    load_stopwords,
    lowercase,
    preprocess_corpus,
    preprocess_text,
    remove_stopwords,
    tokenize,
)

__all__ = [
    "Corpus",
    "LabeledComment",
    "Sentiment",
    "SplitResult",
    "kfold",
    "label_distribution",
    "load_csv",
    "split",
    "MetricsReport",
    "RunAggregate",
    "accuracy",
    "confusion_matrix",
    "evaluate_once",
    "evaluate_specs",
    "metrics",
    "plan_splits",
    "TfidfVectorizer",
    "load_tfidf",
    "save_tfidf",
    "CLASSIFIER_KINDS",
    "ClassifierSpec",
    "KNeighborsClassifier",
    "LinearSVM",
    "LogisticRegression",
    "MLPClassifier",
    "MultinomialNaiveBayes",
    "load_model",
    "make_classifier",
    "save_model",
    "StopWordList",
    "TokenizedComment",
    "default_stopwords",
    "load_stopwords",
    "lowercase",
    "preprocess_corpus",
    "preprocess_text",
    "remove_stopwords",
    "tokenize",
]

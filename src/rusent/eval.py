"""Confusion matrices, derived metrics, and evaluation of the full
pipeline: a split plan (``plan_splits``) fixes the repeated-run or k-fold
splits, and one loop (``evaluate_specs``) scores classifiers on them."""

from dataclasses import dataclass

import numpy as np

from .base import N_CLASSES, check_labels
from .corpus import LABEL_NAMES, Corpus, kfold, split
from .exceptions import EmptyCorpusError
from .features import TfidfVectorizer
from .models import make_classifier
from .preprocess import preprocess_corpus
from .seeding import derive_seed


def confusion_matrix(y_true, y_pred):
    """3x3 count matrix: cell[i][j] = records with true class i predicted j."""
    y_true = check_labels(y_true, name="truth labels")
    y_pred = check_labels(y_pred, name="prediction labels")
    if y_true.shape[0] != y_pred.shape[0]:
        raise ValueError(
            f"length mismatch: {y_true.shape[0]} truths vs {y_pred.shape[0]} predictions"
        )
    if y_true.shape[0] == 0:
        raise ValueError("cannot build a confusion matrix from zero records")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def _check_matrix(cm):
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}")
    if cm.min() < 0:
        raise ValueError("confusion matrix cells must be non-negative")
    if cm.sum() < 1:
        raise ValueError("confusion matrix is empty")
    return cm


def accuracy(cm):
    cm = _check_matrix(cm)
    return float(np.trace(cm) / cm.sum())


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus per-class and averaged precision/recall/F1.

    ``undefined`` lists metrics whose denominator was zero and that were
    resolved to 0.
    """

    accuracy: float
    precision: tuple
    recall: tuple
    f1: tuple
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    supports: tuple
    undefined: tuple

    def _averages(self):
        return {f"{avg}_{m}": getattr(self, f"{avg}_{m}")
                for avg in ("macro", "weighted") for m in ("precision", "recall", "f1")}

    def scalar_metrics(self):
        """Flat metric name -> value map used for aggregation and CSV export."""
        out = {"accuracy": self.accuracy, **self._averages()}
        for i, name in enumerate(LABEL_NAMES):
            out[f"precision_{name}"] = self.precision[i]
            out[f"recall_{name}"] = self.recall[i]
            out[f"f1_{name}"] = self.f1[i]
        return out

    def as_dict(self):
        return {
            "accuracy": self.accuracy,
            "per_class": [
                {
                    "class": name,
                    "precision": self.precision[i],
                    "recall": self.recall[i],
                    "f1": self.f1[i],
                    "support": self.supports[i],
                }
                for i, name in enumerate(LABEL_NAMES)
            ],
            **self._averages(),
            "undefined": list(self.undefined),
        }


def metrics(cm):
    """Derive the full metric report from a confusion matrix.

    precision_j = cm[j][j] / column j sum, recall_i = cm[i][i] / row i sum,
    F1 the harmonic mean; zero denominators resolve to 0 and are flagged.
    Macro averages are unweighted over the three classes, weighted
    averages scale by true-class support.
    """
    cm = _check_matrix(cm)
    total = cm.sum()
    row_sums = cm.sum(axis=1)
    col_sums = cm.sum(axis=0)
    diag = np.diag(cm)
    undefined = []
    precision = np.zeros(N_CLASSES)
    recall = np.zeros(N_CLASSES)
    f1 = np.zeros(N_CLASSES)
    for c, name in enumerate(LABEL_NAMES):
        if col_sums[c] == 0:
            undefined.append(f"precision:{name}")
        else:
            precision[c] = diag[c] / col_sums[c]
        if row_sums[c] == 0:
            undefined.append(f"recall:{name}")
        else:
            recall[c] = diag[c] / row_sums[c]
        if precision[c] + recall[c] == 0.0:
            undefined.append(f"f1:{name}")
        else:
            f1[c] = 2.0 * precision[c] * recall[c] / (precision[c] + recall[c])
    weights = row_sums / total
    return MetricsReport(
        accuracy=float(np.trace(cm) / total),
        precision=tuple(float(p) for p in precision),
        recall=tuple(float(r) for r in recall),
        f1=tuple(float(v) for v in f1),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float(precision @ weights),
        weighted_recall=float(recall @ weights),
        weighted_f1=float(f1 @ weights),
        supports=tuple(int(s) for s in row_sums),
        undefined=tuple(undefined),
    )


@dataclass(frozen=True)
class RunAggregate:
    """Per-run reports with mean/sample-std per metric and, when the runs
    partition the corpus (k-fold), the pooled confusion matrix."""

    per_run: tuple
    mean: dict
    std: dict
    runs: int
    seeds: tuple
    pooled_confusion: np.ndarray


def _aggregate(cms, seeds):
    reports = [metrics(cm) for cm in cms]
    keys = reports[0].scalar_metrics().keys()
    table = {k: np.array([r.scalar_metrics()[k] for r in reports]) for k in keys}
    mean = {k: float(v.mean()) for k, v in table.items()}
    if len(reports) > 1:
        std = {k: float(v.std(ddof=1)) for k, v in table.items()}
    else:
        std = {k: 0.0 for k in keys}
    return RunAggregate(
        per_run=tuple(reports),
        mean=mean,
        std=std,
        runs=len(reports),
        seeds=tuple(seeds),
        pooled_confusion=np.sum(cms, axis=0),
    )


def train_seed(seed, kind, fold=None):
    """The seed that trains ``kind`` in run ``seed``, or in fold ``fold`` of a k-fold plan."""
    prefix = "" if fold is None else f"fold{fold}:"
    return derive_seed(seed, f"{prefix}train:{kind}")


@dataclass(frozen=True)
class PlannedSplit:
    """One train/test split of a run. A repeated-protocol run reports
    ``seed``; fold i reports the seed that trains each kind on it."""

    train: Corpus
    test: Corpus
    seed: int
    fold: int | None = None

    @property
    def name(self):
        return f"seed {self.seed}" if self.fold is None else f"fold {self.fold}"

    def train_seed(self, kind):
        return train_seed(self.seed, kind, self.fold)

    def reported_seed(self, kind):
        return self.seed if self.fold is None else self.train_seed(kind)


def plan_splits(corpus, protocol, seed, *, runs=10, train_ratio=0.8, folds=10):
    """Every split a run evaluates, in order: for ``repeated``, ``runs``
    shuffle splits at ``train_ratio``, run r cut with derive_seed(seed + r,
    "split"); for ``kfold``, the folds of one derive_seed(seed, "kfold")
    permutation."""
    if protocol == "kfold":
        pairs = kfold(corpus, folds, derive_seed(seed, "kfold"))
        return [PlannedSplit(tr, te, seed, i) for i, (tr, te) in enumerate(pairs)]
    if protocol != "repeated":
        raise ValueError(f"protocol must be 'repeated' or 'kfold', got {protocol!r}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    seeds = range(seed, seed + runs)
    cuts = [split(corpus, train_ratio, derive_seed(s, "split")) for s in seeds]
    return [PlannedSplit(cut.train, cut.test, s) for s, cut in zip(seeds, cuts)]


def fit_vocabulary(part, *, fit_on_all=False, max_features=3000):
    """The tf-idf vectorizer of the planned split ``part``, fit on its train
    docs, or on train and test docs together when ``fit_on_all``."""
    docs = part.train.records + part.test.records if fit_on_all else part.train.records
    return TfidfVectorizer(max_features=max_features).fit(docs)


def evaluate_specs(specs, plan, *, fit_on_all=False, max_features=3000):
    """Fit and score every classifier spec on every split of ``plan``, a plan
    of preprocessed documents; returns one RunAggregate per spec. Each
    split's tf-idf matrices (train-only vocabulary unless ``fit_on_all``)
    are built once and shared by all specs."""
    cms = [[] for _ in specs]
    for part in plan:
        if not part.train:
            raise EmptyCorpusError("empty training partition")
        vectorizer = fit_vocabulary(part, fit_on_all=fit_on_all, max_features=max_features)
        X_train = vectorizer.transform(part.train)
        X_test = vectorizer.transform(part.test)
        y_train, y_test = part.train.labels(), part.test.labels()
        for spec, spec_cms in zip(specs, cms):
            model = make_classifier(spec, seed=part.train_seed(spec.kind))
            model.fit(X_train, y_train)
            spec_cms.append(confusion_matrix(y_test, model.predict(X_test)))
    return [_aggregate(spec_cms, [part.reported_seed(spec.kind) for part in plan])
            for spec, spec_cms in zip(specs, cms)]


def evaluate_once(spec, corpus, stopwords, *, train_ratio=0.8, fit_on_all=False,
                  max_features=3000, strip_punct=False, seed=0):
    """Run the full pipeline once on the one split of a repeated-protocol
    plan at ``seed``: preprocess, vectorize (train-only vocabulary unless
    ``fit_on_all``), train, score the held-out part."""
    docs = preprocess_corpus(corpus, stopwords, strip_punct)
    plan = plan_splits(docs, "repeated", seed, runs=1, train_ratio=train_ratio)
    (agg,) = evaluate_specs([spec], plan, fit_on_all=fit_on_all, max_features=max_features)
    return agg.pooled_confusion, agg.per_run[0]

"""Confusion matrices, derived metrics, and evaluation of the full
pipeline: a split plan (``plan_splits``) fixes the repeated-run or k-fold
splits, and ``evaluate_specs`` scores classifiers on them."""

import hashlib
import itertools
import os
from typing import NamedTuple

import numpy as np

from .base import N_CLASSES, check_labels
from .corpus import LABEL_NAMES, kfold, split
from .exceptions import EmptyCorpusError, WorkerDiedError
from .features import TermCounts, TfidfVectorizer
from .models import MAX_FEATURES, make_classifier
from .preprocess import preprocess_corpus


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
    """``cm`` as int64 counts; a cell that is not a whole number is refused, not truncated."""
    cm = np.asarray(cm)
    if cm.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}")
    if not (np.isfinite(cm) & (np.floor(cm) == cm)).all():
        raise ValueError("confusion matrix cells must be whole numbers")
    cm = cm.astype(np.int64)
    if cm.min() < 0:
        raise ValueError("confusion matrix cells must be non-negative")
    if cm.sum() < 1:
        raise ValueError("confusion matrix is empty")
    return cm


def accuracy(cm):
    return metrics(cm).accuracy


class MetricsReport(NamedTuple):
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
    with np.errstate(invalid="ignore"):  # a zero denominator has a zero numerator: 0/0
        precision = np.where(col_sums == 0, 0.0, diag / col_sums)
        recall = np.where(row_sums == 0, 0.0, diag / row_sums)
        both = precision + recall
        f1 = np.where(both == 0.0, 0.0, 2.0 * precision * recall / both)
    zero = np.array([col_sums == 0, row_sums == 0, both == 0.0]).T  # class, metric
    undefined = tuple(f"{('precision', 'recall', 'f1')[m]}:{LABEL_NAMES[c]}"
                      for c, m in np.argwhere(zero))
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
        undefined=undefined,
    )


class RunAggregate(NamedTuple):
    """Per-run reports with mean/sample-std per metric and, when the runs
    partition the corpus (k-fold), the pooled confusion matrix."""

    per_run: tuple
    mean: dict
    std: dict
    seeds: tuple
    pooled_confusion: np.ndarray


def _aggregate(cms, seeds):
    reports = [metrics(cm) for cm in cms]
    rows = [r.scalar_metrics() for r in reports]
    table = {k: np.array([row[k] for row in rows]) for k in rows[0]}
    mean = {k: float(v.mean()) for k, v in table.items()}
    std = {k: float(v.std(ddof=1)) if len(reports) > 1 else 0.0 for k, v in table.items()}
    return RunAggregate(
        per_run=tuple(reports),
        mean=mean,
        std=std,
        seeds=tuple(seeds),
        pooled_confusion=np.sum(cms, axis=0),
    )


def derive_seed(base_seed, label):
    """Hash ``label`` into ``base_seed`` and return an unsigned 64-bit seed."""
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def train_seed(seed, kind, fold=None):
    """The seed that trains ``kind`` in run ``seed``, or in fold ``fold`` of a k-fold plan."""
    prefix = "" if fold is None else f"fold{fold}:"
    return derive_seed(seed, f"{prefix}train:{kind}")


class PlannedSplit(NamedTuple):
    """One split of a plan: repeated-protocol run ``seed``, or fold ``fold`` at base ``seed``."""

    train: tuple
    test: tuple
    seed: int
    fold: int | None = None

    @property
    def name(self):
        return f"seed {self.seed}" if self.fold is None else f"fold {self.fold}"

    def train_seed(self, kind):
        return train_seed(self.seed, kind, self.fold)


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
    if not cuts[0].train:  # every cut is the same size
        raise EmptyCorpusError(f"train_ratio {train_ratio} leaves none of the "
                               f"{len(corpus)} records to train on")
    return [PlannedSplit(cut.train, cut.test, s) for s, cut in zip(seeds, cuts)]


def fit_vocabulary(part, *, fit_on_all=False, max_features=MAX_FEATURES, counted=TermCounts):
    """The tf-idf vectorizer of the planned split ``part``, fit on the ``counted``
    train docs, or on train and test docs together when ``fit_on_all``."""
    docs = part.train + part.test if fit_on_all else part.train
    return TfidfVectorizer(max_features=max_features).fit(counted(docs))


def _fit_predict(cell):
    """The test predictions of a cell ``(model, X_train, y_train, X_test)``, its model
    unfitted; or, of a cell with a piece number appended, that piece of its fit."""
    model, X_train, y_train, X_test, *piece = cell
    if piece:
        return model.fit_piece(X_train, y_train, *piece)
    return model.fit(X_train, y_train).predict(X_test)


def _merged(cells, pieces, done):
    """Each cell's predictions from ``done``: its task's, or its fit finished from its pieces'."""
    for (model, X_train, y_train, X_test), n in zip(cells, pieces):
        parts = [next(done) for _ in range(n)]
        yield parts[0] if n == 1 else model.fit(X_train, y_train, parts).predict(X_test)


def evaluate_specs(specs, plan, *, fit_on_all=False, max_features=MAX_FEATURES):
    """Fit and score every classifier spec on every split of ``plan``, a plan
    of preprocessed documents; returns one RunAggregate per spec. Every split's
    tf-idf matrices (train-only vocabulary unless ``fit_on_all``), from one
    count of the plan's terms, and every cell's model are built first: a plan
    that cannot be built raises its build error before any fit. The cells, one
    per split and spec, are fit in forked workers, one per cell and allowed CPU,
    or here if that is one; with fewer splits than CPUs, a cell whose fit has
    independent pieces is a task per piece. The results, and the first cell
    error, are read in plan order. A worker that dies fails with WorkerDiedError."""
    import multiprocessing  # here, so that only scoring cells loads these
    import signal
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    if not plan:
        raise ValueError("the split plan is empty: there is no split to evaluate")
    cells = []  # per split and spec, in plan order
    docs = {id(d): d for part in plan for side in (part.train, part.test) for d in side}
    counts, row = TermCounts(docs.values()), dict(zip(docs, range(len(docs))))

    def counted(side):  # the rows of the plan's counts that hold ``side``
        return counts.take(np.fromiter(map(row.__getitem__, map(id, side)), np.int64))

    for part in plan:
        if not part.train:
            raise EmptyCorpusError("empty training partition")
        vectorizer = fit_vocabulary(part, fit_on_all=fit_on_all, max_features=max_features,
                                    counted=counted)
        X_train, X_test = map(vectorizer.transform, map(counted, (part.train, part.test)))
        y_train = np.array([d.label for d in part.train], dtype=np.int64)
        cells += [(make_classifier(spec, seed=part.train_seed(spec.kind)), X_train, y_train,
                   X_test) for spec in specs]
    affinity = getattr(os, "sched_getaffinity", None)  # every platform with it can fork
    cpus = len(affinity(0)) if affinity else 1
    pieces = [model.pieces if len(plan) < cpus else 1 for model, *_ in cells]
    tasks = [cell + (i,) if n > 1 else cell for cell, n in zip(cells, pieces) for i in range(n)]
    workers, pool = min(len(tasks), cpus), None
    if workers > 1:
        import scipy.sparse  # before the fork, so that every worker inherits it
        # The workers ignore SIGINT. On any error here, a KeyboardInterrupt
        # too, the tasks not yet started are cancelled and the running ones finish
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        results = list(_merged(cells, pieces, (pool.map if pool else map)(_fit_predict, tasks)))
    except BrokenExecutor as exc:  # the executor has stopped the other workers
        raise WorkerDiedError(f"a worker process scoring the cells died ({exc})") from None
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    scored = [[] for _ in specs]  # per spec: (confusion matrix, reported seed) per split
    # a fold reports its model's seed, if its kind has one
    for (part, i), (model, *_), predicted in zip(
            itertools.product(plan, range(len(specs))), cells, results):
        seed = part.seed if part.fold is None else getattr(
            model, "seed", part.train_seed(model.kind))
        scored[i].append((confusion_matrix([d.label for d in part.test], predicted), seed))
    return [_aggregate(*zip(*spec_cells)) for spec_cells in scored]


def evaluate_once(spec, corpus, stopwords, *, train_ratio=0.8, fit_on_all=False,
                  max_features=MAX_FEATURES, strip_punct=False, seed=0):
    """Run the full pipeline once on the one split of a repeated-protocol
    plan at ``seed``: preprocess, vectorize (train-only vocabulary unless
    ``fit_on_all``), train, score the held-out part."""
    docs = preprocess_corpus(corpus, stopwords, strip_punct)
    plan = plan_splits(docs, "repeated", seed, runs=1, train_ratio=train_ratio)
    (agg,) = evaluate_specs([spec], plan, fit_on_all=fit_on_all, max_features=max_features)
    return agg.pooled_confusion, agg.per_run[0]

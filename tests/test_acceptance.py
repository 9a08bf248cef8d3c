"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not calibrated elsewhere."""

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from rusent import (
    CLASSIFIER_KINDS,
    KNeighborsClassifier,
    LinearSVM,
    LogisticRegression,
    MultinomialNaiveBayes,
    TfidfVectorizer,
    accuracy,
    kfold,
    metrics,
    preprocess_corpus,
    split,
)
from rusent.cli import main
from rusent.models.logistic import softmax_objective
from rusent.models.mlp import init_params, mlp_objective
from rusent.models.svm import hinge_objective

from conftest import (
    REFERENCE_CONFUSIONS,
    as_dicts,
    build_corpus,
    central_diff,
    label_codes,
    random_tfidf_instance,
    relative_error,
    three_class_corpus,
    two_class_corpus,
)
from test_knn import knn_oracle, random_unit_matrix
from test_naive_bayes import brute_force_posteriors

DATASET_ENV = "RUSENT_DATASET"


def _report(number, name, outcome):
    print(f"[criterion {number}] {name}: {outcome}")


def _check(number, name, ok):
    _report(number, name, "PASS" if ok else "FAIL")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_metric_engine_fixtures():
    expected = {
        "naive_bayes": Fraction(950, 1465),
        "logistic_regression": Fraction(948, 1465),
        "linear_svm": Fraction(958, 1465),
        "mlp": Fraction(833, 1465),
    }
    ok = True
    values = {}
    for kind, frac in expected.items():
        cm = np.array(REFERENCE_CONFUSIONS[kind])
        value = accuracy(cm)
        values[kind] = value
        ok &= abs(value - float(frac)) <= 1e-9
        report = metrics(cm)
        ok &= abs(report.accuracy - float(frac)) <= 1e-9
    # headline value consistent with the published 64% within rounding slack
    ok &= abs(values["linear_svm"] - 0.64) <= 0.02
    # the SVM fixture ranks first among the four distinct matrices
    ok &= values["linear_svm"] == max(values.values())
    _check(1, "metric-engine fixtures", ok)


def test_criterion_2_full_dataset_reproduction(tmp_path):
    dataset = os.environ.get(DATASET_ENV)
    if not dataset or not os.path.exists(dataset):
        _report(2, "full-dataset reproduction", "SKIP (set RUSENT_DATASET to run)")
        pytest.skip(f"{DATASET_ENV} not set; conditional check skipped")
    out = tmp_path / "full"
    rc = main(
        [
            "compare",
            "--dataset",
            dataset,
            "--out",
            str(out),
            "--fit-on-all",
            "--skip-bad-rows",
        ]
    )
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    svm_mean = payload["classifiers"]["linear_svm"]["mean"]["accuracy"]
    flag = "" if abs(svm_mean - 0.64) <= 0.05 else " [DEVIATES from 0.64 +/- 0.05]"
    # non-gating: the measured value is reported, not asserted
    _report(2, "full-dataset reproduction", f"PASS (svm mean accuracy {svm_mean:.4f}{flag})")


def test_criterion_3_gradient_suite():
    worst = 0.0
    for seed in range(20):
        X, y = random_tfidf_instance(seed, n_docs=5, vocab_size=4)
        rng = np.random.default_rng(seed + 11000)

        W = rng.normal(size=(3, X.shape[1]))
        b = rng.normal(size=3)
        l2 = float(rng.uniform(0.0, 0.1))
        _, grad_W, grad_b = softmax_objective(W, b, X, y, l2)
        fd_W = central_diff(
            lambda w: softmax_objective(w.reshape(3, -1), b, X, y, l2)[0],
            W.ravel(),
        )
        fd_b = central_diff(lambda bb: softmax_objective(W, bb, X, y, l2)[0], b)
        worst = max(worst, relative_error(grad_W.ravel(), fd_W))
        worst = max(worst, relative_error(grad_b, fd_b))

        ys = np.where(y == int(rng.integers(0, 3)), 1.0, -1.0)
        C = float(rng.uniform(0.2, 3.0))
        for _ in range(100):
            w = rng.normal(size=X.shape[1])
            bias = float(rng.normal())
            if np.all(np.abs(ys * (X @ w + bias) - 1.0) > 1e-3):
                break
        _, grad_w, grad_bias = hinge_objective(w, bias, X, ys, C)
        fd_w = central_diff(lambda ww: hinge_objective(ww, bias, X, ys, C)[0], w)
        fd_bias = central_diff(
            lambda bb: hinge_objective(w, float(bb[0]), X, ys, C)[0],
            np.array([bias]),
        )
        worst = max(worst, relative_error(grad_w, fd_w))
        worst = max(worst, relative_error(np.array([grad_bias]), fd_bias))

        Xm, ym = random_tfidf_instance(seed + 500, n_docs=4, vocab_size=3)
        params = init_params(Xm.shape[1], 2, rng)
        params = tuple(p + rng.normal(scale=0.3, size=p.shape) for p in params)
        _, grads = mlp_objective(params, Xm, ym)
        for idx in range(4):
            def loss_with(flat, i=idx):
                trial = list(params)
                trial[i] = flat.reshape(params[i].shape)
                return mlp_objective(tuple(trial), Xm, ym)[0]

            fd = central_diff(loss_with, params[idx].ravel().copy())
            worst = max(worst, relative_error(grads[idx].ravel(), fd))
    _check(3, f"gradient suite (worst relative error {worst:.2e})", worst < 1e-4)


def test_criterion_4_oracle_equivalence():
    ok = True
    # naive Bayes vs exhaustive Bayes rule on every small instance
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n_docs = int(rng.integers(3, 9))
        vocab = int(rng.integers(2, 7))
        X, _ = random_tfidf_instance(seed + 2000, n_docs=n_docs, vocab_size=vocab)
        y = rng.integers(0, 3, size=n_docs)
        alpha = float(rng.uniform(0.2, 2.0))
        model = MultinomialNaiveBayes(alpha=alpha, allow_missing_class=True).fit(X, y)
        rows = as_dicts(X)
        scores = model.decision_scores(X)
        for i, row in enumerate(rows):
            expected = brute_force_posteriors(rows, y, alpha, row, X.shape[1])
            ok &= bool(np.max(np.abs(scores[i] - np.array(expected))) <= 1e-9)

    # knn vs brute-force full sort across 100 seeds
    for seed in range(100):
        rng = np.random.default_rng(seed + 4000)
        n = int(rng.integers(3, 48))
        V = int(rng.integers(2, 10))
        X = random_unit_matrix(rng, n, V)
        X = sp.vstack([X, X[: min(3, n - 1)]]).tocsr()
        y = rng.integers(0, 3, size=X.shape[0])
        k = int(rng.integers(1, X.shape[0] + 1))
        model = KNeighborsClassifier(k=k).fit(X, y)
        queries = sp.vstack([random_unit_matrix(rng, 4, V), X[0]]).tocsr()
        preds = model.predict(queries)
        train_rows = as_dicts(X)
        for i, q in enumerate(as_dicts(queries)):
            ok &= int(preds[i]) == knn_oracle(train_rows, y, q, k)[0]
    _check(4, "oracle equivalence (naive Bayes, knn)", ok)


def test_criterion_5_tfidf_properties():
    ok = True
    # worked 3-document example
    docs = [["acha", "drama"], ["acha", "acha", "bura"], ["drama", "bura", "bura"]]
    vec = TfidfVectorizer().fit(docs)
    ok &= bool(np.all(np.abs(vec.idf_ - 1.2876820724517808) <= 1e-6))
    row = vec.transform([docs[0]]).toarray()[0]
    nonzero = row[row > 0]
    ok &= len(nonzero) == 2
    ok &= bool(np.all(np.abs(nonzero - 0.7071067811865475) <= 1e-6))

    # unit norms and idf monotonicity on random corpora
    rng = np.random.default_rng(123)
    terms = [f"t{i}" for i in range(40)]
    rand_docs = [
        list(rng.choice(terms, size=int(rng.integers(1, 10)))) for _ in range(80)
    ]
    rand_docs.append([])
    model = TfidfVectorizer(max_features=25).fit(rand_docs)
    X = model.transform(rand_docs)
    norms = np.sqrt((X.toarray() ** 2).sum(axis=1))
    ok &= bool(np.all((np.abs(norms - 1.0) <= 1e-9) | (norms == 0.0)))
    order = np.argsort(model.document_frequency_)
    df_sorted = model.document_frequency_[order]
    idf_sorted = model.idf_[order]
    for i in range(len(df_sorted) - 1):
        if df_sorted[i] < df_sorted[i + 1]:
            ok &= idf_sorted[i] > idf_sorted[i + 1]
    _check(5, "tf-idf worked example and properties", ok)


def test_criterion_6_separability():
    ok = True
    corpus = two_class_corpus(200, seed=42)
    empty_sw = frozenset()
    for seed in range(10):
        result = split(corpus, 0.8, seed)
        train_docs = preprocess_corpus(result.train, empty_sw)
        test_docs = preprocess_corpus(result.test, empty_sw)
        vec = TfidfVectorizer().fit(train_docs)
        X_train = vec.transform(train_docs)
        X_test = vec.transform(test_docs)
        y_train = label_codes(result.train)
        y_test = label_codes(result.test)
        # C weights the mean hinge against (1/2)||w||^2; it must be large
        # enough that the objective's optimum actually separates unit-norm
        # rows (at C=1 the regularizer wins and the optimum underfits)
        for model in (LogisticRegression(), LinearSVM(C=100.0, seed=seed)):
            model.fit(X_train, y_train)
            train_acc = float(np.mean(model.predict(X_train) == y_train))
            test_acc = float(np.mean(model.predict(X_test) == y_test))
            ok &= train_acc == 1.0
            ok &= test_acc >= 0.95
    _check(6, "separable-corpus convergence (lr, svm)", ok)


def test_criterion_7_partition_properties():
    ok = True
    rng = np.random.default_rng(2468)
    for _ in range(200):
        n = int(rng.integers(2, 150))
        k = int(rng.integers(2, n + 1))
        seed = int(rng.integers(0, 2**63))
        corpus = build_corpus([(f"t{i}", "neutral") for i in range(n)])
        folds = kfold(corpus, k, seed)
        sizes = [len(test) for _, test in folds]
        ok &= max(sizes) - min(sizes) <= 1
        covered = sorted(r.row_id for _, test in folds for r in test)
        ok &= covered == list(range(n))
        for train, test in folds[:2]:
            ok &= not ({r.row_id for r in train} & {r.row_id for r in test})

        ratio = float(rng.uniform(0.05, 0.95))
        result = split(corpus, ratio, seed)
        ok &= len(result.train) == math.floor(Fraction(ratio) * n)
        train_ids = {r.row_id for r in result.train}
        test_ids = {r.row_id for r in result.test}
        ok &= not (train_ids & test_ids)
        ok &= len(train_ids) + len(test_ids) == n
    _check(7, "partition properties (split, kfold)", ok)


def test_criterion_8_compare_determinism(tmp_path, monkeypatch):
    corpus = three_class_corpus(500, seed=99)
    data = tmp_path / "synthetic.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["comment", "sentiment", "nan"])
        for record in corpus:
            writer.writerow([record.text, record.label.label, "nan"])
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    settings = f"""dataset = {data}
out = {out}
seed = 17
runs = 2
logistic_regression.epochs = 30
linear_svm.epochs = 30
mlp.epochs = 5
mlp.hidden_units = 8
"""
    config.write_text(settings, encoding="utf-8")
    identical = True
    for protocol in ("repeated", "kfold"):
        args = ["compare", "--config", str(config), "--protocol", protocol]
        assert main(args) == 0
        first = (out / "metrics.json").read_bytes()
        assert json.loads(first)["protocol"]["name"] == protocol
        assert main(args) == 0
        second = (out / "metrics.json").read_bytes()
        identical &= first == second and len(first) > 0
    # The same outputs whether the cells are scored in this process (one
    # allowed CPU) or in two forked workers. With mlp.seed set, every fold
    # reports that seed, which the parent reads from the spec.
    outputs = ["metrics.json", "metrics.csv", "ranking.txt",
               *(f"confusion_{kind}.csv" for kind in CLASSIFIER_KINDS)]
    for extra in ("", "mlp.seed = 5\n"):
        config.write_text(settings + extra, encoding="utf-8")
        for protocol in ("repeated", "kfold"):
            runs = []
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                    raising=False)
                assert main(["compare", "--config", str(config), "--protocol", protocol]) == 0
                runs.append([(out / name).read_bytes() for name in outputs])
            identical &= runs[0] == runs[1]
            if extra:
                seeds = json.loads(runs[1][0])["classifiers"]["mlp"]["seeds"]
                identical &= seeds == ([17, 18] if protocol == "repeated" else [5] * 10)
    _check(8, "byte-identical compare reruns (repeated and kfold, one CPU or two)",
           identical)

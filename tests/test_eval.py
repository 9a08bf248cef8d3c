import concurrent.futures
import contextlib
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from rusent import (
    ClassifierSpec,
    accuracy,
    confusion_matrix,
    default_stopwords,
    evaluate_once,
    evaluate_specs,
    kfold,
    metrics,
    plan_splits,
    preprocess_corpus,
    split,
)
from rusent import eval as evaluation
from rusent.corpus import LABEL_NAMES, Sentiment
from rusent.eval import MetricsReport, PlannedSplit, _fit_predict, derive_seed, fit_vocabulary
from rusent.exceptions import DivergedError, EmptyCorpusError, MissingClassError
from rusent.preprocess import TokenizedComment

from conftest import REFERENCE_CONFUSIONS, build_corpus, three_class_corpus, write_rows


def exact_report(cells):
    """Exact rational recomputation of every metric from raw cells."""
    cells = [[Fraction(v) for v in row] for row in cells]
    total = sum(sum(row) for row in cells)
    out = {"accuracy": sum(cells[i][i] for i in range(3)) / total}
    precision, recall, f1, support = [], [], [], []
    for c in range(3):
        col = sum(cells[r][c] for r in range(3))
        row = sum(cells[c])
        p = cells[c][c] / col if col else Fraction(0)
        r = cells[c][c] / row if row else Fraction(0)
        f = 2 * p * r / (p + r) if p + r else Fraction(0)
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(row)
    out["precision"] = precision
    out["recall"] = recall
    out["f1"] = f1
    out["macro_precision"] = sum(precision) / 3
    out["macro_recall"] = sum(recall) / 3
    out["macro_f1"] = sum(f1) / 3
    out["weighted_precision"] = sum(p * s for p, s in zip(precision, support)) / total
    out["weighted_recall"] = sum(r * s for r, s in zip(recall, support)) / total
    out["weighted_f1"] = sum(f * s for f, s in zip(f1, support)) / total
    return out


def loop_report(cm):
    """``metrics`` as a per-class loop with a branch per zero denominator: the
    reference whose floats, bit for bit, and ``undefined`` it must give."""
    cm = np.asarray(cm, dtype=np.int64)
    total = cm.sum()
    row_sums = cm.sum(axis=1)
    col_sums = cm.sum(axis=0)
    diag = np.diag(cm)
    undefined = []
    precision, recall, f1 = np.zeros((3, 3))
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


def report_bits(report):
    """Every field of ``report``, each float as its eight bytes, so -0.0 is not 0.0."""
    def bits(value):
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        return np.float64(value).tobytes() if isinstance(value, float) else value
    return [bits(getattr(report, field)) for field in report._fields]


class TestConfusionMatrix:
    def test_hand_enumerated(self):
        truth = [0, 1, 2, 2]
        pred = [1, 1, 2, 0]
        cm = confusion_matrix(truth, pred)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 1
        expected[1, 1] = 1
        expected[2, 2] = 1
        expected[2, 0] = 1
        np.testing.assert_array_equal(cm, expected)
        assert cm.sum() == 4

    def test_perfect_predictions_are_diagonal(self):
        truth = [0, 1, 2, 1, 0]
        cm = confusion_matrix(truth, truth)
        assert np.all(cm == np.diag(np.diag(cm)))

    def test_constant_predictor_fills_one_column(self):
        truth = [0, 0, 1, 2, 2, 2]
        pred = [1] * 6
        cm = confusion_matrix(truth, pred)
        assert cm[:, 1].tolist() == [2, 1, 3]
        assert cm[:, 0].sum() == 0 and cm[:, 2].sum() == 0

    def test_row_sums_are_supports(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, size=50)
        pred = rng.integers(0, 3, size=50)
        cm = confusion_matrix(truth, pred)
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(truth, minlength=3))
        np.testing.assert_array_equal(cm.sum(axis=0), np.bincount(pred, minlength=3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion_matrix([0, 1], [0])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [])

    @pytest.mark.parametrize(
        "truth, pred, name",
        [([0.5, 1.5, 2.5], [0, 1, 2], "truth"), ([0, 1, 2], [0, 1, 1.9], "prediction"),
         ([0, 1, 3], [0, 1, 2], "truth"), ([0, 1, 2], [-1, 1, 2], "prediction")],
        ids=["fractional-truth", "fractional-prediction", "truth-above", "prediction-below"],
    )
    def test_label_that_is_not_a_class_code(self, truth, pred, name):
        # a fractional label is refused, not truncated to a class code
        with pytest.raises(ValueError, match=rf"^{name} labels must be class codes in \[0, 3\)$"):
            confusion_matrix(truth, pred)


class TestAccuracy:
    def test_reference_matrices(self):
        expected = {
            "naive_bayes": Fraction(950, 1465),
            "logistic_regression": Fraction(948, 1465),
            "linear_svm": Fraction(958, 1465),
            "mlp": Fraction(833, 1465),
        }
        for kind, frac in expected.items():
            cm = np.array(REFERENCE_CONFUSIONS[kind])
            assert accuracy(cm) == pytest.approx(float(frac), abs=1e-9)

    def test_diagonal_matrix_is_perfect(self):
        assert accuracy(np.diag([5, 3, 2])) == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 3), dtype=int))

    @pytest.mark.parametrize("cell", [2.7, 0.5, np.nan, np.inf], ids=["2.7", "0.5", "nan", "inf"])
    def test_cell_that_is_not_a_count_rejected(self, cell):
        # a fractional cell is refused, not truncated to a count
        cm = [[2.0, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert accuracy(cm) == metrics(cm).accuracy == 1.0
        cm[0][0] = cell
        for score in (accuracy, metrics):
            with pytest.raises(ValueError, match="^confusion matrix cells must be whole numbers$"):
                score(cm)

    @pytest.mark.parametrize("cm, message", [
        (np.ones((2, 2)), "confusion matrix must be 3x3"),
        ([[2, 0, 0], [0, -1, 0], [0, 0, 1]], "confusion matrix cells must be non-negative"),
    ], ids=["2x2", "negative-cell"])
    def test_matrix_that_is_not_a_count_table_rejected(self, cm, message):
        for score in (accuracy, metrics):
            with pytest.raises(ValueError, match=f"^{message}$"):
                score(cm)


class TestMetrics:
    def test_reference_svm_class0(self):
        report = metrics(np.array(REFERENCE_CONFUSIONS["linear_svm"]))
        assert report.precision[0] == pytest.approx(165 / 271, abs=1e-9)
        assert report.recall[0] == pytest.approx(165 / 321, abs=1e-9)

    @pytest.mark.parametrize("kind", sorted(REFERENCE_CONFUSIONS))
    def test_reference_matrices_match_exact_arithmetic(self, kind):
        cm = np.array(REFERENCE_CONFUSIONS[kind])
        report = metrics(cm)
        expected = exact_report(REFERENCE_CONFUSIONS[kind])
        assert report.accuracy == pytest.approx(float(expected["accuracy"]), abs=1e-9)
        for c in range(3):
            assert report.precision[c] == pytest.approx(
                float(expected["precision"][c]), abs=1e-9
            )
            assert report.recall[c] == pytest.approx(
                float(expected["recall"][c]), abs=1e-9
            )
            assert report.f1[c] == pytest.approx(float(expected["f1"][c]), abs=1e-9)
        for key in (
            "macro_precision",
            "macro_recall",
            "macro_f1",
            "weighted_precision",
            "weighted_recall",
            "weighted_f1",
        ):
            assert getattr(report, key) == pytest.approx(float(expected[key]), abs=1e-9)

    def test_every_float_is_the_per_class_loop_to_the_bit(self):
        # small and large counts, with zero rows and zero columns in most matrices
        rng = np.random.default_rng(26)
        checked = set()
        for scale in (2, 6, 40, 10**6):
            cms = rng.integers(0, scale, size=(1500, 3, 3))
            cms[rng.random((1500, 3)) < 0.3] = 0
            cms.transpose(0, 2, 1)[rng.random((1500, 3)) < 0.3] = 0
            for cm in cms[cms.sum(axis=(1, 2)) > 0]:
                report = metrics(cm)
                assert report_bits(report) == report_bits(loop_report(cm)), cm.tolist()
                checked.update(report.undefined)
        assert len(checked) == 9  # each metric of each class was undefined somewhere

    def test_perfect_diagonal(self):
        report = metrics(np.diag([4, 4, 4]))
        assert report.accuracy == 1.0
        assert report.precision == (1.0, 1.0, 1.0)
        assert report.recall == (1.0, 1.0, 1.0)
        assert report.f1 == (1.0, 1.0, 1.0)
        assert report.undefined == ()

    def test_never_predicted_class_flagged(self):
        # class 2 never predicted: zero column
        cm = np.array([[5, 1, 0], [2, 6, 0], [1, 3, 0]])
        report = metrics(cm)
        assert report.precision[2] == 0.0
        assert "precision:positive" in report.undefined
        assert "f1:positive" in report.undefined

    def test_absent_class_recall_flagged(self):
        cm = np.array([[5, 1, 0], [2, 6, 1], [0, 0, 0]])
        report = metrics(cm)
        assert report.recall[2] == 0.0
        assert "recall:positive" in report.undefined

    def test_bounds_and_f1_below_max(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            truth = rng.integers(0, 3, size=40)
            pred = rng.integers(0, 3, size=40)
            report = metrics(confusion_matrix(truth, pred))
            values = [report.accuracy, *report.precision, *report.recall, *report.f1]
            assert all(0.0 <= v <= 1.0 for v in values)
            for c in range(3):
                assert report.f1[c] <= max(report.precision[c], report.recall[c]) + 1e-12

    def test_macro_invariant_under_label_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            truth = rng.integers(0, 3, size=60)
            pred = rng.integers(0, 3, size=60)
            perm = rng.permutation(3)
            base = metrics(confusion_matrix(truth, pred))
            mapped = metrics(confusion_matrix(perm[truth], perm[pred]))
            assert mapped.macro_precision == pytest.approx(base.macro_precision, abs=1e-12)
            assert mapped.macro_recall == pytest.approx(base.macro_recall, abs=1e-12)
            assert mapped.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)
            assert mapped.accuracy == pytest.approx(base.accuracy, abs=1e-12)


class TestEvaluateOnce:
    def test_constant_label_corpus_perfect(self):
        corpus = build_corpus([(f"acha tha {i}", "positive") for i in range(20)])
        spec = ClassifierSpec("naive_bayes", {"allow_missing_class": True})
        cm, report = evaluate_once(spec, corpus, frozenset(), seed=0)
        assert report.accuracy == 1.0
        assert cm.sum() == 4  # 20% of 20

    def test_separable_corpus_svm_perfect(self):
        from conftest import two_class_corpus

        corpus = two_class_corpus(60, seed=2)
        spec = ClassifierSpec("linear_svm", {"C": 100.0})
        for seed in (0, 1):
            cm, report = evaluate_once(spec, corpus, frozenset(), seed=seed)
            assert report.accuracy == 1.0

    def test_svm_scores_alike_on_one_cpu_and_on_two(self, monkeypatch):
        # On two CPUs the one split's SVM fit is three tasks, one per
        # one-vs-rest problem, in forked workers; on one, a cell here.
        corpus = three_class_corpus(90, seed=5)
        spec = ClassifierSpec("linear_svm", {"epochs": 40})
        scored = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            scored.append(evaluate_once(spec, corpus, default_stopwords(), seed=3))
        np.testing.assert_array_equal(scored[0][0], scored[1][0])
        assert scored[0][1] == scored[1][1]

    def test_deterministic(self):
        corpus = three_class_corpus(60, seed=3)
        spec = ClassifierSpec("mlp", {"hidden_units": 4, "epochs": 5})
        a_cm, a_rep = evaluate_once(spec, corpus, default_stopwords(), seed=4)
        b_cm, b_rep = evaluate_once(spec, corpus, default_stopwords(), seed=4)
        np.testing.assert_array_equal(a_cm, b_cm)
        assert a_rep == b_rep


def evaluate_one(spec, corpus, stopwords, protocol, seed, **plan_options):
    """The RunAggregate of ``spec`` alone on the plan of ``protocol``."""
    plan = plan_splits(preprocess_corpus(corpus, stopwords), protocol, seed, **plan_options)
    return evaluate_specs([spec], plan)[0]


class TestEvaluateRepeated:
    def test_single_run_mean_and_zero_std(self):
        corpus = three_class_corpus(45, seed=1)
        spec = ClassifierSpec("naive_bayes")
        agg = evaluate_one(spec, corpus, default_stopwords(), "repeated", 7, runs=1)
        assert len(agg.per_run) == 1
        assert agg.seeds == (7,)
        assert agg.mean["accuracy"] == agg.per_run[0].accuracy
        assert all(v == 0.0 for v in agg.std.values())

    def test_constant_label_corpus(self):
        corpus = build_corpus([(f"acha {i}", "positive") for i in range(30)])
        spec = ClassifierSpec("naive_bayes", {"allow_missing_class": True})
        agg = evaluate_one(spec, corpus, frozenset(), "repeated", 0, runs=10)
        assert agg.mean["accuracy"] == 1.0
        assert agg.std["accuracy"] == 0.0

    def test_structure(self):
        corpus = three_class_corpus(45, seed=2)
        spec = ClassifierSpec("knn", {"k": 3})
        agg = evaluate_one(spec, corpus, default_stopwords(), "repeated", 10, runs=4)
        assert len(agg.per_run) == 4
        assert agg.seeds == (10, 11, 12, 13)
        assert agg.pooled_confusion.sum() == 4 * 9  # 20% of 45 per run

    def test_invalid_runs(self):
        corpus = three_class_corpus(20, seed=0)
        with pytest.raises(ValueError):
            evaluate_one(ClassifierSpec("knn"), corpus, default_stopwords(), "repeated", 0,
                         runs=0)


class TestCrossValidate:
    def test_kfold_pooled_matrix_covers_corpus(self):
        corpus = three_class_corpus(50, seed=4)
        spec = ClassifierSpec("naive_bayes")
        agg = evaluate_one(spec, corpus, default_stopwords(), "kfold", 1, folds=5)
        assert len(agg.per_run) == 5
        assert agg.pooled_confusion.sum() == 50

    def test_ten_fold_train_fraction(self):
        corpus = three_class_corpus(60, seed=5)
        spec = ClassifierSpec("knn", {"k": 3})
        agg = evaluate_one(spec, corpus, default_stopwords(), "kfold", 0, folds=10)
        # each fold trains on 90% of the records (54 of 60)
        assert agg.pooled_confusion.sum() == 60
        assert len(agg.per_run) == 10

    def test_constant_label_every_fold_perfect(self):
        corpus = build_corpus([(f"acha {i}", "positive") for i in range(24)])
        spec = ClassifierSpec("naive_bayes", {"allow_missing_class": True})
        agg = evaluate_one(spec, corpus, frozenset(), "kfold", 0, folds=4)
        assert all(r.accuracy == 1.0 for r in agg.per_run)

    def test_k_out_of_range(self):
        corpus = three_class_corpus(10, seed=0)
        with pytest.raises(ValueError):
            evaluate_one(ClassifierSpec("knn"), corpus, default_stopwords(), "kfold", 0,
                         folds=1)


class TestSplitPlan:
    def test_seed_rules(self):
        corpus = three_class_corpus(30, seed=1)
        (run,) = plan_splits(corpus, "repeated", 4, runs=1, train_ratio=0.7)
        assert run.train == split(corpus, 0.7, derive_seed(4, "split")).train
        assert run.train_seed("knn") == derive_seed(4, "train:knn")
        folds = plan_splits(corpus, "kfold", 4, folds=3)
        assert [(f.train, f.test) for f in folds] == kfold(corpus, 3, derive_seed(4, "kfold"))
        fold_seed = derive_seed(4, "fold2:train:mlp")
        assert folds[2].train_seed("mlp") == fold_seed

    @pytest.mark.parametrize("protocol", ["repeated", "kfold"])
    def test_reported_seed_is_the_one_each_model_trained_with(self, protocol):
        # a spec's own seed trains every fold's model, so every fold reports it;
        # a repeated run reports its run seed either way
        docs = preprocess_corpus(three_class_corpus(30, seed=1), default_stopwords())
        plan = plan_splits(docs, protocol, 4, runs=2, folds=3)
        svm = {"epochs": 2}
        own, hashed, nb = evaluate_specs([ClassifierSpec("linear_svm", {**svm, "seed": 5}),
                                          ClassifierSpec("linear_svm", svm),
                                          ClassifierSpec("naive_bayes")], plan)
        if protocol == "repeated":
            assert own.seeds == hashed.seeds == nb.seeds == (4, 5)
        else:
            assert own.seeds == (5, 5, 5)
            assert hashed.seeds == tuple(p.train_seed("linear_svm") for p in plan)
            assert nb.seeds == tuple(p.train_seed("naive_bayes") for p in plan)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            plan_splits(three_class_corpus(10, seed=0), "holdout", 0)


class TestEvaluateSpecs:
    SPECS = [
        ClassifierSpec("knn", {"k": 3}),
        ClassifierSpec("linear_svm", {"epochs": 20}),
        ClassifierSpec("logistic_regression", {"epochs": 30}),
        ClassifierSpec("mlp", {"epochs": 5, "hidden_units": 8}),
        ClassifierSpec("naive_bayes"),
    ]

    @pytest.mark.parametrize("fit_on_all", [False, True])
    @pytest.mark.parametrize("protocol", ["repeated", "kfold"])
    def test_shared_features_match_single_spec_runs(self, protocol, fit_on_all):
        # Every spec is fitted on the same X_train/X_test: an estimator that
        # changed its input would change the results of the specs after it.
        docs = preprocess_corpus(three_class_corpus(60, seed=6), default_stopwords())
        plan = plan_splits(docs, protocol, 3, runs=3, folds=4)
        shared = evaluate_specs(self.SPECS, plan, fit_on_all=fit_on_all)
        for spec, agg in zip(self.SPECS, shared):
            (own,) = evaluate_specs([spec], plan, fit_on_all=fit_on_all)
            assert agg.per_run == own.per_run
            assert agg.seeds == own.seeds
            np.testing.assert_array_equal(agg.pooled_confusion, own.pooled_confusion)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="split plan is empty"):
            evaluate_specs([ClassifierSpec("naive_bayes")], [])

    def test_split_with_no_training_docs_rejected(self):
        docs = preprocess_corpus(three_class_corpus(9, seed=0), default_stopwords())
        with pytest.raises(EmptyCorpusError, match="^empty training partition$"):
            evaluate_specs([ClassifierSpec("naive_bayes")], [PlannedSplit((), docs, 0)])


def fit_predict_or_die(cell):
    """``eval._fit_predict``, except that the process scoring a linear SVM cell kills itself."""
    if cell[0].kind == "linear_svm":
        os.kill(os.getpid(), signal.SIGKILL)
    return _fit_predict(cell)


CELL_LOG = None  # the file that fit_predict_signalling notes each cell it starts in
CELL_SECONDS = 0.5  # how long fit_predict_slowly and fit_vocabulary_slowly sleep


def fit_predict_signalling(cell):
    """``eval._fit_predict``, after noting the cell in CELL_LOG and sending
    SIGUSR1 to the process that scores the cells."""
    with open(CELL_LOG, "a", encoding="utf-8") as log:
        log.write(f"{cell[0].seed}\n")
    os.kill(os.getppid(), signal.SIGUSR1)
    return _fit_predict(cell)


def fit_predict_slowly(cell):
    """``eval._fit_predict``, after noting the id of the process that scores
    the cell in CELL_LOG and sleeping for CELL_SECONDS."""
    with open(CELL_LOG, "a", encoding="utf-8") as log:
        log.write(f"{os.getpid()}\n")
    time.sleep(CELL_SECONDS)
    return _fit_predict(cell)


def fit_vocabulary_slowly(part, **options):
    """``eval.fit_vocabulary``, after noting the id of the process that
    builds the features in CELL_LOG and sleeping for CELL_SECONDS."""
    with open(CELL_LOG, "a", encoding="utf-8") as log:
        log.write(f"{os.getpid()}\n")
    time.sleep(CELL_SECONDS)
    return fit_vocabulary(part, **options)


def child_env():
    """This environment, with the package and this test module importable."""
    src = os.path.dirname(os.path.dirname(evaluation.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")])))


def run_python(code):
    """The finished ``python -c code``, in ``child_env()``, its output captured."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=30)


def run_buffered(argv, **options):
    """The finished ``argv``, in ``child_env()`` without PYTHONUNBUFFERED, so that
    a Python child's standard output is block-buffered, as in a shell pipe."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(argv, env=env, text=True, timeout=30, **options)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class StopScoring(Exception):
    """An error raised in the process that scores the cells, as from a signal handler."""


def fit_predict_half_sent(cell):
    """``fit_predict_slowly`` in a forked worker that, before it sleeps, sends
    the header of a 1 MiB result and no body, as a worker killed between the
    two writes of a large result leaves its pipe: the executor then waits on
    the rest for good."""
    frame = sys._getframe()
    while "result_queue" not in frame.f_locals:  # concurrent.futures' _process_worker
        frame = frame.f_back
    frame.f_locals["result_queue"]._writer._send(struct.pack("!i", 1 << 20))
    return fit_predict_slowly(cell)


class TestCellWorkers:
    """How many processes score the (split, spec) cells, and which error wins."""

    SPECS = [ClassifierSpec("naive_bayes"), ClassifierSpec("knn", {"k": 3}),
             ClassifierSpec("logistic_regression", {"epochs": 5})]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of every process pool asked for; its stand-in scores the
        cells in this process, so no test here starts a process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
                sizes.append(max_workers)

            def map(self, func, iterable):
                return map(func, iterable)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return sizes

    @staticmethod
    def allow_cpus(monkeypatch, cpus):
        """``cpus`` the affinity mask, or None for a platform without one."""
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    SVM = [ClassifierSpec("linear_svm", {"epochs": 5})]

    @pytest.mark.parametrize("cpus, runs, specs, sizes, tasks", [
        ({0}, 2, SPECS, [], 6),  # one allowed CPU: nothing forks
        (set(range(8)), 1, SPECS, [3], 3),  # more CPUs than cells: one worker per cell
        ({0, 1}, 1, SPECS[:1], [], 1),  # a one-cell plan runs in this process
        ({0, 1}, 2, SPECS, [2], 6),
        (None, 2, SPECS, [], 6),  # no affinity mask: nothing forks
        # fewer splits than CPUs: a task per one-vs-rest problem of the SVM
        ({0, 1}, 1, SVM, [2], 3),
        (set(range(8)), 1, SPECS + SVM, [6], 6),
        ({0, 1}, 2, SVM, [2], 2),  # as many splits as CPUs: whole cells
        ({0}, 1, SVM, [], 1),
    ], ids=["one-cpu", "cpus-above-cells", "one-cell", "cells-above-cpus", "no-affinity-mask",
            "svm-pieces", "svm-pieces-among-cells", "svm-splits-as-cpus", "svm-one-cpu"])
    def test_pool_size(self, monkeypatch, pool_sizes, cpus, runs, specs, sizes, tasks):
        docs = preprocess_corpus(three_class_corpus(30, seed=1), default_stopwords())
        plan = plan_splits(docs, "repeated", 4, runs=runs)
        self.allow_cpus(monkeypatch, {0})
        serial = [evaluate_specs([spec], plan) for spec in specs]
        self.allow_cpus(monkeypatch, cpus)
        started = []
        monkeypatch.setattr(evaluation, "_fit_predict",
                            lambda task: started.append(task) or _fit_predict(task))
        scored = evaluate_specs(specs, plan)
        assert (pool_sizes, len(started)) == (sizes, tasks)
        for (own,), agg in zip(serial, scored):
            assert (agg.per_run, agg.seeds) == (own.per_run, own.seeds)

    def test_first_error_in_plan_order_wins(self, monkeypatch):
        # Two forked workers: the logistic regression cell fails within
        # milliseconds, the MLP cell before it only after its 400 epochs.
        docs = preprocess_corpus(three_class_corpus(90, seed=8), default_stopwords())
        plan = plan_splits(docs, "repeated", 0, runs=1)
        specs = [ClassifierSpec("mlp", {"lr": 1e5, "epochs": 400}),
                 ClassifierSpec("logistic_regression", {"lr": 1e6, "l2": 1})]
        self.allow_cpus(monkeypatch, {0, 1})
        with pytest.raises(DivergedError, match="^mlp training diverged"):
            evaluate_specs(specs, plan)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("hyperparams, message", [
        ({"C": 1e308, "lr": 0.9}, r"\(overflow "),  # in a piece, in a worker
        ({"C": 1e4, "lr": 0.99, "epochs": 1}, r"\(final loss "),  # as the fit is finished here
    ], ids=["overflow", "loss-limit"])
    def test_a_diverged_piece_raises_the_serial_error(self, monkeypatch, hyperparams, message):
        docs = preprocess_corpus(three_class_corpus(90, seed=8), default_stopwords())
        plan = plan_splits(docs, "repeated", 0, runs=1)
        specs = [ClassifierSpec("naive_bayes"), ClassifierSpec("linear_svm", hyperparams)]
        errors = []
        for cpus in ({0}, {0, 1}):  # a cell here, then three pieces in two forked workers
            self.allow_cpus(monkeypatch, cpus)
            with pytest.raises(DivergedError, match=message) as caught:
                evaluate_specs(specs, plan)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("linear_svm training diverged")
        assert multiprocessing.active_children() == []

    def test_a_cell_error_kills_no_worker(self, monkeypatch):
        # The logistic regression cell fails within milliseconds, the MLP cell
        # after it runs 400 epochs. A worker killed as it sends a result keeps
        # the pool's result-queue lock, and the pool's shutdown then waits on
        # it forever, so every worker must finish its cells and exit unkilled.
        killed = []
        terminate = multiprocessing.process.BaseProcess.terminate
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate",
                            lambda process: killed.append(process) or terminate(process))
        docs = preprocess_corpus(three_class_corpus(90, seed=8), default_stopwords())
        plan = plan_splits(docs, "repeated", 0, runs=1)
        specs = [ClassifierSpec("logistic_regression", {"lr": 1e6, "l2": 1}),
                 ClassifierSpec("mlp", {"epochs": 400})]
        self.allow_cpus(monkeypatch, {0, 1})
        with pytest.raises(DivergedError, match="^logistic_regression training diverged"):
            evaluate_specs(specs, plan)
        assert killed == []
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_fails_compare(self, tmp_path):
        # The worker that takes the linear SVM cell kills itself. A pool that
        # replaced it would wait forever for that cell's result; the run must
        # instead exit 1 with a named error, with no metrics written.
        rows = [(r.text, r.label.label) for r in three_class_corpus(90, seed=8)]
        dataset = write_rows(tmp_path / "data.csv", rows)
        code = ("import os, sys\n"
                "from rusent import cli, eval as evaluation\n"
                "from test_eval import fit_predict_or_die\n"
                "evaluation._fit_predict = fit_predict_or_die\n"  # the forked workers inherit it
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        env = child_env()
        run = subprocess.run(
            [sys.executable, "-c", code, "compare", "--dataset", str(dataset),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=30)
        assert run.returncode == 1, run.stderr
        assert run.stderr.splitlines()[-1].startswith(
            "error: a worker process scoring the cells died (A process in the process pool ")
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_the_workers_inherit_scipy_sparse(self, tmp_path):
        # Importing the KNN and linear kinds loads no scipy, so evaluate_specs
        # must load it before it forks: each worker, which inherits the replaced
        # _fit_predict, finds scipy.sparse loaded.
        rows = [(r.text, r.label.label) for r in three_class_corpus(90, seed=8)]
        dataset = write_rows(tmp_path / "data.csv", rows)
        code = ("import os, sys\n"
                "from rusent import (ClassifierSpec, default_stopwords, evaluate_specs,\n"
                "                    load_csv, plan_splits, preprocess_corpus)\n"
                "from rusent import eval as evaluation\n"
                "from rusent.models import classifier_class\n"
                "for kind in ('knn', 'linear_svm', 'logistic_regression'):\n"
                "    classifier_class(kind)\n"
                "    scipy = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
                "    if scipy: sys.exit(f'{kind} loaded {scipy[:3]}')\n"
                "parent, fit_predict = os.getpid(), evaluation._fit_predict\n"
                "def fit_predict_in_worker(cell):\n"
                "    if os.getpid() == parent or 'scipy.sparse' not in sys.modules:\n"
                "        raise RuntimeError(f'{cell[0].kind}: no fork, or no scipy.sparse')\n"
                "    return fit_predict(cell)\n"
                "evaluation._fit_predict = fit_predict_in_worker\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                f"docs = preprocess_corpus(load_csv({str(dataset)!r}), default_stopwords())\n"
                "evaluate_specs([ClassifierSpec('knn'), ClassifierSpec('logistic_regression')],\n"
                "               plan_splits(docs, 'repeated', 0, runs=1))\n")
        run = run_python(code)
        assert (run.returncode, run.stderr) == (0, "")

    @staticmethod
    def interrupt_compare(tmp_path, cpus, interrupts, cell_seconds, cell="fit_predict_slowly",
                          started=None, replaces="_fit_predict"):
        """Run ``compare`` on ``cpus`` with ``eval.<replaces>`` replaced by
        ``test_eval.<cell>``, which takes ``cell_seconds`` a call, and send
        SIGINT to its process group, as a terminal's Ctrl-C does,
        ``interrupts`` times 0.1 s apart, once ``started`` processes (by
        default every one that scores cells) have noted a call. The run must
        exit 1 with the named error, writing no metrics and leaving no
        process behind. Returns the seconds from the last SIGINT to the exit."""
        rows = [(r.text, r.label.label) for r in three_class_corpus(90, seed=8)]
        dataset = write_rows(tmp_path / "data.csv", rows)
        log = tmp_path / "cells"
        code = ("import os, signal, sys\n"
                "import test_eval\n"
                # as a command typed at a terminal starts, whatever this process inherited
                "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                "from rusent import cli, eval as evaluation\n"
                f"test_eval.CELL_LOG = {str(log)!r}\n"
                f"test_eval.CELL_SECONDS = {cell_seconds!r}\n"
                f"evaluation.{replaces} = test_eval.{cell}\n"
                f"os.sched_getaffinity = lambda pid: {cpus!r}\n"
                "cli.run()\n")  # the ``rusent`` command, argv and all
        env = child_env()
        run = subprocess.Popen(
            [sys.executable, "-c", code, "compare", "--dataset", str(dataset),
             "--out", str(tmp_path / "out")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            deadline, started = time.monotonic() + 30, started or len(cpus)
            while len(set(log.read_text().split()) if log.exists() else ()) < started:
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            for i in range(interrupts):
                time.sleep(0.1 if i else 0)
                os.killpg(run.pid, signal.SIGINT)
            sent = time.monotonic()
            _, stderr = run.communicate(timeout=30)
            seconds = time.monotonic() - sent
            assert run.returncode == 1, stderr
            assert stderr.splitlines()[-1] == "error: interrupted"
            assert "Traceback" not in stderr
            assert not (tmp_path / "out" / "metrics.json").exists()
            for pid in set(log.read_text().split()):
                with pytest.raises(ProcessLookupError):
                    os.kill(int(pid), 0)
        except BaseException:  # checked first; then a failed run leaves no worker behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            raise
        return seconds

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_ctrl_c_ends_compare_with_a_named_error(self, tmp_path, cpus):
        # The workers ignore SIGINT; the command kills them in their
        # minute-long cells and ends the run at once.
        assert self.interrupt_compare(tmp_path, cpus, 1, 60) < 5

    def test_ctrl_c_ends_compare_with_a_result_half_sent(self, tmp_path):
        # The executor waits on a result that will never be whole, and sends
        # no further cell to a worker: the SIGINT must end the process
        # without waiting on it.
        assert self.interrupt_compare(tmp_path, {0, 1}, 1, 60, "fit_predict_half_sent", 1) < 5

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_ctrl_c_ends_compare_while_it_builds_the_features(self, tmp_path, cpus):
        # Before any worker is started: the process sleeps in fit_vocabulary.
        assert self.interrupt_compare(tmp_path, cpus, 1, 60, "fit_vocabulary_slowly", 1,
                                      replaces="fit_vocabulary") < 5

    def test_ctrl_c_while_multiprocessing_is_imported_ends_the_run(self):
        # The module is in sys.modules before it has active_children; no pool has forked yet.
        code = ("import sys, types\n"
                "from rusent import cli\n"
                "sys.modules['multiprocessing'] = types.ModuleType('multiprocessing')\n"
                "cli._interrupted(2, None)\n")
        run = run_python(code)
        assert (run.returncode, run.stderr) == (1, "error: interrupted\n")

    def test_ctrl_c_after_main_returns_keeps_its_status(self):
        # As when it lands while the interpreter exits, compare's outputs written.
        code = ("import atexit, os, signal, time\n"
                "from rusent import cli\n"
                "cli.main = lambda: 0\n"
                "atexit.register(lambda: os.kill(os.getpid(), signal.SIGINT) or time.sleep(0.1))\n"
                "cli.run()\n")
        run = run_python(code)
        assert (run.returncode, run.stderr) == (0, "")

    def test_a_command_started_ignoring_ctrl_c_keeps_ignoring_it(self):
        # As a background job of a shell script starts, or one under nohup.
        code = ("import os, signal, time\n"
                "from rusent import cli\n"
                "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
                "cli.main = lambda: os.kill(os.getpid(), signal.SIGINT) or time.sleep(0.1) or 0\n"
                "cli.run()\n")
        run = run_python(code)
        assert (run.returncode, run.stderr) == (0, "")

    @pytest.mark.parametrize("status", [0, 1, 2])
    def test_the_command_skips_the_interpreter_teardown_and_keeps_its_status(self, status):
        # It ends with os._exit once its output is flushed: no atexit handler runs.
        code = ("import atexit, os\n"
                "from rusent import cli\n"
                "atexit.register(os.write, 2, b'atexit ran\\n')\n"
                f"cli.main = lambda: {status}\n"
                "cli.run()\n")
        run = run_buffered([sys.executable, "-c", code], capture_output=True)
        assert (run.returncode, run.stderr) == (status, "")

    def test_buffered_output_reaches_a_pipe(self):
        code = ("from rusent import cli\n"
                "cli.main = lambda: print('x', end='') or 0\n"
                "cli.run()\n")
        run = run_buffered([sys.executable, "-c", code], capture_output=True)
        assert (run.returncode, run.stdout, run.stderr) == (0, "x", "")

    def test_ctrl_c_during_the_final_flush_keeps_its_status(self):
        code = ("import io, os, signal, sys, time\n"
                "from rusent import cli\n"
                "class Stdout(io.StringIO):\n"
                "    def flush(self):\n"
                "        os.kill(os.getpid(), signal.SIGINT)\n"
                "        time.sleep(0.1)\n"
                "sys.stdout = Stdout()\n"
                "cli.main = lambda: 0\n"
                "cli.run()\n")
        run = run_python(code)
        assert (run.returncode, run.stderr) == (0, "")

    @staticmethod
    def ingest_command(tmp_path):
        """``python -m rusent ingest`` of a small corpus into ``tmp_path / "out"``."""
        rows = [(r.text, r.label.label) for r in three_class_corpus(30, seed=8)]
        dataset = write_rows(tmp_path / "data.csv", rows)
        return [sys.executable, "-m", "rusent", "ingest", "--dataset", str(dataset),
                "--out", str(tmp_path / "out")]

    def test_a_closed_pipe_is_a_named_error(self, tmp_path):
        # As `rusent ingest ... | true`: the reader is gone when the output is flushed.
        read, write = os.pipe()
        os.close(read)
        try:
            run = run_buffered(self.ingest_command(tmp_path), stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert run.returncode == 1, run.stderr
        assert run.stderr.splitlines()[1:] == [
            "error: cannot write standard output: [Errno 32] Broken pipe"]

    def test_a_closed_standard_output_is_no_error(self, tmp_path):
        # As `rusent ingest ... >&-`: sys.stdout is None, and print writes nothing.
        run = run_buffered(["sh", "-c", 'exec "$@" >&-', "sh", *self.ingest_command(tmp_path)],
                           stderr=subprocess.PIPE)
        assert run.returncode == 0, run.stderr
        assert run.stderr.startswith("ingested ") and len(run.stderr.splitlines()) == 1
        assert (tmp_path / "out" / "corpus.csv").exists()

    @needs_dev_full
    def test_an_unwritable_standard_error_exits_1(self, tmp_path):
        # As `rusent ingest ... 2>/dev/full`: the artifacts are written, then the
        # progress line fails, and so does main's error line about it.
        with open("/dev/full", "w") as full:
            run = run_buffered(self.ingest_command(tmp_path), stdout=subprocess.PIPE, stderr=full)
        assert run.returncode == 1
        assert run.stdout.startswith('{"negative": {"count": ')
        assert (tmp_path / "out" / "label_distribution.json").exists()

    @needs_dev_full
    def test_a_usage_error_on_an_unwritable_standard_error_exits_2(self, tmp_path):
        # As `rusent train --out x 2>/dev/full`: argparse's usage line fails.
        with open("/dev/full", "w") as full:
            run = run_buffered([sys.executable, "-m", "rusent", "train", "--out",
                                str(tmp_path / "out")], stderr=full)
        assert run.returncode == 2

    @pytest.mark.parametrize("target, error", [
        ("closed-pipe", "[Errno 32] Broken pipe"),
        pytest.param("/dev/full", "[Errno 28] No space left on device", marks=needs_dev_full)],
        ids=["closed-pipe", "dev-full"])
    def test_an_unwritable_version_is_a_named_error(self, target, error):
        # As `rusent --version | true` and `rusent --version >/dev/full`.
        with contextlib.ExitStack() as stack:
            if target == "closed-pipe":
                read, stdout = os.pipe()
                os.close(read)
                stack.callback(os.close, stdout)
            else:
                stdout = stack.enter_context(open(target, "w"))
            run = run_buffered([sys.executable, "-m", "rusent", "--version"], stdout=stdout,
                               stderr=subprocess.PIPE)
        assert run.returncode == 1
        assert run.stderr == f"error: cannot write standard output: {error}\n"

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_a_second_ctrl_c_ends_compare_at_once(self, tmp_path, cpus):
        # The first SIGINT ends the run, cells a minute long and all; the
        # second lands on a process that is exiting or has exited.
        assert self.interrupt_compare(tmp_path, cpus, 2, 60) < 5

    def test_a_second_ctrl_c_ends_compare_with_a_result_half_sent(self, tmp_path):
        # The executor waits on a result that will never be whole; the first
        # SIGINT ends the process without waiting on it, and the second finds
        # it exiting or gone.
        assert self.interrupt_compare(tmp_path, {0, 1}, 2, 60, "fit_predict_half_sent", 1) < 5

    @pytest.mark.parametrize("error, merged", [(StopScoring, False), (KeyboardInterrupt, False),
                                               (KeyboardInterrupt, True)],
                             ids=["StopScoring", "KeyboardInterrupt", "before-the-results"])
    def test_an_error_here_cancels_the_cells_not_started(self, monkeypatch, tmp_path, error,
                                                         merged):
        # A Ctrl-C in a caller that runs evaluate_specs in-process, say: this
        # process raises as soon as a worker starts a cell or, when ``merged``,
        # before it reads a result, where only the pool's shutdown cancels the
        # cells not started. The running cells finish; the rest of the twelve
        # are never started.
        def interrupt_once(signum, frame):
            if not interrupted:
                interrupted.append(signum)
                raise error

        def merged_raises(*args):
            raise error

        interrupted = []
        monkeypatch.setattr(sys.modules[__name__], "CELL_LOG", str(tmp_path / "cells"))
        monkeypatch.setattr(evaluation, "_fit_predict", fit_predict_signalling)
        if merged:
            interrupted.append(None)  # the first SIGUSR1 raises nothing
            monkeypatch.setattr(evaluation, "_merged", merged_raises)
        self.allow_cpus(monkeypatch, {0, 1})
        docs = preprocess_corpus(three_class_corpus(90, seed=8), default_stopwords())
        plan = plan_splits(docs, "repeated", 0, runs=12)
        handler = signal.signal(signal.SIGUSR1, interrupt_once)
        try:
            with pytest.raises(error):
                evaluate_specs([ClassifierSpec("mlp", {"epochs": 100})], plan)
        finally:
            signal.signal(signal.SIGUSR1, handler)
        assert len((tmp_path / "cells").read_text().split()) < len(plan)
        assert multiprocessing.active_children() == []

    @staticmethod
    def unbuildable_plan(case):
        """The specs and a plan whose build fails, and that error's type and message."""
        def docs(*cells):
            return tuple(TokenizedComment(i, tokens, label)
                         for i, (tokens, label) in enumerate(cells))

        pos, neu = Sentiment.POSITIVE, Sentiment.NEUTRAL
        no_terms = (ValueError, "^no terms: every document is empty$")
        if case in ("empty-partition", "all-empty-documents"):  # in split 1 of three
            corpus = preprocess_corpus(three_class_corpus(30, seed=1), default_stopwords())
            plan = plan_splits(corpus, "repeated", 4, runs=3)
            empty = docs(((), pos), ((), neu)) if case == "all-empty-documents" else ()
            plan[1] = PlannedSplit(empty, plan[1].test, plan[1].seed)
            error = (EmptyCorpusError, "^empty training partition$") if not empty else no_terms
            return TestCellWorkers.SPECS, plan, error
        # naive Bayes trains without a negative comment: its cell would raise MissingClassError
        plan = [PlannedSplit(docs((("acha",), pos), (("theek",), neu)),
                             docs((("acha",), pos),), 0, 0)]
        if case == "refused-spec":
            specs = [ClassifierSpec("naive_bayes"), ClassifierSpec("knn", {"k": 0})]
            return specs, plan, (ValueError, "^k must be an integer >= 1, got 0$")
        plan.append(PlannedSplit(docs(((), pos), ((), neu)), plan[0].test, 0, 1))
        return [ClassifierSpec("naive_bayes")], plan, no_terms

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    @pytest.mark.parametrize("case", ["empty-partition", "all-empty-documents", "refused-spec",
                                      "later-split-vocabulary"])
    def test_a_plan_that_cannot_be_built_raises_before_any_cell_is_scored(
            self, monkeypatch, pool_sizes, cpus, case):
        # Every split's features and every cell's model are built before any
        # cell is fit: the build error is raised before a cell is scored, and
        # before a pool is asked for, even where a cell before it would fail.
        specs, plan, (error, message) = self.unbuildable_plan(case)
        scored = []
        monkeypatch.setattr(evaluation, "_fit_predict",
                            lambda cell: scored.append(cell) or _fit_predict(cell))
        self.allow_cpus(monkeypatch, cpus)
        with pytest.raises(error, match=message):
            evaluate_specs(specs, plan)
        assert scored == []
        assert pool_sizes == []
        if case in ("refused-spec", "later-split-vocabulary"):  # the cell before would fail
            with pytest.raises(MissingClassError):
                evaluate_specs(specs[:1], plan[:1])

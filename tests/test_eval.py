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
from rusent.preprocess import StopWordList
from rusent.seeding import derive_seed

from conftest import REFERENCE_CONFUSIONS, build_corpus, three_class_corpus


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
        cm, report = evaluate_once(spec, corpus, StopWordList(frozenset()), seed=0)
        assert report.accuracy == 1.0
        assert cm.sum() == 4  # 20% of 20

    def test_separable_corpus_svm_perfect(self):
        from conftest import two_class_corpus

        corpus = two_class_corpus(60, seed=2)
        spec = ClassifierSpec("linear_svm", {"C": 100.0})
        for seed in (0, 1):
            cm, report = evaluate_once(spec, corpus, StopWordList(frozenset()), seed=seed)
            assert report.accuracy == 1.0

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
        assert agg.runs == 1
        assert agg.seeds == (7,)
        assert agg.mean["accuracy"] == agg.per_run[0].accuracy
        assert all(v == 0.0 for v in agg.std.values())

    def test_constant_label_corpus(self):
        corpus = build_corpus([(f"acha {i}", "positive") for i in range(30)])
        spec = ClassifierSpec("naive_bayes", {"allow_missing_class": True})
        agg = evaluate_one(spec, corpus, StopWordList(frozenset()), "repeated", 0, runs=10)
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
        assert agg.runs == 5
        assert agg.pooled_confusion.sum() == 50

    def test_ten_fold_train_fraction(self):
        corpus = three_class_corpus(60, seed=5)
        spec = ClassifierSpec("knn", {"k": 3})
        agg = evaluate_one(spec, corpus, default_stopwords(), "kfold", 0, folds=10)
        # each fold trains on 90% of the records (54 of 60)
        assert agg.pooled_confusion.sum() == 60
        assert agg.runs == 10

    def test_constant_label_every_fold_perfect(self):
        corpus = build_corpus([(f"acha {i}", "positive") for i in range(24)])
        spec = ClassifierSpec("naive_bayes", {"allow_missing_class": True})
        agg = evaluate_one(spec, corpus, StopWordList(frozenset()), "kfold", 0, folds=4)
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
        assert run.reported_seed("knn") == 4
        folds = plan_splits(corpus, "kfold", 4, folds=3)
        assert [(f.train, f.test) for f in folds] == kfold(corpus, 3, derive_seed(4, "kfold"))
        fold_seed = derive_seed(4, "fold2:train:mlp")
        assert folds[2].train_seed("mlp") == folds[2].reported_seed("mlp") == fold_seed

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

import csv
import inspect
import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from rusent import CLASSIFIER_KINDS, ClassifierSpec, TfidfVectorizer, evaluate_once, load_csv
from rusent import cli
from rusent import eval as evaluation
from rusent.cli import FLAGS, main
from rusent.config import SCHEMA, RunConfig, apply_cli_values, parse_config_file, validate
from rusent.exceptions import ConfigError
from rusent.preprocess import default_stopwords

from conftest import build_corpus, three_class_corpus, write_rows


def write_dataset(path, corpus):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["comment", "sentiment", "nan"])
        for record in corpus:
            writer.writerow([record.text, record.label.label, "nan"])
    return str(path)


@pytest.fixture
def dataset(tmp_path):
    corpus = three_class_corpus(90, seed=8)
    return write_dataset(tmp_path / "data.csv", corpus)


@pytest.fixture
def fast_config(tmp_path, dataset):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"""# benchmark settings
dataset = {dataset}
out = {tmp_path / 'out'}
seed = 3
runs = 2
protocol = repeated
logistic_regression.epochs = 30
linear_svm.epochs = 30
mlp.epochs = 5
mlp.hidden_units = 8
""",
        encoding="utf-8",
    )
    return path


class TestConfigParsing:
    def test_round_trip_values(self, fast_config, tmp_path):
        config = parse_config_file(fast_config)
        assert config.seed == 3
        assert config.runs == 2
        assert config.protocol == "repeated"
        assert config.overrides["mlp"] == {"epochs": 5, "hidden_units": 8}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_featurs = 3000\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="max_featurs"):
            parse_config_file(path)

    def test_key_of_an_unknown_classifier_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("svm.C = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            parse_config_file(path)
        assert str(info.value) == (f"unknown config key 'svm.C' "
                                   f"(classifier kinds: {CLASSIFIER_KINDS})")

    def test_override_of_an_unknown_classifier_kind_rejected(self):
        with pytest.raises(ConfigError, match="^unknown classifier kind 'svm' in overrides$"):
            validate(RunConfig(overrides={"svm": {}}))

    def test_has_header_is_unknown_key(self, tmp_path, capsys):
        # the header is recognised from the dataset's first line instead
        path = tmp_path / "old.cfg"
        path.write_text("has_header = false\n", encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'has_header'\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeffdataset = data.csv\nseed = 3\n", encoding="utf-8")
        config = parse_config_file(path)
        assert (config.dataset, config.seed) == ("data.csv", 3)

    def test_unknown_classifier_param_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("knn.neighbors = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="knn.neighbors"):
            parse_config_file(path)

    def test_an_override_takes_the_type_of_its_default(self, dataset, tmp_path):
        # not the type its text reads as: mlp.lr = 1 is the float 1.0
        path = tmp_path / "typed.cfg"
        out = tmp_path / "out"
        path.write_text(f"dataset = {dataset}\nout = {out}\nmlp.lr = 1\nmlp.epochs = 5\n"
                        "mlp.hidden_units = 4\nnaive_bayes.allow_missing_class = TRUE\n",
                        encoding="utf-8")
        overrides = parse_config_file(path).overrides
        assert overrides["naive_bayes"]["allow_missing_class"] is True
        assert [(type(v), v) for v in overrides["mlp"].values()] == [(float, 1.0), (int, 5),
                                                                     (int, 4)]
        for stage in ("ingest", "preprocess", "fit-features"):
            assert main([stage, "--config", str(path)]) == 0
        assert main(["train", "--classifier", "mlp", "--config", str(path)]) == 0
        assert '"lr": 1.0,' in (out / "model_mlp.json").read_text()

    def test_an_integer_override_refuses_a_number_with_a_point(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("knn.k = 3.0\n", encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("config error: config key 'knn.k' expects an "
                                           "integer, got '3.0'\n")

    def test_type_errors_name_the_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("runs = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="runs"):
            parse_config_file(path)

    @pytest.mark.parametrize("key, first, second", [("seed", "1", "2"), ("mlp.lr", "0.1", "0.2")])
    def test_key_given_twice_rejected(self, tmp_path, capsys, key, first, second):
        path = tmp_path / "twice.cfg"
        path.write_text(f"{key} = {first}\nruns = 2\n# again\n{key} = {second}\n",
                        encoding="utf-8")
        message = f"{path}:4: config key {key!r} is given twice (lines 1 and 4)"
        with pytest.raises(ConfigError) as info:
            parse_config_file(path)
        assert str(info.value) == message
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bool_values(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("fit_on_all = true\ndedup = FALSE\n", encoding="utf-8")
        config = parse_config_file(path)
        assert config.fit_on_all is True
        assert config.dedup is False

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_range_validation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train_ratio = 1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="train_ratio"):
            parse_config_file(path)

    def test_cli_values_override_file(self, fast_config):
        config = parse_config_file(fast_config)
        updated = apply_cli_values(config, seed=99, fit_on_all=True)
        assert updated.seed == 99
        assert updated.fit_on_all is True
        assert updated.runs == config.runs

    @pytest.mark.parametrize("key", list(FLAGS))
    def test_flag_overrides_its_config_key(self, tmp_path, monkeypatch, key):
        assert key in RunConfig._fields
        # the key's text in the config file, and a different value for its flag
        file_text, flag_value = {"protocol": ("kfold", "repeated")}.get(key) or {
            bool: ("false", True), int: ("3", 5), str: ("from-file", "from-flag")}[SCHEMA[key]]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {file_text}\n", encoding="utf-8")
        file_value = getattr(parse_config_file(path), key)
        assert file_value != flag_value
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "train", lambda config, args: seen.append(config))
        flag = ["--" + key.replace("_", "-")] + ([] if flag_value is True else [str(flag_value)])
        for argv in ([], flag):
            main(["train", "--classifier", "knn", "--config", str(path), *argv])
        assert [getattr(config, key) for config in seen] == [file_value, flag_value]

    def test_defaults(self):
        config = RunConfig()
        assert config.max_features == 3000
        assert config.train_ratio == 0.8
        assert config.runs == 10
        assert config.folds == 10
        assert config.protocol == "repeated"

    def test_one_vocabulary_cap_default(self, capsys):
        # What --max-features says it defaults to, what a run without it
        # uses and what the library functions use are one number.
        cap = TfidfVectorizer().max_features
        assert RunConfig().max_features == cap
        for function in (evaluation.fit_vocabulary, evaluation.evaluate_specs,
                         evaluation.evaluate_once):
            assert inspect.signature(function).parameters["max_features"].default == cap
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        assert f"vocabulary size cap (default {cap})" in " ".join(capsys.readouterr().out.split())


def _drop(key, section=None):
    return lambda doc: (doc[section] if section else doc).pop(key)


def _parent_tfidf_layout(doc):
    """Rewrite ``doc`` as the flat tfidf.json of earlier releases, which
    stored idf next to df and N and had no kind, hyperparams or dimension."""
    params = doc.pop("parameters")
    n, df = params["N"], np.array(params["df"])
    flat = {**params, "idf": (np.log((1.0 + n) / (1.0 + df)) + 1.0).tolist(),
            "max_features": doc["hyperparams"]["max_features"]}
    doc.clear()
    doc.update(flat)


def _parent_nb_layout(doc):
    """Rewrite ``doc`` as the model_naive_bayes.json of earlier releases, which
    stored class_log_prior and feature_log_prob instead of the weight sums."""
    params = doc["parameters"]
    counts = np.array(params["class_count"])
    smoothed = np.array(params.pop("feature_weight_sum")) + doc["hyperparams"]["alpha"]
    params["class_log_prior"] = np.log(counts / counts.sum()).tolist()
    params["feature_log_prob"] = (np.log(smoothed) - np.log(
        smoothed.sum(axis=1, keepdims=True))).tolist()


# case -> (corruption, the start of the error after the file name)
CORRUPT_NB_MODELS = {
    "nb-negative-count": (lambda doc: doc["parameters"].update(  # all negative: shares in [0, 1]
        class_count=[-c for c in doc["parameters"]["class_count"]]), "parameters.class_count: "),
    "nb-zero-counts": (lambda doc: doc["parameters"].update(class_count=[0, 0, 0]),
                       "parameters.class_count: "),
    "nb-negative-weight-sum": (lambda doc: doc["parameters"]["feature_weight_sum"][1]
                               .__setitem__(0, -0.5), "parameters.feature_weight_sum: "),
    "nb-weight-on-empty-class": (lambda doc: doc["parameters"]["class_count"].__setitem__(2, 0),
                                 "parameters.feature_weight_sum: "),
    "nb-weight-sum-1e308": (lambda doc: doc["parameters"]["feature_weight_sum"][0].__setitem__(
        slice(None), [1e308] * doc["dimension"]), "parameters.feature_weight_sum: "),
    "nb-parent-layout": (_parent_nb_layout, "missing key 'parameters.feature_weight_sum'"),
    "nb-missing-class": (lambda doc: doc["parameters"]["class_count"].__setitem__(2, 0)
                         or doc["parameters"]["feature_weight_sum"][2].__setitem__(
                             slice(None), [0.0] * doc["dimension"]), "parameters.class_count: "),
}


def _knn_matrix_edit(edit):
    """A corruption of model_knn.json that calls ``edit(matrix, a)`` on its stored
    training matrix, ``a`` the offset of the first row with two entries or more."""
    def corrupt(doc):
        matrix = doc["parameters"]["matrix"]
        indptr = matrix["indptr"]
        a = next(start for start, stop in zip(indptr, indptr[1:]) if stop - start >= 2)
        edit(matrix, a)
    return corrupt


def _swap(values, i, j):
    values[i], values[j] = values[j], values[i]


# case -> (corruption of model_knn.json's training matrix, the start of the error
# after the file name): the arrays that the CSRMatrix it is read into refuses
CORRUPT_KNN_MATRICES = {
    "knn-unsorted-indices": (_knn_matrix_edit(lambda m, a: _swap(m["indices"], a, a + 1)),
                             "parameters.matrix: the column indices of a row must strictly"),
    "knn-duplicate-index": (_knn_matrix_edit(lambda m, a: m["indices"].__setitem__(
        a + 1, m["indices"][a])), "parameters.matrix: the column indices of a row must strictly"),
    "knn-decreasing-indptr": (_knn_matrix_edit(lambda m, a: m["indptr"].__setitem__(
        1, m["indptr"][-1])), "parameters.matrix: indptr must start at 0 and never decrease"),
    "knn-index-out-of-range": (_knn_matrix_edit(lambda m, a: m["indices"].__setitem__(
        -1, m["shape"][1])), "parameters.matrix: a column index is outside [0, "),
    "knn-shape-mismatch": (_knn_matrix_edit(lambda m, a: m["shape"].__setitem__(
        0, m["shape"][0] + 1)), "parameters.matrix: indptr has "),
}

# case -> (corruption of tfidf.json, the start of the error after the file name)
CORRUPT_TFIDF_TERMS = {
    "tfidf-empty-terms": (lambda doc: doc["parameters"].update(terms=[], df=[])
                          or doc.update(dimension=0), "parameters.terms: "),
    "tfidf-terms-above-max_features": (lambda doc: doc["hyperparams"].update(
        max_features=len(doc["parameters"]["terms"]) - 1), "parameters.terms: "),
    "tfidf-unsorted-terms": (lambda doc: doc["parameters"]["terms"].reverse(),
                             "parameters.terms: "),
}


# case -> (artifact, corruption, the error after the file name)
CORRUPT_VALUES = {
    "hyperparams-not-an-object": ("model_knn.json", lambda doc: doc.update(hyperparams=[]),
                                  "hyperparams: expected a JSON object"),
    "tfidf-term-not-a-string": ("tfidf.json",
                                lambda doc: doc["parameters"]["terms"].__setitem__(0, 7),
                                "parameters.terms: expected a list of strings"),
    "tfidf-fractional-df": ("tfidf.json", lambda doc: doc["parameters"]["df"].__setitem__(0, 0.5),
                            "parameters.df: expected integers"),
    "string-coef": ("model_logistic_regression.json",
                    lambda doc: doc["parameters"]["coef"][1].__setitem__(0, "1.0"),
                    "parameters.coef: expected numbers"),
}


def merge_cases(*tables):
    """One case table from the dicts ``tables``. An id in two of them raises at
    import, instead of the later case silently replacing the earlier one."""
    merged = {}
    for table in tables:
        for case, value in table.items():
            if case in merged:
                raise ValueError(f"case id {case!r} is given twice")
            merged[case] = value
    return merged


CORRUPT_ARTIFACTS = merge_cases(
    {f"model-no-{key}": ("model_knn.json", _drop(key))
     for key in ("kind", "hyperparams", "dimension", "parameters")},
    {f"tfidf-no-{key}": ("tfidf.json", _drop(key, "parameters")) for key in ("N", "df", "terms")},
    {
        "tfidf-no-max_features": ("tfidf.json", _drop("max_features", "hyperparams")),
        "k-zero": ("model_knn.json", lambda doc: doc["hyperparams"].update(k=0)),
        "k-above-rows": ("model_knn.json", lambda doc: doc["hyperparams"].update(k=10**6)),
        "unknown-hyperparam": ("model_knn.json", lambda doc: doc["hyperparams"].update(seed=0)),
        "infinite-hyperparam": ("model_logistic_regression.json",
                                lambda doc: doc["hyperparams"].update(lr=float("inf"))),
        "dimension-off": ("model_knn.json",
                          lambda doc: doc.update(dimension=doc["dimension"] + 1)),
        "short-labels": ("model_knn.json", lambda doc: doc["parameters"]["labels"].pop()),
        "label-out-of-range": ("model_knn.json",
                               lambda doc: doc["parameters"]["labels"].insert(0, 3)
                               or doc["parameters"]["labels"].pop()),
        "nan-coef": ("model_logistic_regression.json",
                     lambda doc: doc["parameters"]["coef"][1].__setitem__(0, float("nan"))),
        "tfidf-max_features-zero": ("tfidf.json",
                                    lambda doc: doc["hyperparams"].update(max_features=0)),
        "tfidf-dimension-off": ("tfidf.json",
                                lambda doc: doc.update(dimension=doc["dimension"] + 1)),
        "tfidf-duplicate-terms": ("tfidf.json", lambda doc: doc["parameters"]["terms"].__setitem__(
            1, doc["parameters"]["terms"][0])),
        "tfidf-negative-N": ("tfidf.json", lambda doc: doc["parameters"].update(N=-3)),
        "tfidf-df-above-N": ("tfidf.json", lambda doc: doc["parameters"]["df"].__setitem__(
            0, doc["parameters"]["N"] + 1)),
        "tfidf-parent-layout": ("tfidf.json", _parent_tfidf_layout),
    },
    {case: ("model_naive_bayes.json", corrupt) for case, (corrupt, _) in CORRUPT_NB_MODELS.items()},
    {case: ("model_knn.json", corrupt) for case, (corrupt, _) in CORRUPT_KNN_MATRICES.items()},
    {case: ("tfidf.json", corrupt) for case, (corrupt, _) in CORRUPT_TFIDF_TERMS.items()},
    {case: (artifact, corrupt) for case, (artifact, corrupt, _) in CORRUPT_VALUES.items()},
)


def edit_staged_row(dataset, tmp_path, artifact, edit):
    """Run the staged KNN flow through ``predict``, then replace the second
    data row (line 3) of ``artifact`` with ``edit(row)``; returns the stages'
    common arguments and the artifact's path."""
    out = tmp_path / "out"
    common = ["--dataset", dataset, "--out", str(out)]
    for args in (["ingest"], ["preprocess"], ["fit-features"],
                 ["train", "--classifier", "knn"], ["predict", "--classifier", "knn"]):
        assert main(args + common) == 0
    path = out / artifact
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[2] = edit(rows[2])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return common, path


def naive_bayes_argv(stage):
    """``stage``, with ``--classifier naive_bayes`` where the stage takes one."""
    if stage in ("train", "predict", "evaluate"):
        return [stage, "--classifier", "naive_bayes"]
    return [stage]


class TestCliExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("max_featurs = 3000\n", encoding="utf-8")
        rc = main(["compare", "--config", str(path)])
        assert rc == 2
        assert "max_featurs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [("mlp.lr = -1", "mlp.lr must be finite and > 0, got -1.0"),
         ("linear_svm.lr = 1.0", "linear_svm.lr must be in (0, 1), got 1.0"),
         ("linear_svm.C = inf", "linear_svm.C must be finite and >= 0, got inf")],
        ids=["mlp.lr", "linear_svm.lr", "linear_svm.C"],
    )
    def test_invalid_hyperparameter_exits_2_before_any_stage(
        self, dataset, tmp_path, capsys, line, message
    ):
        path = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        path.write_text(f"dataset = {dataset}\nout = {out}\n{line}\n", encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_diverged_training_exits_1(self, dataset, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        out = tmp_path / "out"
        path.write_text(
            f"dataset = {dataset}\nout = {out}\nruns = 1\n"
            "logistic_regression.lr = 1e6\nlogistic_regression.l2 = 1\n",
            encoding="utf-8",
        )
        assert main(["compare", "--config", str(path)]) == 1
        # the run's progress lines, then the error alone: no numpy warning text
        *progress, last = capsys.readouterr().err.splitlines()
        assert all(line.startswith(("corpus: ", "[seed ")) for line in progress)
        assert last.startswith("error: logistic_regression training diverged (")
        assert not (out / "metrics.json").exists()

    def test_first_of_two_diverged_cells_is_reported_and_no_worker_outlives_main(
        self, dataset, tmp_path, capfd, monkeypatch
    ):
        # logistic regression and the MLP both diverge, each in its own forked
        # worker; the error is the first cell's in plan order, and capfd
        # would also catch anything a worker wrote to stderr
        path = tmp_path / "diverge.cfg"
        path.write_text(
            f"dataset = {dataset}\nout = {tmp_path / 'out'}\nruns = 1\n"
            "logistic_regression.lr = 1e6\nlogistic_regression.l2 = 1\nmlp.lr = 1e5\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for _ in range(5):
            assert main(["compare", "--config", str(path)]) == 1
            *progress, last = capfd.readouterr().err.splitlines()
            assert all(line.startswith(("corpus: ", "[seed ")) for line in progress)
            assert last.startswith("error: logistic_regression training diverged (")
            assert multiprocessing.active_children() == []

    def test_compare_out_that_is_a_file_exits_1_before_any_cell(
        self, fast_config, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "taken"
        out.write_text("a file\n", encoding="utf-8")
        started = []
        fit_predict = evaluation._fit_predict
        monkeypatch.setattr(evaluation, "_fit_predict",
                            lambda cell: started.append(cell) or fit_predict(cell))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["compare", "--config", str(fast_config), "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err.splitlines()[-1]
        assert started == []
        assert out.read_text(encoding="utf-8") == "a file\n"

    def test_mlp_batch_size_beyond_the_training_rows_is_one_full_batch(self, dataset, tmp_path):
        # 10**21 overflows a C long in numpy; every size >= the 72 training rows
        # is the same single batch, so it scores as a batch of exactly 72 does
        written = []
        for size in (10**21, 72):
            out = tmp_path / str(size)
            path = tmp_path / f"{size}.cfg"
            path.write_text(f"dataset = {dataset}\nout = {out}\nruns = 1\nmlp.epochs = 5\n"
                            f"mlp.batch_size = {size}\n", encoding="utf-8")
            assert main(["compare", "--config", str(path)]) == 0
            written.append((out / "metrics.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("hidden_units", [10**15, 10**18, 10**21],
                             ids=["past-the-address-space", "past-an-array", "past-int64"])
    def test_fit_that_cannot_allocate_exits_1(self, dataset, tmp_path, capsys, hidden_units):
        # 10**15 hidden units ask for more than the address space holds, so the
        # allocation fails before any page is touched; the weights of 10**18
        # are more bytes than a numpy array can have, and 10**21 is no C long:
        # both are refused before any allocation
        path = tmp_path / "huge.cfg"
        path.write_text(f"dataset = {dataset}\nout = {tmp_path / 'out'}\nruns = 1\n"
                        f"mlp.hidden_units = {hidden_units}\n", encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 1
        *progress, last = capsys.readouterr().err.splitlines()
        assert all(line.startswith(("corpus: ", "[seed ")) for line in progress)
        assert last.startswith("error: mlp training ran out of memory (")

    def test_dead_hidden_layer_exits_1(self, dataset, tmp_path, capsys):
        path = tmp_path / "dead.cfg"
        path.write_text(f"dataset = {dataset}\nout = {tmp_path / 'out'}\nruns = 1\n"
                        "mlp.lr = 1e5\n", encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err.endswith(
            "error: mlp training diverged (every hidden unit is inactive on every "
            "training row)\n")

    def test_absurd_mlp_loss_exits_1(self, dataset, tmp_path, capsys):
        # a hidden unit survives these steps, so the layer is not dead, but the
        # training loss ends near 25,000 nats from a start near 1.1
        path = tmp_path / "absurd.cfg"
        path.write_text(f"dataset = {dataset}\nout = {tmp_path / 'out'}\nseed = 4\n"
                        "mlp.lr = 1e5\nmlp.epochs = 5\nmlp.hidden_units = 32\n",
                        encoding="utf-8")
        for stage in (["ingest"], ["preprocess"], ["fit-features"]):
            assert main(stage + ["--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["train", "--classifier", "mlp", "--config", str(path)]) == 1
        *progress, last = capsys.readouterr().err.splitlines()
        assert all(line.startswith(("train split: ", "test split: ")) for line in progress)
        assert last.startswith("error: mlp training diverged (final loss 25003.69")
        assert ", starting loss 1.10" in last

    @pytest.mark.parametrize(
        "n_records, lines, message",
        [(30, "protocol = kfold\nfolds = 40\n", "folds must be in [2, 30], got 40"),
         (90, "runs = 1\nknn.k = 500\n", "knn.k must be in [1, 72], got 500")],
        ids=["folds", "knn.k"],
    )
    def test_setting_too_large_for_the_corpus_names_its_key(
        self, tmp_path, capsys, n_records, lines, message
    ):
        # both are checked against the data, not at config time
        data = write_dataset(tmp_path / "data.csv", three_class_corpus(n_records, seed=8))
        path = tmp_path / "big.cfg"
        path.write_text(f"dataset = {data}\nout = {tmp_path / 'out'}\n{lines}", encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"

    def test_removed_top_level_allow_missing_class_exits_2(self, dataset, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text(f"dataset = {dataset}\nallow_missing_class = true\n",
                        encoding="utf-8")
        assert main(["compare", "--config", str(path)]) == 2
        with pytest.raises(SystemExit) as exit_info:  # argparse: unknown flag
            main(["compare", "--dataset", dataset, "--allow-missing-class"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", [["ingest"], ["compare"], ["train", "--classifier", "knn"]],
                             ids=["ingest", "compare", "train"])
    def test_unparseable_csv_row_exits_1(self, dataset, tmp_path, capsys, command):
        out = tmp_path / "out"
        common = ["--dataset", dataset, "--out", str(out)]
        path = dataset
        if command[0] == "train":
            for args in (["ingest"], ["preprocess"], ["fit-features"]):
                assert main(args + common) == 0
            path = str(out / "train.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        if command[0] == "train":
            lines[2] = "7,negative," + "acha " * 30000 + "\n"  # one field above the limit
        else:  # a quote opened on line 3 that never closes
            lines[2] = '"' + lines[2]
            lines.append("acha " * 30000 + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        capsys.readouterr()
        assert main(command + common) == 1
        assert capsys.readouterr().err == (
            f"error: {path} line 3: field larger than field limit (131072)\n")

    @pytest.mark.parametrize(
        "command, artifact, column",
        [(["train", "--classifier", "knn"], "train.csv", 1),
         (["evaluate", "--classifier", "knn"], "predictions_knn.csv", 1),
         (["evaluate", "--classifier", "knn"], "predictions_knn.csv", 2)],
        ids=["train", "evaluate-truth", "evaluate-predicted"],
    )
    def test_bad_artifact_label_names_file_and_line(self, dataset, tmp_path, capsys, command,
                                                    artifact, column):
        def bad_label(row):
            row[column] = "bogus"
            return row

        common, path = edit_staged_row(dataset, tmp_path, artifact, bad_label)
        capsys.readouterr()
        assert main(command + common) == 1
        assert capsys.readouterr().err == (
            f"error: {path} line 3: unknown sentiment label 'bogus'\n")

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"seed = 3\n# caf\xe9\n")
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: 'utf-8' codec can't decode byte 0xe9 in position 14: "
            "invalid continuation byte\n")

    @pytest.mark.parametrize(
        "name, message",
        [("missing.cfg", "config file not found: {}"),
         ("cfgdir", "cannot read config file {}: Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, name, message):
        (tmp_path / "cfgdir").mkdir()
        path = tmp_path / name
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(path)}\n"

    def test_train_ratio_leaving_no_training_record_exits_1(self, tmp_path, capsys):
        corpus = build_corpus([("acha", "positive"), ("bura", "negative"), ("theek", "neutral")])
        config = tmp_path / "run.cfg"
        config.write_text(f"dataset = {write_dataset(tmp_path / 'data.csv', corpus)}\n"
                          f"out = {tmp_path / 'out'}\ntrain_ratio = 0.2\n", encoding="utf-8")
        for command in (["ingest"], ["preprocess"]):
            assert main(command + ["--config", str(config)]) == 0
        capsys.readouterr()
        for command in (["fit-features"], ["compare"]):
            assert main(command + ["--config", str(config)]) == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                "error: train_ratio 0.2 leaves none of the 3 records to train on")

    def test_stopwords_not_utf8_names_the_file(self, dataset, tmp_path, capsys):
        path = tmp_path / "stopwords.txt"
        path.write_bytes(b"hai\n\xff\n")
        args = ["compare", "--dataset", dataset, "--stopwords", str(path),
                "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 4: "
            "invalid start byte\n")

    def test_missing_dataset_exits_2(self, tmp_path):
        rc = main(["compare", "--out", str(tmp_path)])
        assert rc == 2

    def test_nonexistent_dataset_exits_1(self, tmp_path):
        rc = main(
            ["ingest", "--dataset", str(tmp_path / "none.csv"), "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_missing_predecessor_exits_1(self, tmp_path, capsys):
        rc = main(["preprocess", "--out", str(tmp_path / "empty")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "corpus.csv" in err and "ingest" in err

    def test_predict_without_model_exits_1(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["ingest", "--dataset", dataset, "--out", out]) == 0
        assert main(["preprocess", "--out", out]) == 0
        assert main(["fit-features", "--out", out]) == 0
        rc = main(["predict", "--classifier", "knn", "--out", out])
        assert rc == 1
        assert "model_knn.json" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, artifact, producer", [
        ("preprocess", "corpus.csv", "ingest"),
        ("fit-features", "preprocessed.csv", "preprocess"),
        ("train", "train.csv", "fit-features"),
        ("train", "tfidf.json", "fit-features"),
        ("predict", "model_naive_bayes.json", "train"),
        ("predict", "test.csv", "fit-features"),
        ("predict", "tfidf.json", "fit-features"),
        ("evaluate", "predictions_naive_bayes.csv", "predict"),
    ], ids=lambda value: value)
    def test_each_missing_input_names_its_producer(self, dataset, tmp_path, capsys, stage,
                                                   artifact, producer):
        out = tmp_path / "out"
        common = ["--dataset", dataset, "--out", str(out)]
        for chained in ("ingest", "preprocess", "fit-features", "train", "predict"):
            assert main(naive_bayes_argv(chained) + common) == 0
        (out / artifact).unlink()
        capsys.readouterr()
        assert main(naive_bayes_argv(stage) + common) == 1
        assert capsys.readouterr().err == (
            f"error: missing artifact {out / artifact}; run the '{producer}' stage first\n")

    @pytest.mark.parametrize("stage, artifact, producer", [
        ("preprocess", "corpus.csv", "ingest"),
        ("fit-features", "preprocessed.csv", "preprocess"),
        ("train", "train.csv", "fit-features"),
        ("predict", "model_naive_bayes.json", "train"),
        ("evaluate", "predictions_naive_bayes.csv", "predict"),
    ], ids=lambda value: value)
    def test_an_empty_out_names_the_first_missing_input(self, tmp_path, capsys, stage, artifact,
                                                        producer):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(naive_bayes_argv(stage) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: missing artifact {out / artifact}; run the '{producer}' stage first\n")

    @pytest.mark.parametrize("argv", [
        *([stage] for stage in ("train", "predict", "evaluate")),
        *([stage, "--classifier", "knn"]
          for stage in ("ingest", "preprocess", "fit-features", "compare")),
    ], ids=lambda argv: " ".join(argv))
    def test_classifier_is_required_exactly_where_a_stage_uses_it(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2

    def test_help_lists_the_stages_in_pipeline_order(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{ingest,preprocess,fit-features,train,predict,evaluate,compare}" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize(
        "command, artifact",
        [(["fit-features"], "preprocessed.csv"),
         (["evaluate", "--classifier", "knn"], "predictions_knn.csv")],
        ids=["fit-features", "evaluate"],
    )
    def test_short_artifact_row_exits_1(self, dataset, tmp_path, capsys, command, artifact):
        common, _ = edit_staged_row(dataset, tmp_path, artifact, lambda row: row[:2])
        capsys.readouterr()
        assert main(command + common) == 1
        assert f"{artifact} line 3: expected 3 fields, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(CORRUPT_ARTIFACTS), ids=list(CORRUPT_ARTIFACTS))
    def test_corrupt_json_artifact_exits_1(self, dataset, tmp_path, capsys, case):
        artifact, corrupt = CORRUPT_ARTIFACTS[case]
        out = tmp_path / "out"
        common = ["--dataset", dataset, "--out", str(out)]
        kind = artifact[len("model_"):-len(".json")] if artifact.startswith("model_") else "knn"
        for args in (["ingest"], ["preprocess"], ["fit-features"],
                     ["train", "--classifier", kind]):
            assert main(args + common) == 0
        path = out / artifact
        doc = json.loads(path.read_text(encoding="utf-8"))
        corrupt(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")  # NaN, inf: JSON NaN, Infinity
        capsys.readouterr()
        # an uncaught exception (a traceback from the command line) fails here
        assert main(["predict", "--classifier", kind] + common) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        named = {**CORRUPT_NB_MODELS, **CORRUPT_TFIDF_TERMS, **CORRUPT_KNN_MATRICES}
        if case in named:
            assert err.startswith(f"error: {path}: {named[case][1]}")
        if case in CORRUPT_VALUES:
            assert err == f"error: {path}: {CORRUPT_VALUES[case][2]}\n"

    @pytest.mark.parametrize(
        "artifact, source, expected",
        [("tfidf.json", "model_knn.json", "['tfidf'], got 'knn'"),
         ("model_knn.json", "tfidf.json", f"{sorted(CLASSIFIER_KINDS)}, got 'tfidf'")],
        ids=["knn-model-as-tfidf", "tfidf-as-knn-model"],
    )
    def test_artifact_of_another_kind_exits_1(self, dataset, tmp_path, capsys, artifact,
                                              source, expected):
        out = tmp_path / "out"
        common = ["--dataset", dataset, "--out", str(out)]
        for args in (["ingest"], ["preprocess"], ["fit-features"],
                     ["train", "--classifier", "knn"]):
            assert main(args + common) == 0
        (out / artifact).write_bytes((out / source).read_bytes())
        capsys.readouterr()
        assert main(["predict", "--classifier", "knn"] + common) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out / artifact}: kind: expected one of {expected}\n"


class TestLabelDistributionFile:
    """label_distribution.json rounds each fraction as numpy rounds a float64."""

    def test_fractions_round_as_numpy_does(self):
        # with n <= 5000, round(c / n, 6) differs from numpy only where n is a multiple of 640
        sizes = [*range(1, 401), 640, 1280, 1920, 2560, 3200]
        wrong = [(c, n) for n in sizes for c in range(n + 1)
                 if cli._numpy_round6(c / n) != round(np.float64(c / n), 6)]
        assert wrong == []

    def test_one_in_640(self, tmp_path, capsys):
        # round(1 / 640, 6) is 0.001563
        rows = [(f"comment {i}", "positive") for i in range(639)] + [("bura", "negative")]
        dataset = write_rows(tmp_path / "data.csv", rows, header=("comment", "sentiment"))
        assert main(["ingest", "--dataset", str(dataset), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == (
            '{"negative": {"count": 1, "fraction": 0.001562}, "neutral": {"count": 0, '
            '"fraction": 0.0}, "positive": {"count": 639, "fraction": 0.998438}}\n')
        assert (tmp_path / "out" / "label_distribution.json").read_text() == (
            '{\n  "negative": {\n    "count": 1,\n    "fraction": 0.001562\n  },\n'
            '  "neutral": {\n    "count": 0,\n    "fraction": 0.0\n  },\n'
            '  "positive": {\n    "count": 639,\n    "fraction": 0.998438\n  }\n}\n')


class TestStagedPipeline:
    def test_full_chain_and_artifacts(self, dataset, tmp_path):
        out = tmp_path / "out"
        common = ["--dataset", dataset, "--out", str(out), "--seed", "11"]
        assert main(["ingest"] + common) == 0
        assert main(["preprocess"] + common) == 0
        assert main(["fit-features"] + common) == 0
        assert main(["train", "--classifier", "linear_svm"] + common) == 0
        assert main(["predict", "--classifier", "linear_svm"] + common) == 0
        assert main(["evaluate", "--classifier", "linear_svm"] + common) == 0

        with open(out / "preprocessed.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["comment", "sentiment", "text_final"]
        assert len(rows) == 91

        with open(out / "predictions_linear_svm.csv", newline="", encoding="utf-8") as fh:
            pred_rows = list(csv.reader(fh))
        assert pred_rows[0] == ["row_id", "truth", "predicted"]
        assert len(pred_rows) == 1 + 18  # 20% of 90

        model_payload = json.loads((out / "model_linear_svm.json").read_text())
        assert model_payload["kind"] == "linear_svm"
        assert len(model_payload["parameters"]["coef"]) == 3
        assert all(
            len(w) == model_payload["dimension"]
            for w in model_payload["parameters"]["coef"]
        )

        dist = json.loads((out / "label_distribution.json").read_text())
        assert set(dist) == {"negative", "neutral", "positive"}
        assert sum(d["count"] for d in dist.values()) == 90

    @pytest.mark.parametrize("kind, fit_on_all", [*((kind, False) for kind in CLASSIFIER_KINDS),
                                                  ("mlp", True)],
                             ids=[*CLASSIFIER_KINDS, "mlp-fit-on-all"])
    def test_staged_flow_matches_evaluate_once(self, dataset, fast_config, tmp_path, kind,
                                               fit_on_all):
        # The staged train draws the same seed as evaluate_once's split does.
        common = ["--config", str(fast_config), "--seed", "21"] + ["--fit-on-all"] * fit_on_all
        for args in (
            ["ingest"],
            ["preprocess"],
            ["fit-features"],
            ["train", "--classifier", kind],
            ["predict", "--classifier", kind],
            ["evaluate", "--classifier", kind],
        ):
            assert main(args + common) == 0
        staged = json.loads((tmp_path / "out" / f"metrics_{kind}.json").read_text())

        corpus = load_csv(dataset)
        spec = ClassifierSpec(kind, parse_config_file(fast_config).classifier_overrides(kind))
        cm, report = evaluate_once(spec, corpus, default_stopwords(), seed=21,
                                   fit_on_all=fit_on_all)
        assert staged["confusion"] == cm.tolist()
        assert staged["accuracy"] == round(report.accuracy, 6)
        tfidf = json.loads((tmp_path / "out" / "tfidf.json").read_text())
        # the number of documents the vocabulary saw
        assert tfidf["parameters"]["N"] == (90 if fit_on_all else 72)

    def test_split_is_fixed_by_fit_features(self, dataset, tmp_path):
        # train and predict given other seeds still score fit-features' held-out rows
        out = tmp_path / "out"
        common = ["--dataset", dataset, "--out", str(out)]
        for args in (["ingest"], ["preprocess"], ["fit-features", "--seed", "1"],
                     ["train", "--classifier", "naive_bayes", "--seed", "2"],
                     ["predict", "--classifier", "naive_bayes", "--seed", "3"],
                     ["evaluate", "--classifier", "naive_bayes", "--seed", "3"]):
            assert main(args + common) == 0
        cm, report = evaluate_once(ClassifierSpec("naive_bayes"), load_csv(dataset),
                                   default_stopwords(), seed=1)
        expected = {"classifier": "naive_bayes", "count": int(cm.sum()),
                    "confusion": cm.tolist(), **report.as_dict()}
        staged = json.loads((out / "metrics_naive_bayes.json").read_text())
        assert staged == json.loads(json.dumps(cli._round6(expected)))

        def row_ids(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return [row[0] for row in list(csv.reader(fh))[1:]]

        assert row_ids("predictions_naive_bayes.csv") == row_ids("test.csv")
        assert not set(row_ids("test.csv")) & set(row_ids("train.csv"))

    def test_staged_reruns_are_byte_identical(self, fast_config, tmp_path):
        stages = [["ingest"], ["preprocess"], ["fit-features"]] + [
            [stage, "--classifier", kind] for kind in ("mlp", "naive_bayes")
            for stage in ("train", "predict", "evaluate")]
        runs = []
        for out in (tmp_path / "first", tmp_path / "second"):
            for args in stages:
                assert main(args + ["--config", str(fast_config), "--out", str(out)]) == 0
            runs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert {"tfidf.json", "model_mlp.json", "model_naive_bayes.json"} <= set(runs[0])
        assert runs[0] == runs[1]

    def test_preprocessed_text_final_matches_layout(self, tmp_path):
        data = write_dataset(
            tmp_path / "tiny.csv",
            three_class_corpus(12, seed=1),
        )
        out = tmp_path / "out"
        common = ["--dataset", data, "--out", str(out)]
        assert main(["ingest"] + common) == 0
        assert main(["preprocess"] + common) == 0
        with open(out / "preprocessed.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        for comment, _, text_final in rows:
            assert text_final == " ".join(
                t for t in comment.lower().split() if t not in default_stopwords()
            )


class TestCompare:
    def test_outputs_and_determinism(self, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(fast_config)]) == 0
        first = (out / "metrics.json").read_bytes()

        payload = json.loads(first)
        assert set(payload["classifiers"]) == {
            "knn",
            "linear_svm",
            "logistic_regression",
            "mlp",
            "naive_bayes",
        }
        for kind, entry in payload["classifiers"].items():
            assert entry["runs"] == 2
            assert len(entry["per_run"]) == 2
            assert np.array(entry["pooled_confusion"]).shape == (3, 3)
        ranking = payload["ranking"]
        accs = [e["mean_accuracy"] for e in ranking]
        assert accs == sorted(accs, reverse=True)

        for kind in payload["classifiers"]:
            assert (out / f"confusion_{kind}.csv").exists()
        assert (out / "ranking.txt").exists()
        assert (out / "metrics.csv").exists()

        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["classifier", "metric", "mean", "std"]
        assert len(rows) == 1 + 5 * 16  # 16 scalar metrics per classifier

        # rerun with identical config: byte-identical report
        assert main(["compare", "--config", str(fast_config)]) == 0
        assert (out / "metrics.json").read_bytes() == first

    def test_main_leaves_the_sigint_handler_as_it_found_it(self, fast_config, monkeypatch):
        # Only the ``rusent`` command, cli.run, owns Ctrl-C; an in-process caller keeps its own.
        def handler(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        previous = signal.signal(signal.SIGINT, handler)
        try:
            assert main(["compare", "--config", str(fast_config)]) == 0
            assert signal.getsignal(signal.SIGINT) is handler
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_kfold_protocol(self, dataset, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "kfold.cfg"
        cfg.write_text(
            f"""dataset = {dataset}
out = {out}
protocol = kfold
folds = 5
logistic_regression.epochs = 20
linear_svm.epochs = 20
mlp.epochs = 3
""",
            encoding="utf-8",
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["protocol"]["name"] == "kfold"
        for entry in payload["classifiers"].values():
            assert entry["runs"] == 5
            assert int(np.array(entry["pooled_confusion"]).sum()) == 90

    def test_kfold_seeds_are_the_ones_the_models_trained_with(self, dataset, tmp_path):
        # metrics.json reports, per fold, the seed each kind's model trained with
        seeds = {}
        for seed in (5, 6):
            out = tmp_path / f"mlp-seed-{seed}"
            cfg = tmp_path / f"kfold-{seed}.cfg"
            cfg.write_text(f"dataset = {dataset}\nout = {out}\nprotocol = kfold\nfolds = 3\n"
                           f"logistic_regression.epochs = 5\nlinear_svm.epochs = 5\n"
                           f"mlp.epochs = 3\nmlp.seed = {seed}\n", encoding="utf-8")
            assert main(["compare", "--config", str(cfg)]) == 0
            payload = json.loads((out / "metrics.json").read_text())
            seeds[seed] = {kind: entry["seeds"] for kind, entry in payload["classifiers"].items()}
        assert seeds[5].pop("mlp") == [5, 5, 5]
        assert seeds[6].pop("mlp") == [6, 6, 6]
        assert seeds[5] == seeds[6]

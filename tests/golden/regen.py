"""Rewrite the golden ``rusent compare`` outputs and staged artifacts that
tests/test_golden.py requires.

Run it from the repository root, as ``PYTHONPATH=src python
tests/golden/regen.py``, only in a change that moves the numbers on purpose,
and state each moved number in CHANGES.md. A change that must keep the
numbers does not run it.

The corpus, ``data.csv``, is committed as bytes: numpy does not promise its
random streams across versions. It is written (``benchmarks/synthcorpus.py``,
seed 3, 600 comments) only when it is missing.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CORPUS = os.path.join(HERE, "data.csv")
# output directory -> the config lines of its compare, at default hyperparameters
# otherwise. The 600 comments hold about 1.9k terms, so max_features = 500 puts
# the cap's tie-break to work; a run of one split on two CPUs fits the linear
# SVM's one-vs-rest problems as separate tasks, a k-fold run reports the MLP
# seed that it sets, and fit_on_all fits each fold's vocabulary on both its sides.
CASES = {
    "runs1": ["runs = 1"],
    "runs2_max500": ["runs = 2", "max_features = 500"],
    "kfold3_mlp_seed5": ["protocol = kfold", "folds = 3", "mlp.seed = 5"],
    "kfold3_fit_on_all": ["protocol = kfold", "folds = 3", "fit_on_all = true"],
}
# The staged chain's directory and config: ingest, preprocess and fit-features,
# then train, predict and evaluate for each kind, every stage at base seed 5.
# The cap and the MLP's 16 hidden units keep model_mlp.json near 240 KB (5 MB
# at the defaults); every other hyperparameter is its default.
STAGED = "staged"
STAGED_CONFIG = ["seed = 5", "max_features = 500", "mlp.hidden_units = 16"]


def write_config(config_dir, name, lines):
    """The path of the config file ``name``.cfg in ``config_dir``, holding ``lines``."""
    config = os.path.join(config_dir, f"{name}.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{line}\n" for line in lines))
    return config


def compare(case, out, config_dir):
    """Run ``rusent compare`` for ``case`` on the corpus, writing its outputs to
    ``out`` and its config file to ``config_dir``; return the exit code."""
    from rusent.cli import main

    config = write_config(config_dir, case, CASES[case])
    return main(["compare", "--config", config, "--dataset", CORPUS, "--out", out])


def staged(out, config_dir):
    """Run the staged chain for every kind into ``out``, with its config file in
    ``config_dir``; return the first non-zero exit code, or 0."""
    from rusent.cli import main
    from rusent.models import CLASSIFIER_KINDS

    config = write_config(config_dir, STAGED, STAGED_CONFIG)
    common = ["--config", config, "--dataset", CORPUS, "--out", out]
    runs = [[stage, *common] for stage in ("ingest", "preprocess", "fit-features")]
    runs += [[stage, *common, "--classifier", kind]
             for kind in CLASSIFIER_KINDS for stage in ("train", "predict", "evaluate")]
    for argv in runs:
        status = main(argv)
        if status != 0:
            return status
    return 0


def regenerate():
    if not os.path.exists(CORPUS):
        sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
        import synthcorpus

        stopwords = os.path.join(ROOT, "src", "rusent", "data", "stopwords_roman_urdu.txt")
        synthcorpus.write_csv(CORPUS, 3, 600, synthcorpus.read_stopwords(stopwords))
    for case in CASES:
        out = os.path.join(HERE, case)
        shutil.rmtree(out, ignore_errors=True)
        with tempfile.TemporaryDirectory() as config_dir:
            status = compare(case, out, config_dir)
        if status != 0:
            sys.exit(f"compare for {case} exited {status}")
    out = os.path.join(HERE, STAGED)
    shutil.rmtree(out, ignore_errors=True)
    with tempfile.TemporaryDirectory() as config_dir:
        status = staged(out, config_dir)
    if status != 0:
        sys.exit(f"the staged chain exited {status}")


if __name__ == "__main__":
    regenerate()

"""The byte-identity contract as a check: ``compare`` on the committed corpus
writes exactly the committed outputs under tests/golden/, whether its cells are
scored in-process (one allowed CPU) or in forked workers (two), and whatever
the string hash seed of the ``python -m rusent`` process that runs it; the
staged chain writes the committed artifacts of all five kinds; and a rewrite of
the corpus that the cleanup or the loader's dedup undoes moves no ``compare``
output."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rusent.cli import main

from golden import regen

# The logistic regression and MLP model files hold full-precision weights whose
# last bits follow numpy's CPU dispatch and the BLAS kernel: on one x86-64
# machine, turning off numpy's AVX512 loops (NPY_DISABLE_CPU_FEATURES) moved
# both files, and OPENBLAS_CORETYPE=Prescott moved the MLP's, each weight by at
# most 2.3e-16. Their keys, hyperparameters and shapes must match exactly, and
# their numbers to RTOL and ATOL. Every other file, the predictions and
# metrics of both kinds among them, must match byte for byte.
TOLERANT = {"model_logistic_regression.json", "model_mlp.json"}
RTOL, ATOL = 1e-9, 1e-12


def assert_model_file(path, expected):
    """The model file at ``path`` is the JSON document ``expected`` up to RTOL and
    ATOL on each parameter's numbers."""
    got, want = json.loads(path.read_text(encoding="utf-8")), json.loads(expected)
    params = got.pop("parameters")
    assert got == {key: value for key, value in want.items() if key != "parameters"}
    assert sorted(params) == sorted(want["parameters"])
    for key, value in want["parameters"].items():
        assert np.shape(params[key]) == np.shape(value), f"{path.name}: {key} shape"
        np.testing.assert_allclose(params[key], value, rtol=RTOL, atol=ATOL,
                                   err_msg=f"{path.name}: {key}")


def assert_golden(case, out):
    """``out`` holds exactly the committed outputs of ``case``: byte for byte, but
    for the TOLERANT model files."""
    golden = os.path.join(regen.HERE, case)
    assert sorted(os.listdir(out)) == sorted(os.listdir(golden))
    for name in sorted(os.listdir(golden)):
        with open(os.path.join(golden, name), "rb") as handle:
            expected = handle.read()
        if name in TOLERANT:
            assert_model_file(out / name, expected)
        else:
            assert (out / name).read_bytes() == expected, f"{case}/{name} moved"


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", list(regen.CASES))
def test_compare_writes_the_golden_bytes(case, cpus, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    out = tmp_path / "out"
    assert regen.compare(case, str(out), str(tmp_path)) == 0
    assert_golden(case, out)


@pytest.mark.parametrize("hash_seed, pinned", [("0", False), ("1", True)],
                         ids=["hash-seed-0-every-cpu", "hash-seed-1-one-cpu"])
def test_the_command_writes_the_golden_bytes(hash_seed, pinned, tmp_path):
    # The installed command's own start-up, under two string hash seeds (the
    # tf-idf counts build a set of each run's terms), and its cells scored in
    # forked workers on every allowed CPU or in-process on one pinned CPU
    case, out = "runs2_max500", tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{line}\n" for line in regen.CASES[case]), encoding="utf-8")
    src = os.path.join(regen.ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    one_cpu = {min(os.sched_getaffinity(0))}
    run = subprocess.run(
        [sys.executable, "-m", "rusent", "compare", "--config", str(config),
         "--dataset", regen.CORPUS, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if pinned else None)
    assert run.returncode == 0, run.stderr
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr, run.stderr
    assert_golden(case, out)
    assert run.stdout == (out / "ranking.txt").read_text(encoding="utf-8")


def test_the_staged_chain_writes_the_golden_artifacts(tmp_path):
    out = tmp_path / "out"
    assert regen.staged(str(out), str(tmp_path)) == 0
    assert_golden(regen.STAGED, out)


# Metamorphic relations: a rewrite of every comment that the cleanup undoes,
# each whitespace character doubled, every letter uppercased or default stop
# words put around it, moves no byte of any compare output; nor does every row
# read twice, the second time dropped by load_csv's dedup. These settings,
# cheaper than the defaults, keep every kind above the majority rate of each
# test split, so the outputs carry signal.
RELATION_CONFIG = ["runs = 2", "max_features = 500", "linear_svm.lr = 0.5",
                   "linear_svm.epochs = 60", "mlp.lr = 0.5", "mlp.epochs = 10",
                   "mlp.hidden_units = 16"]


def relation_outputs(rows, folder):
    """Each output of compare under RELATION_CONFIG, name -> bytes, on the CSV
    ``rows``, with its cells scored in-process."""
    dataset, out = folder / "data.csv", folder / "out"
    with open(dataset, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    config = regen.write_config(str(folder), "relation", RELATION_CONFIG)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["compare", "--config", config, "--dataset", str(dataset),
                     "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def relation_source(tmp_path_factory):
    """The golden corpus's rows and their compare outputs under RELATION_CONFIG."""
    with open(regen.CORPUS, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    outputs = relation_outputs(rows, tmp_path_factory.mktemp("source"))
    for kind, entry in json.loads(outputs["metrics.json"])["classifiers"].items():
        for run in entry["per_run"]:
            support = [row["support"] for row in run["per_class"]]
            assert run["accuracy"] > max(support) / sum(support), kind
    return rows, outputs


@pytest.mark.parametrize("rewrite", [
    lambda text: re.sub(r"\s", lambda space: space[0] * 2, text), str.upper,
    lambda text: f"hai {text} ka",
], ids=["whitespace-doubled", "uppercased", "stop-words-added"])
def test_a_rewrite_the_cleanup_undoes_moves_no_output(rewrite, relation_source, tmp_path):
    rows, expected = relation_source
    rewritten = [rows[0]] + [[rewrite(text), *rest] for text, *rest in rows[1:]]
    assert rewritten != rows
    outputs = relation_outputs(rewritten, tmp_path)
    assert sorted(outputs) == sorted(expected)
    for name, content in expected.items():
        assert outputs[name] == content, f"{name} moved"


def test_rows_read_twice_move_no_output(relation_source, tmp_path):
    rows, expected = relation_source  # the header, then every data row twice over
    assert relation_outputs(rows + rows[1:], tmp_path) == expected

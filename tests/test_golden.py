"""The byte-identity contract as a check: ``compare`` on the committed corpus
writes exactly the committed outputs under tests/golden/, whether its cells are
scored in-process (one allowed CPU) or in forked workers (two), and whatever
the string hash seed of the ``python -m rusent`` process that runs it; the
staged chain writes the committed artifacts of all five kinds."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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

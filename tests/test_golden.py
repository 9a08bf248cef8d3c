"""The byte-identity contract as a check: ``compare`` on the committed corpus
writes exactly the committed outputs under tests/golden/, whether its cells are
scored in-process (one allowed CPU) or in forked workers (two), and whatever
the string hash seed of the ``python -m rusent`` process that runs it."""

import os
import subprocess
import sys

import pytest

from golden import regen


def assert_golden(case, out):
    """``out`` holds exactly the committed outputs of ``case``, byte for byte."""
    golden = os.path.join(regen.HERE, case)
    assert sorted(os.listdir(out)) == sorted(os.listdir(golden))
    for name in sorted(os.listdir(golden)):
        with open(os.path.join(golden, name), "rb") as handle:
            assert (out / name).read_bytes() == handle.read(), f"{case}/{name} moved"


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

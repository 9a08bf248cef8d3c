"""The byte-identity contract as a check: ``compare`` on the committed corpus
writes exactly the committed outputs under tests/golden/, whether its cells are
scored in-process (one allowed CPU) or in forked workers (two)."""

import os

import pytest

from golden import regen


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", list(regen.CASES))
def test_compare_writes_the_golden_bytes(case, cpus, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    out = tmp_path / "out"
    assert regen.compare(case, str(out), str(tmp_path)) == 0
    golden = os.path.join(regen.HERE, case)
    assert sorted(os.listdir(out)) == sorted(os.listdir(golden))
    for name in sorted(os.listdir(golden)):
        with open(os.path.join(golden, name), "rb") as handle:
            assert (out / name).read_bytes() == handle.read(), f"{case}/{name} moved"

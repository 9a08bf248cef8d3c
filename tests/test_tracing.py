"""The span tracer in ``benchmarks/`` still finds every function it wraps."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from rusent.cli import main

from conftest import three_class_corpus
from test_config_cli import write_dataset

TRACED_CLI = Path(__file__).resolve().parents[1] / "benchmarks" / "traced_cli.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_traced_staged_naive_bayes_records_persist_spans(tmp_path):
    common = ["--dataset", write_dataset(tmp_path / "data.csv", three_class_corpus(45, seed=3)),
              "--out", str(tmp_path / "out")]
    for args in (["ingest"], ["preprocess"], ["fit-features"]):
        assert main(args + common) == 0
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    names = {}
    for stage in ("train", "predict"):
        spans = tmp_path / f"{stage}.json"
        argv = [sys.executable, str(TRACED_CLI), str(spans), stage, "--",
                stage, "--classifier", "naive_bayes", *common]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        names[stage] = Counter(span["name"] for span in json.loads(spans.read_text()))
    # each stage loads tfidf.json once; only model files count as models.persist
    assert names["train"]["features.persist"] == 1
    assert names["train"]["models.persist.save"] == 1
    assert names["predict"]["features.persist"] == 1
    assert names["predict"]["models.persist.load"] == 1
    assert "models.persist.load" not in names["train"]
    assert "models.persist.save" not in names["predict"]

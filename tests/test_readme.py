"""The README's python examples run, in order, in one namespace, on a small
corpus at the path they load."""

import csv
import re
from pathlib import Path

from conftest import three_class_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    (tmp_path / "data").mkdir()
    with open(tmp_path / "data" / "comments.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["comment", "sentiment", "nan"])
        for record in three_class_corpus(150, seed=99):
            writer.writerow([record.text, record.label.label, "nan"])
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[0].startswith("linear_svm ")

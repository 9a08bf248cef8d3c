"""The README's python examples run, in order, in one namespace, on a small
corpus at the path they load; its staged CLI lines name the files each stage
writes."""

import csv
import re
from pathlib import Path

from rusent.cli import STAGES

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


def test_cli_lines_name_the_files_each_stage_writes():
    lines = re.findall(r"^rusent (\S+) +(.*?)# (.*)$", README.read_text(encoding="utf-8"),
                       re.MULTILINE)
    assert [stage for stage, _, _ in lines] == list(STAGES)
    for stage, args, comment in lines:
        kind = re.search(r"--classifier (\S+)", args)
        writes = [name.format(kind=kind and kind[1]) for name in STAGES[stage][2]]
        assert re.findall(r"[\w.]+\.(?:csv|json)", comment) == writes, stage

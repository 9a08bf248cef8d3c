import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.artifacts import csv_rows, write_csv, write_json
from rusent.cli import main
from rusent.exceptions import MalformedRowError

from conftest import three_class_corpus, write_rows

KINDS = ("knn", "linear_svm", "logistic_regression", "mlp", "naive_bayes")


class TestAtomicWrites:
    def test_failing_rows_leave_the_previous_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [[1, 2]])
        before = path.read_bytes()

        def rows():
            yield [3, 4]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_unserializable_payload_leaves_the_previous_json(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_written_files_replace_the_old_whole(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a"], [["x" * 100]] * 10)
        write_csv(path, ["a"], [["y"]])
        assert path.read_text(encoding="utf-8") == "a\ny\n"


class TestCsvRows:
    def test_lines_are_where_rows_start(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('h1,h2\n"two\nlines",x\n\nlast,y\n', encoding="utf-8")
        assert list(csv_rows(path)) == [(2, ["two\nlines", "x"]), (5, ["last", "y"])]
        assert list(csv_rows(path, has_header=False))[0] == (1, ["h1", "h2"])

    def test_unparseable_row_names_its_first_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('h\nok\n"open\n' + "x" * 140000 + "\n", encoding="utf-8")
        with pytest.raises(MalformedRowError, match=r"t\.csv line 3: field larger") as err:
            list(csv_rows(path))
        assert [line for line, _ in err.value.rows] == [3]

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"h\nacha,positive\nbura \xff,negative\n")
        with pytest.raises(MalformedRowError, match=r"t\.csv: 'utf-8' codec can't decode"):
            list(csv_rows(path))


# The stage that reads each staged artifact, per classifier kind.
CONSUMERS = {
    "preprocessed.csv": ("fit-features",),
    "train.csv": ("train",),
    "test.csv": ("predict",),
    "tfidf.json": ("train", "predict"),
    "model_{kind}.json": ("predict",),
    "predictions_{kind}.csv": ("evaluate",),
}


def _delete_line(data, at):
    lines = data.splitlines(keepends=True)
    del lines[at % len(lines)]
    return b"".join(lines)


def _duplicate_line(data, at):
    lines = data.splitlines(keepends=True)
    lines.insert(at % len(lines), lines[at % len(lines)])
    return b"".join(lines)


CORRUPTIONS = {
    "truncate": lambda data, at, byte: data[: at % len(data)],
    "delete-line": lambda data, at, byte: _delete_line(data, at),
    "duplicate-line": lambda data, at, byte: _duplicate_line(data, at),
    "overwrite-byte": lambda data, at, byte: (
        data[: at % len(data)] + bytes([byte]) + data[at % len(data) + 1 :]),
}


@pytest.fixture(scope="module")
def staged_out(tmp_path_factory):
    """An output directory after every stage has run for all five kinds."""
    root = tmp_path_factory.mktemp("staged")
    corpus = three_class_corpus(60, seed=8)
    dataset = write_rows(root / "data.csv", [(r.text, r.label.label) for r in corpus])
    common = ["--dataset", str(dataset), "--out", str(root / "out")]
    for args in (["ingest"], ["preprocess"], ["fit-features"]):
        assert main(args + common) == 0
    for kind in KINDS:
        for stage in ("train", "predict", "evaluate"):
            assert main([stage, "--classifier", kind] + common) == 0
    return root / "out"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(artifact=st.sampled_from(sorted(CONSUMERS)), kind=st.sampled_from(KINDS),
       corruption=st.sampled_from(sorted(CORRUPTIONS)), at=st.integers(0, 10**6),
       byte=st.integers(0, 255), data=st.data())
def test_corrupted_artifact_never_raises(staged_out, artifact, kind, corruption, at, byte,
                                         data):
    """A damaged artifact makes its consumer exit 0, 1 or 2, never raise."""
    stage = data.draw(st.sampled_from(CONSUMERS[artifact]), label="stage")
    with tempfile.TemporaryDirectory() as work:
        out = shutil.copytree(staged_out, os.path.join(work, "out"))
        path = os.path.join(out, artifact.format(kind=kind))
        with open(path, "rb") as fh:
            original = fh.read()
        with open(path, "wb") as fh:
            fh.write(CORRUPTIONS[corruption](original, at, byte))
        kind_flag = [] if stage == "fit-features" else ["--classifier", kind]
        assert main([stage, *kind_flag, "--out", out]) in (0, 1, 2)

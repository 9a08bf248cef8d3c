import contextlib
import importlib
import pickle

import numpy as np
import pytest

import rusent
from rusent.config import RunConfig
from rusent.corpus import LabeledComment, Sentiment
from rusent.eval import PlannedSplit, RunAggregate, metrics
from rusent.models import ClassifierSpec
from rusent.preprocess import TokenizedComment


class TestPublicApi:
    def test_each_name_is_the_object_of_its_defining_module(self):
        for name in rusent.__all__:
            value = getattr(rusent, name)
            module = f"rusent.{rusent._SOURCES[name]}"
            if callable(value):  # a class or function: its table entry is where it is defined
                assert value.__module__ == module, name
            assert getattr(importlib.import_module(module), name) is value, name

    def test_star_import(self):
        namespace = {}
        exec("from rusent import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(rusent.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'Corpus'"):
            rusent.Corpus


class TestRecords:
    """The package's seven records: immutable, no shared mutable default, picklable."""

    RECORDS = [
        (RunConfig(), "seed"),
        (ClassifierSpec("knn"), "kind"),
        (LabeledComment("acha hai", Sentiment.POSITIVE, 3), "text"),
        (TokenizedComment(3, ("acha",), Sentiment.NEUTRAL), "tokens"),
        (metrics(np.eye(3, dtype=np.int64)), "accuracy"),
        (RunAggregate((), {}, {}, (), np.zeros((3, 3), dtype=np.int64)), "mean"),
        (PlannedSplit((), (), 0), "fold"),
    ]

    @pytest.mark.parametrize("record, field", RECORDS,
                             ids=[type(r).__name__ for r, _ in RECORDS])
    def test_assignment_raises_attribute_error(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_no_shared_mutable_default(self):
        first, second = ClassifierSpec("knn"), ClassifierSpec("knn")
        first.hyperparams["k"] = 3
        assert second.hyperparams == {} and ClassifierSpec("knn").hyperparams == {}
        with contextlib.suppress(TypeError):  # a read-only mapping refuses the write
            RunConfig().overrides["knn"] = {"k": 3}
        assert RunConfig().overrides == {}

    def test_classifier_spec_pickles(self):
        spec = ClassifierSpec("mlp", {"hidden_units": 8})
        restored = pickle.loads(pickle.dumps(spec))
        assert type(restored) is ClassifierSpec and restored == spec

    def test_reprs(self):
        assert repr(LabeledComment("acha hai", Sentiment.POSITIVE, 3)) == (
            "LabeledComment(text='acha hai', label=<Sentiment.POSITIVE: 2>, row_id=3)")
        assert repr(TokenizedComment(3, ("acha",), Sentiment.NEUTRAL)) == (
            "TokenizedComment(row_id=3, tokens=('acha',), label=<Sentiment.NEUTRAL: 1>)")
        assert repr(ClassifierSpec("knn", {"k": 3})) == (
            "ClassifierSpec(kind='knn', hyperparams={'k': 3})")
        assert repr(ClassifierSpec("mlp")) == "ClassifierSpec(kind='mlp', hyperparams={})"

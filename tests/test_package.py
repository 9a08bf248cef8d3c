import importlib

import pytest

import rusent


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

import importlib
import inspect

import pytest

import ineqif


@pytest.mark.parametrize("name", ["numeric", "distributions", "measures",
                                  "influence", "estimation"])
def test_all_is_defined_in_its_module_and_reexported(name):
    module = importlib.import_module(f"ineqif.{name}")
    for public in module.__all__:
        obj = getattr(module, public)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, public
        assert getattr(ineqif, public, None) is obj, public

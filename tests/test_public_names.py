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


def test_every_exported_function_and_class_is_in_its_modules_all():
    for public in dir(ineqif):
        obj = getattr(ineqif, public)
        if public.startswith("_") or not (inspect.isfunction(obj)
                                          or inspect.isclass(obj)):
            continue
        module = importlib.import_module(obj.__module__)
        if hasattr(module, "__all__"):
            assert public in module.__all__, f"{module.__name__}.{public}"


@pytest.mark.parametrize("name", ["cli", "numeric", "distributions",
                                  "measures", "influence", "estimation"])
def test_no_public_callable_takes_a_quadrature_tolerance(name):
    # the quadrature has one fixed error target
    module = importlib.import_module(f"ineqif.{name}")
    for public, obj in vars(module).items():
        if public.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        callables = [(public, obj)]
        if inspect.isclass(obj):
            callables += [(f"{public}.{attr}", fn)
                          for attr, fn in vars(obj).items()
                          if not attr.startswith("_") and callable(fn)]
        for label, fn in callables:
            if inspect.isfunction(fn) or inspect.isclass(fn):
                assert "tol" not in inspect.signature(fn).parameters, label

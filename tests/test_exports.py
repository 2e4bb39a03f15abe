"""The package namespace re-exports exactly the library's public names."""

import importlib
import inspect
import pkgutil

import extreme_sentinel
from extreme_sentinel import errors


def test_every_export_resolves():
    missing = [name for name in extreme_sentinel.__all__ if not hasattr(extreme_sentinel, name)]
    assert missing == []


def test_exports_are_the_library_modules_public_names():
    expected = {"__version__"}
    for info in pkgutil.iter_modules(extreme_sentinel.__path__):
        if info.name != "cli":
            module = importlib.import_module(f"extreme_sentinel.{info.name}")
            expected.update(getattr(module, "__all__", ()))
    expected.update(
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    )
    assert len(extreme_sentinel.__all__) == len(set(extreme_sentinel.__all__))
    assert set(extreme_sentinel.__all__) == expected

"""Every name a shiftlab module lists in __all__ must exist in it, so that a
deletion that leaves a stale export fails here rather than at
``from shiftlab.<module> import *``."""

import importlib
import pkgutil

import pytest

import shiftlab

MODULES = ["shiftlab"] + [f"shiftlab.{info.name}"
                          for info in pkgutil.iter_modules(shiftlab.__path__)]


def test_every_module_is_listed():
    assert {"shiftlab.algebra", "shiftlab.criteria", "shiftlab.scalars"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

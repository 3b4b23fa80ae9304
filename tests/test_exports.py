"""Every name a shiftlab module lists in __all__ must exist in it, so that a
deletion that leaves a stale export fails here rather than at
``from shiftlab.<module> import *``; and the package's own __all__ is the
list the README documents."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_readme_lists_the_package_exports():
    # the README's Library section imports exactly shiftlab.__all__, in order,
    # and its example runs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [alias.name for node in ast.parse(code).body
                if isinstance(node, ast.ImportFrom) and node.module == "shiftlab"
                for alias in node.names]
    assert imported == shiftlab.__all__
    exec(compile(code, "README.md", "exec"), {})

"""Every name a shiftlab module lists in __all__ must exist in it, so that a
deletion that leaves a stale export fails here rather than at
``from shiftlab.<module> import *``; every such name has a caller in the
package or is a package export, so that code whose last caller goes does
not stay behind as an export; that cli.py writes no report but through
reporting; that only ShiftOperator maps a direction to its step; that no
module calls BLAS; and the package's own __all__ is the list the README
documents."""

import ast
import importlib
import pkgutil
from collections import Counter
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


def _count_references(node, owners: frozenset, refs: Counter) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.alias):
            name = child.name
        else:
            name = None
        if name is not None and name not in owners:
            refs[name] += 1
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _count_references(child, owners | {child.name}, refs)
        else:
            _count_references(child, owners, refs)


def _references() -> Counter:
    """How often src/shiftlab reads, imports or looks up each name as an
    attribute, outside the def or class that defines it."""
    refs: Counter = Counter()
    for path in Path(shiftlab.__file__).parent.glob("*.py"):
        _count_references(ast.parse(path.read_text()), frozenset(), refs)
    return refs


def test_cli_writes_reports_only_through_reporting():
    # cli.py opens no file and imports no private name of reporting, so every
    # report leaves through reporting's writers, which flush inside main
    tree = ast.parse((Path(shiftlab.__file__).parent / "cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found += [name] if name in ("open", "write_text", "write_bytes") else []
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("reporting"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _maps_direction_to_unit(node) -> bool:
    """node is `-1 if <test of .direction> else 1` (either way round) or a
    dict literal from "backward"/"forward" to -1 and 1."""
    def unit(expr):
        try:
            return ast.literal_eval(expr) in (-1, 1)
        except ValueError:
            return False
    if isinstance(node, ast.IfExp):
        reads = any(isinstance(n, ast.Attribute) and n.attr == "direction"
                    or isinstance(n, ast.Name) and n.id == "direction" for n in ast.walk(node.test))
        return reads and unit(node.body) and unit(node.orelse)
    if isinstance(node, ast.Dict):
        keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
        return bool(keys & {"backward", "forward"}) and all(map(unit, node.values))
    return False


def test_walk_rule_is_stated_once():
    # only ShiftOperator maps a shift's direction to its step d = -1 or +1;
    # every other reader takes op.step or op.walk
    found = []
    for path in Path(shiftlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {id(n) for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) and c.name == "ShiftOperator" for n in ast.walk(c)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in owner and _maps_direction_to_unit(node)]
    assert found == []


def test_every_export_has_a_caller():
    # a submodule export is used in src/shiftlab or is a package export
    refs = _references()
    unused = {f"{name.rsplit('.', 1)[1]}.{attr}" for name in MODULES if name != "shiftlab"
              for attr in getattr(importlib.import_module(name), "__all__", ())
              if refs[attr] == 0 and attr not in shiftlab.__all__}
    assert unused == set()


# numpy functions that call into BLAS (a matrix product, np.linalg)
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_no_module_calls_blas():
    # cli.run keeps numpy's BLAS to one thread, which holds only while the
    # package calls no BLAS routine: no such name and no `@` product
    found = []
    for path in Path(shiftlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in BLAS_NAMES | {"@"}]
    assert found == []

"""Source hygiene: every module-level import in the package is used, and
the package imports nothing outside itself and the standard library.

`__init__.py` is skipped by the unused-import check, as its imports are the
package's re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sepshare"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line number."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere, including inside string annotations."""
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert {"cli.py", "nsepa.py", "network.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{path.stem}.{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, "unused imports: " + ", ".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Iterable, Optional\nx: 'Optional[int]' = None\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Iterable"}


def _third_party(tree: ast.Module) -> set[str]:
    """Top-level modules imported anywhere, neither relative nor standard."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_only_the_standard_library_is_imported(path):
    found = _third_party(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.stem} imports {sorted(found)}"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse(
        "import json, networkx.algorithms as nxa\nfrom . import errors\n"
        "from os.path import join\ndef f():\n    import numpy\n"
    )
    assert _third_party(tree) == {"networkx", "numpy"}

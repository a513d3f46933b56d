"""Source hygiene: every module-level import in the package is used, the
package imports nothing outside itself and the standard library, and the
README names no command-line flag that the parser does not accept.

`__init__.py` is skipped by the unused-import check, as its imports are the
package's re-exports.
"""

import argparse
import ast
import re
import sys
from pathlib import Path

import pytest

from sepshare.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sepshare"
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


def _accepted_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser and of all its subcommands."""
    flags: set[str] = set()
    for action in parser._actions:
        flags |= set(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _accepted_flags(sub)
    return flags


def _command_line_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _unknown_flags(text: str) -> list[str]:
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    return sorted(named - _accepted_flags(build_parser()))


def test_readme_flags_are_accepted_by_the_cli():
    section = _command_line_section()
    assert "--profile" in section and "--trace" in section
    unknown = _unknown_flags(section)
    assert not unknown, f"README names flags the CLI rejects: {unknown}"


def test_the_flag_check_sees_a_stale_flag():
    text = "`nsepa check --mode full_paths`, `optimum --max-paths 9`"
    assert _unknown_flags(text) == ["--mode"]

"""The library runs on the standard library alone.

The first two checks read source text only, so they hold offline and need
nothing installed: every import in src/leavitt is relative or names a
standard library module, and pyproject.toml declares no runtime
dependency.  The last checks that the console script pyproject.toml
declares names a callable.
"""

import ast
import importlib
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "leavitt").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_library_imports_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, node.lineno, name)


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S)
    assert project is not None
    assert re.findall(r"^dependencies\s*=.*$", project.group(1), re.M) == ["dependencies = []"]


def test_console_script_names_a_callable():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts is not None
    entries = re.findall(r'^(\S+)\s*=\s*"([\w.]+):(\w+)"$', scripts.group(1), re.M)
    assert entries == [("leavitt", "leavitt.cli", "main")]
    for _, module, name in entries:
        assert callable(getattr(importlib.import_module(module), name))

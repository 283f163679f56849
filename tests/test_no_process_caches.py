"""No module of the package holds a ``functools`` cache.  Generated classes
live in a run's store (``enumeration.Classes``), so what a run does and
counts never depends on what the process ran before."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alphaindex"
CACHES = {"lru_cache", "cache"}


def _functools_caches(tree: ast.AST) -> list[int]:
    """The lines that import ``functools.lru_cache`` or ``functools.cache``
    by name, or read either off the imported module."""
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            lines.append(node.lineno)
    return lines


def test_no_module_holds_a_functools_cache():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules for line in _functools_caches(ast.parse(path.read_text()))
    ]
    assert found == []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache",
    "from functools import reduce, cache as memo",
    "import functools\n@functools.lru_cache(maxsize=None)\ndef f(n): return n",
    "import os, functools as ft\nmemo = ft.cache",
])
def test_the_guard_finds_each_spelling(source):
    assert _functools_caches(ast.parse(source))

"""warpsim itself imports only the standard library (and itself, relatively)."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "warpsim").glob("*.py"))


def absolute_imports(tree):
    """Top-level module names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_absolute_imports_reads_both_forms():
    tree = ast.parse("import numpy.linalg as la\nfrom scipy import stats\nfrom . import core\n")
    assert list(absolute_imports(tree)) == ["numpy", "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [name for name in absolute_imports(tree) if name not in sys.stdlib_module_names] == []


def test_every_source_is_checked():
    assert len(SOURCES) >= 9 and any(path.name == "core.py" for path in SOURCES)

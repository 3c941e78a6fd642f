"""Structural checks on the package source."""

import ast
from pathlib import Path

import noiselab

SOURCES = sorted(Path(noiselab.__file__).parent.glob("*.py"))


def _imports_inside_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"gauss.py", "partitions.py", "stability.py",
                                         "variation.py", "voting.py", "cli.py"}


def test_no_imports_inside_function_bodies():
    # every module-level dependency is visible at the top of its module; no
    # module of the package needs a deferred import to break a cycle
    found = [f"{p.name}:{line}" for p in SOURCES
             for line in sorted(set(_imports_inside_functions(ast.parse(p.read_text()))))]
    assert found == []

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


def _scipy_integrate_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
            yield node.lineno


def test_no_scipy_integrate():
    # facet integrals are batched fixed rules; an adaptive scalar quad would
    # call its integrand one point at a time
    found = [f"{p.name}:{line}" for p in SOURCES
             for line in _scipy_integrate_imports(ast.parse(p.read_text()))]
    assert found == []


def _mode_comparisons(tree, path):
    """Comparisons of ``mode``, ``rhs_mode`` or any other ``*mode`` name with
    anything but None (string literals, tuples of them, string constants),
    outside ``gauss.route``."""
    skip = set()
    if path.name == "gauss.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "route":
                skip = {id(n) for n in ast.walk(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in skip:
            continue
        operands = [node.left, *node.comparators]
        reads_mode = any(isinstance(o, ast.Name) and o.id.endswith("mode") for o in operands)
        if reads_mode and not any(isinstance(o, ast.Constant) and o.value is None for o in operands):
            yield node.lineno


def test_mode_is_read_only_by_the_route_dispatcher():
    # every mode= keyword picks its route in gauss.route; an inline comparison
    # elsewhere is a second vocabulary that a misspelt mode can slip past
    found = [f"{p.name}:{line}" for p in SOURCES
             for line in _mode_comparisons(ast.parse(p.read_text()), p)]
    assert found == []


CELL_NAMES = {"HalfSpace", "ConeCell", "Sector2D", "ExplicitCell", "ProductWithR", "Complement",
              "ShiftedSet", "DilationFlowSet", "OracleSet", "_halfspace_side"}


def _cell_references(tree):
    """Cell classes imported by name or reached as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        for name in sorted(names & CELL_NAMES):
            yield node.lineno, name


def test_only_partitions_knows_cell_kinds():
    # every closed form reaches a cell through SetSpec.halfspace() and
    # SetSpec.sector_decomposition(), so no other module branches on a cell
    # class; __init__ only re-exports the public classes
    found = [f"{p.name}:{line} {name}" for p in SOURCES
             if p.name not in ("partitions.py", "__init__.py")
             for line, name in _cell_references(ast.parse(p.read_text()))]
    assert found == []

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
    # every closed form reaches a cell through its one Shape record
    # (SetSpec.shape: a half-space, planar sectors in a plane or a central
    # cone, with its measure), so no other module branches on a cell class;
    # __init__ only re-exports the public classes
    found = [f"{p.name}:{line} {name}" for p in SOURCES
             if p.name not in ("partitions.py", "__init__.py")
             for line, name in _cell_references(ast.parse(p.read_text()))]
    assert found == []


REDUCTIONS = {"halfspace", "sector_decomposition", "cone_normals"}


def _reduction_definitions(tree, module):
    """(owner, name) of every def or assignment of a reduction name in the body
    of the module or of one of its classes."""
    scopes = [(module, tree.body)] + [(n.name, n.body) for n in ast.walk(tree)
                                      if isinstance(n, ast.ClassDef)]
    for owner, body in scopes:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            yield from ((owner, name) for name in names if name in REDUCTIONS)


def test_the_reductions_are_views_written_once():
    # a cell states its shape once, as its record; halfspace(),
    # sector_decomposition() and cone_normals() are views on it written on
    # SetSpec alone.  ConeCell binds its own sector_decomposition only because
    # perfbench/tracer.py times that view by name on the class
    found = {d for p in SOURCES for d in _reduction_definitions(ast.parse(p.read_text()), p.stem)}
    assert found == {("SetSpec", name) for name in REDUCTIONS} | {("ConeCell", "sector_decomposition")}


def _functions(tree):
    """Every function definition by name, methods and nested functions included."""
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _error_slots(func, slots):
    """The expressions a function hands on as error figures: the ``slots`` of
    every tuple it returns, and the second argument of every Estimate or
    VectorEstimate it builds."""
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
            yield from (node.value.elts[k] for k in slots if k < len(node.value.elts))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("Estimate", "VectorEstimate")):
            if len(node.args) > 1 and not isinstance(node.args[1], ast.Starred):
                yield node.args[1]
            yield from (kw.value for kw in node.keywords if kw.arg == "std_error")


def _float_literals(expr, func):
    """Nonzero float constants in ``expr`` and in whatever ``func`` assigns to
    the names it reads, followed transitively."""
    assigned = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        assigned.setdefault(name.id, []).append(node.value)
    seen, todo = set(), [expr]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value:
                yield node.lineno
            elif isinstance(node, ast.Name) and node.id in assigned and node.id not in seen:
                seen.add(node.id)
                todo.extend(assigned[node.id])


#: (module, function, error slots of its returned tuples): the cell-moment,
#: propeller, gradient and d/drho routes, the closed forms they return, and the
#: pair d/drho and finite-difference oracles of stability
MOMENT_ROUTES = [
    ("stability.py", "cell_moment", ()),
    ("stability.py", "propeller_functional", ()),
    ("partitions.py", "moment_exact", (1,)),
    ("partitions.py", "_shifted_moment", (1, 3)),
    ("partitions.py", "ou_gradient_exact", (1,)),
    ("partitions.py", "ou_drho_exact", (1,)),
    ("partitions.py", "_halfspace_pair_drho", (1,)),
    ("partitions.py", "_sector_pair_drho", (1,)),
    ("variation.py", "_flow_difference", ()),
    ("gauss.py", "ou_gradient_quadrature", ()),
    ("gauss.py", "ou_rho_derivative_exact", ()),
    ("cones.py", "central_cone", (1, 3)),
]


def test_no_float_literal_is_a_moment_error_figure():
    # each figure comes from the magnitudes of the terms it bounds; a literal
    # such as 1e-12 would be a promise that no computation checks
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    found = []
    for module, name, slots in MOMENT_ROUTES:
        func = _functions(trees[module])[name]
        for expr in _error_slots(func, slots):
            found += [f"{module}:{line}" for line in _float_literals(expr, func)]
    assert found == []


def _reads_ou_exact(func):
    """Lines where ``func`` reaches ``ou_exact``, as an attribute or by name."""
    for node in ast.walk(func):
        if ((isinstance(node, ast.Attribute) and node.attr == "ou_exact")
                or (isinstance(node, ast.Constant) and node.value == "ou_exact")):
            yield node.lineno


def test_no_route_differences_t():
    # the gradient and d/drho of T_rho 1_A are closed forms in the cell's moment
    # at the shifted apex; neither route may evaluate T itself, so no stencil
    # in x or rho can come back
    funcs = _functions(ast.parse(next(p for p in SOURCES if p.name == "gauss.py").read_text()))
    found = [f"{name}:{line}" for name in ("ou_gradient_quadrature", "ou_rho_derivative_exact")
             for line in _reads_ou_exact(funcs[name])]
    assert found == []


def test_the_float_literal_check_catches_a_constant():
    func = ast.parse("def f(m):\n    err = 1e-12\n    return Estimate(m, err + 0.0, 0, 'q')\n")
    assert [line for expr in _error_slots(func.body[0], ()) for line in _float_literals(expr, func)] == [2]


FACET_INTERNALS = {"_lo", "_hi", "mass_err"}


def _facet_internals(tree):
    """Comparisons of a ``.kind`` attribute, reads of a facet's interval ends or
    pilot mass error, and calls of its sampler."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            if any(isinstance(o, ast.Attribute) and o.attr == "kind"
                   for o in [node.left, *node.comparators]):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in FACET_INTERNALS:
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sample"):
            yield node.lineno


def test_variation_leaves_facet_integrals_to_facets():
    # Facet.gauss_integral picks each facet's route (closed form, line rule or
    # sampling) and carries its error figures; variation supplies the integrand
    path = next(p for p in SOURCES if p.name == "variation.py")
    assert sorted(set(_facet_internals(ast.parse(path.read_text())))) == []


def _verify_path(funcs, name="cmd_verify", seen=None):
    """``name`` and every function of the same module it calls by name, transitively."""
    seen = set() if seen is None else seen
    seen.add(name)
    for node in ast.walk(funcs[name]):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in funcs and node.func.id not in seen):
            _verify_path(funcs, node.func.id, seen)
    return seen


def test_cli_states_no_verify_criterion():
    # every suite, comparison and tolerance lives in noiselab.checks; the CLI
    # only parses, scales by --tolerance-scale, writes and sets the exit code
    funcs = _functions(ast.parse(next(p for p in SOURCES if p.name == "cli.py").read_text()))
    assert sorted(n for n in funcs if n.startswith("_suite_") or n == "_check") == []
    path = _verify_path(funcs)
    assert path >= {"cmd_verify", "_header", "_emit"}
    found = [f"{name}:{node.lineno}" for name in sorted(path) for node in ast.walk(funcs[name])
             if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert found == []

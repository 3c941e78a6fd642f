"""Structural checks on the package source."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

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


#: the largest int literal a divisor or exponent may be: halves, squares and
#: the 4 of a quadratic are a formula's own arithmetic, while a larger one, or
#: a negative exponent, scales a figure by a factor no computation checks
SMALL_INT = 4


def _int_scale(node) -> bool:
    """Whether ``node`` divides by an int literal larger than SMALL_INT, or
    takes a power or shift with such a literal or a negative exponent."""
    if not isinstance(node, ast.BinOp):
        return False

    def value(o):
        sign = -1 if isinstance(o, ast.UnaryOp) and isinstance(o.op, ast.USub) else 1
        o = o.operand if isinstance(o, ast.UnaryOp) else o
        ok = isinstance(o, ast.Constant) and type(o.value) is int
        return sign * o.value if ok else None

    if isinstance(node.op, (ast.Div, ast.FloorDiv)):
        right = value(node.right)
        return right is not None and abs(right) > SMALL_INT
    if isinstance(node.op, (ast.Pow, ast.LShift, ast.RShift)):
        base, power = value(node.left), value(node.right)
        return ((base is not None and abs(base) > SMALL_INT)
                or (power is not None and (abs(power) > SMALL_INT or power < 0)))
    return False


def _literals(expr, func):
    """Nonzero float constants, and int literals that scale (see
    :func:`_int_scale`), in ``expr`` and in whatever ``func`` assigns to the
    names it reads, followed transitively."""
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
            if ((isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value)
                    or _int_scale(node)):
                yield node.lineno
            elif isinstance(node, ast.Name) and node.id in assigned and node.id not in seen:
                seen.add(node.id)
                todo.extend(assigned[node.id])


#: (module, function, error slots of its returned tuples): the cell-moment,
#: propeller, gradient and d/drho routes, the closed forms they return, the
#: pair rows of the Plackett kinds (P and d/drho) with the half-space and
#: sector integrands' magnitudes and the bases' bounds, and the
#: finite-difference oracles of stability
MOMENT_ROUTES = [
    ("stability.py", "propeller_functional", ()),
    ("partitions.py", "moment_exact", (1,)),
    ("partitions.py", "_shifted_moment", (1, 3)),
    ("partitions.py", "ou_gradient_exact", (1,)),
    ("partitions.py", "ou_drho_exact", (1,)),
    ("partitions.py", "_kind_rows", (1,)),
    ("partitions.py", "_halfspace_integrand", (1,)),
    ("partitions.py", "_plackett_integrand", (1,)),
    ("partitions.py", "_sector_base", (1, 2)),
    ("partitions.py", "_cone_base", (1, 2)),
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
            found += [f"{module}:{line}" for line in _literals(expr, func)]
    assert found == []


#: the pair rule of partitions.py: P(X in a, Y in b) and its d/drho per cell pair
PAIR_RULE = {"pair_sums", "pair_drho_sum", "pair_exact", "pair_drho_exact", "_pair_rows",
             "_kind_rows", "_KINDS", "_halfspace_integrand", "_halfspace_pair_rows",
             "_sector_integrand", "_plackett_integrand", "_sector_base", "_cone_integrand",
             "cone_pair_terms", "_cone_base", "shifted_sector_pair_stability"}


def _names(node):
    """Every name ``node`` reads, binds or imports, and every attribute it reads."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


#: the nodes inside which a call runs once per item
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _pair_rule_calls(func):
    """Whether each call ``func`` makes of a PAIR_RULE name sits in a loop."""
    looped = {id(n) for loop in ast.walk(func) if isinstance(loop, LOOPS) for n in ast.walk(loop)}
    return [id(node) in looped for node in ast.walk(func)
            if isinstance(node, ast.Call) and PAIR_RULE & set(_names(node.func))]


def test_one_helper_reaches_the_pair_rule():
    # every deterministic stability sum, rho = 0 and d/drho included, is one
    # helper's call of the pair rule, so a new pair route is added once; that
    # helper makes one call for the whole grid, P and d/drho alike, so no
    # rho is taken alone
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    funcs = _functions(trees["stability.py"])
    callers = [name for name, func in funcs.items() if PAIR_RULE & set(_names(func))]
    assert callers == ["_pair_rule"]
    assert _pair_rule_calls(funcs["_pair_rule"]) == [False]
    used = set(_names(trees["variation.py"]))
    assert PAIR_RULE & used == set()
    assert "_pair_rule" in used


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


#: callables that build a quadrature table: numpy's Gauss rules, scipy.special's
#: roots_* and *_roots, and the eigensolvers of the Golub-Welsch route
TABLE_BUILDERS = re.compile(r"^((leg|cheb|lag|herm|herme)gauss|roots_\w+|\w+_roots|eig\w*)$")
#: the functions that may build one: gauss._kronrod builds every Gauss-Legendre
#: and Gauss-Kronrod table, and gauss._gh_nodes the Gauss-Hermite rule of T_rho
#: on callables, whose weight is on the whole line
TABLE_HOMES = {("gauss.py", "_kronrod"), ("gauss.py", "_gh_nodes")}


def _table_builds(tree, path):
    """(line, name) of each call or import of a table builder outside TABLE_HOMES."""
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (path.name, f.name) in TABLE_HOMES
            for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call):
            f = node.func
            names = [f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if TABLE_BUILDERS.match(name))


def test_one_quadrature_table_builder():
    # every embedded rule reads gauss._kronrod's cached tables, whose Gauss
    # nodes its Kronrod rule reuses; a second builder would evaluate the
    # integrand at nodes no other rule shares
    found = [f"{p.name}:{line} {name}" for p in SOURCES
             for line, name in _table_builds(ast.parse(p.read_text()), p)]
    assert found == []


@pytest.mark.parametrize("source, flagged", [
    ("def f(n):\n    return np.polynomial.legendre.leggauss(n)\n", [(2, "leggauss")]),
    ("from scipy.special import roots_legendre\n", [(1, "roots_legendre")]),
    ("def f(m):\n    return np.linalg.eigvalsh(m)\n", [(2, "eigvalsh")]),
    ("def _kronrod(n):\n    return np.polynomial.legendre.leggauss(n)\n", []),
    ("def f(m):\n    return np.linalg.svd(m)\n", [])])
def test_the_table_check_catches_a_builder(source, flagged):
    assert list(_table_builds(ast.parse(source), Path("gauss.py"))) == flagged


def test_the_float_literal_check_catches_a_constant():
    func = ast.parse("def f(m):\n    err = 1e-12\n    return Estimate(m, err + 0.0, 0, 'q')\n")
    assert [line for expr in _error_slots(func.body[0], ()) for line in _literals(expr, func)] == [2]


@pytest.mark.parametrize("figure, flagged", [
    ("e / 1000000000000", True), ("e * 10 ** -12", True), ("e // 100", True),
    ("e * 2 ** -40", True), ("e / (1 << 40)", True), ("e / -8", True),
    ("e * (1 + q + slope)", False), ("(c + r) / 2", False), ("(a - b) ** 2", False),
    ("e * 3 / 4", False), ("n ** k", False)])
def test_the_literal_check_catches_int_scales(figure, flagged):
    func = ast.parse(f"def f(e, q, slope, c, r, a, b, n, k):\n    err = {figure}\n    return m, err\n")
    found = [line for expr in _error_slots(func.body[0], (1,)) for line in _literals(expr, func)]
    assert found == ([2] if flagged else [])


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


#: the numpy transcendentals whose per-grid-point evaluation the histogram
#: route's table of integer powers replaces
TRANSCENDENTALS = {"exp", "log", "cos", "sin", "angle", "power"}


def _transcendentals_in_loops(func):
    """(line, name) of each np.<transcendental> call inside a loop of ``func``."""
    return sorted({(node.lineno, node.func.attr)
                   for loop in ast.walk(func) if isinstance(loop, (ast.For, ast.While))
                   for node in ast.walk(loop)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                   and node.func.attr in TRANSCENDENTALS})


def test_histogram_route_loops_only_multiply():
    # the generating function is evaluated once per grid point, outside the
    # loops; every block of histograms multiplies rows of the power table
    funcs = _functions(ast.parse(next(p for p in SOURCES if p.name == "voting.py").read_text()))
    assert _transcendentals_in_loops(funcs["plurality_stability_histogram"]) == []


@pytest.mark.parametrize("body, flagged", [
    ("for s in r:\n        t += np.exp(c @ x)\n", [(3, "exp")]),
    ("while s:\n        a = np.angle(g)\n", [(3, "angle")]),
    ("for s in r:\n        for a in q:\n            z *= np.power(g, a)\n", [(4, "power")]),
    ("g = np.exp(x)\n    for s in r:\n        z *= g\n", [])])
def test_the_loop_check_catches_a_transcendental(body, flagged):
    func = ast.parse(f"def f(r, c, x, g, q, z, t):\n    {body}").body[0]
    assert _transcendentals_in_loops(func) == flagged


def _reads(node):
    """Every name ``node`` loads and every attribute it reads."""
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            yield n.id if isinstance(n, ast.Name) else n.attr


def _unread_names(trees):
    """``module.name`` of every public module-level function or class, and of
    every public method of a class that is neither exported nor a base of an
    exported class, that no code of ``trees`` (module stem -> tree) reads by
    name outside its own definition and that ``__init__`` does not export."""
    exported = {a.asname or a.name for n in ast.walk(trees["__init__"])
                if isinstance(n, ast.ImportFrom) for a in n.names}
    classes = {n.name: n for t in trees.values() for n in t.body if isinstance(n, ast.ClassDef)}
    covered, todo = set(), sorted(exported & set(classes))
    while todo:
        name = todo.pop()
        if name in classes and name not in covered:
            covered.add(name)
            todo += [b.id for b in classes[name].bases if isinstance(b, ast.Name)]
    reads = Counter(name for t in trees.values() for name in _reads(t))
    for module, tree in trees.items():
        for node in tree.body:
            defs = []
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in exported):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef) and node.name not in covered:
                defs += [(f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            yield from (f"{module}.{qual}" for qual, d in defs
                        if reads[d.name] == Counter(_reads(d))[d.name])


#: functions no package code calls, kept because perfbench/tracer.py binds them
#: by name as layers until ROADMAP item 1 Step B moves its instrumentation
TRACER_BOUND = ["partitions.shifted_sector_pair_stability",
                "stability.partition_stability_quadrature"]


def test_every_public_name_has_a_reader():
    # a public name that no package code reads and __init__ does not export is
    # surface that only tests reach; tests keep their own oracles in tests/
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert sorted(_unread_names(trees)) == TRACER_BOUND


@pytest.mark.parametrize("init, source, flagged", [
    ("", "def f():\n    return 1\n", ["m.f"]),
    ("", "def f(n):\n    return f(n - 1)\n", ["m.f"]),
    ("from .m import g\n", "def f():\n    return 1\ndef g():\n    return f()\n", []),
    ("", "class C:\n    def run(self):\n        return 1\n", ["m.C", "m.C.run"]),
    ("from .m import D\n", "class C:\n    def run(self):\n        return 1\nclass D(C):\n    pass\n",
     []),
    ("", "class C:\n    def run(self):\n        return 1\n    def go(self):\n        return self.run()\n"
         "x = C().go()\n", [])])
def test_the_surface_check_catches_an_unread_name(init, source, flagged):
    trees = {"__init__": ast.parse(init), "m": ast.parse(source)}
    assert sorted(_unread_names(trees)) == flagged


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _noiselab_imports(tree):
    """(module, name) of every name imported from noiselab or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "noiselab":
            yield from ((node.module, a.name) for a in node.names)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # a name deleted from the package must not break a demo unseen; the demos
    # are parsed, not run
    found = list(_noiselab_imports(ast.parse(demo.read_text())))
    assert found
    assert [f"{m}.{n}" for m, n in found if not hasattr(importlib.import_module(m), n)] == []

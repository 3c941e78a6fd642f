"""Closed-form measures and moments of central polyhedral cones in R^3.

Every case asserts |value - oracle| <= error <= 1e-13, with the oracle from
elementary closed forms, the half-space closed forms, an mpmath solid angle
(Van Oosterom-Strackee triangles) or seeded Monte Carlo.
"""

import math

import mpmath
import numpy as np
import pytest

from noiselab.cones import central_cone
from noiselab.gauss import ou_apply
from noiselab.partitions import (
    ConeCell,
    HalfSpace,
    ProductWithR,
    Sector2D,
    cone_partition,
    gaussian_measure,
    simplex_cone_partition,
    simplex_generators,
)
from noiselab.stability import partition_stability, propeller_functional

from helpers import mc_moment, random_orthogonal

BOUND = 1e-13


def _cone(normals):
    """The cone {x: N x <= 0} as cell 0 over the generators 0, n_1, ..., n_k."""
    n = np.asarray(normals, dtype=float)
    return ConeCell(np.vstack([np.zeros(3), n]), 0)


def _measure(cell):
    est = gaussian_measure(cell, mode="quadrature")
    assert est.method == "closed-form"
    return est.value, est.std_error


def _moment(cell):
    res = cell.moment_exact()
    assert res is not None
    return res


def _assert_close(value, error, oracle, slack=0.0):
    value, error = np.asarray(value), np.asarray(error)
    assert np.all(np.abs(value - oracle) <= error + slack)
    assert np.all(error <= BOUND)


def _mp_cone(normals):
    """mpmath (measure, moment) of {x: N x <= 0} for a pointed cone.

    The vertices are the pairwise intersections of the facet planes that meet
    every other constraint, ordered around their mean; the solid angle is the
    fan of Van Oosterom-Strackee triangles about that mean, and a facet's
    wedge angle is the largest angle between two of its vertices."""
    with mpmath.workdps(40):
        rows = [mpmath.matrix([mpmath.mpf(float(v)) for v in row]) for row in normals]
        dot = lambda a, b: sum(a[i] * b[i] for i in range(3))
        cross = lambda a, b: mpmath.matrix([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                                            a[0] * b[1] - a[1] * b[0]])
        unit = lambda a: a / mpmath.sqrt(dot(a, a))
        verts = []  # [vertex, facets through it]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                r = cross(rows[i], rows[j])
                if dot(r, r) < mpmath.mpf(10) ** -60:
                    continue
                for v in (unit(r), -unit(r)):
                    if all(dot(rows[k], v) <= mpmath.mpf(10) ** -30
                           for k in range(len(rows)) if k not in (i, j)):
                        same = [w for w in verts if mpmath.norm(w[0] - v) < mpmath.mpf(10) ** -30]
                        if same:
                            same[0][1].update((i, j))
                        else:
                            verts.append([v, {i, j}])
        centre = unit(sum((v for v, _ in verts), mpmath.matrix(3, 1)))
        e1 = unit(cross(centre, mpmath.matrix([1, 0, 0]) if abs(centre[0]) < 0.5
                        else mpmath.matrix([0, 1, 0])))
        e2 = cross(centre, e1)
        verts.sort(key=lambda w: mpmath.atan2(dot(w[0], e2), dot(w[0], e1)))
        omega = 0
        for k in range(len(verts)):
            a, b = verts[k][0], verts[(k + 1) % len(verts)][0]
            det = dot(centre, cross(a, b))
            omega += 2 * mpmath.atan2(abs(det), 1 + dot(centre, a) + dot(a, b) + dot(b, centre))
        moment = mpmath.matrix(3, 1)
        for f, n in enumerate(rows):
            on = [v for v, fs in verts if f in fs]
            wedge = max((mpmath.acos(min(dot(a, b), 1)) for a in on for b in on), default=0)
            moment -= n * wedge
        moment *= (2 * mpmath.pi) ** mpmath.mpf(-1.5)
        return float(omega / (4 * mpmath.pi)), np.array([float(x) for x in moment])


def _random_normals(rng, k):
    n = rng.standard_normal((k, 3))
    return n / np.linalg.norm(n, axis=1, keepdims=True)


class TestElementaryCones:
    def test_orthant(self):
        cell = _cone(np.eye(3))  # {x <= 0}
        _assert_close(*_measure(cell), 0.125)
        _assert_close(*_moment(cell), -np.ones(3) / (4 * math.sqrt(2 * math.pi)))

    @pytest.mark.parametrize("seed", range(4))
    def test_wedge_is_half_of_two_half_spaces(self, seed):
        # facets are half-planes of wedge angle pi, so the moment is half the
        # sum of the two half-spaces' moments, and the measure is the dihedral
        # angle over 2 pi.  The cone cell over these normals is planar and
        # takes the sector route, which agrees within both errors
        n = _random_normals(np.random.default_rng([51, seed]), 2)
        measure, err, moment, moment_err = central_cone(n)
        dihedral = math.pi - math.acos(float(n[0] @ n[1]))
        _assert_close(measure, err, dihedral / (2 * math.pi), slack=1e-16)
        halves = [HalfSpace(v, 0.0).moment_exact() for v in n]
        oracle = 0.5 * (halves[0][0] + halves[1][0])
        _assert_close(moment, moment_err, oracle, slack=halves[0][1] + halves[1][1])
        cell = _cone(n)
        assert cell.halfspace() is None and cell.cone_normals() is None
        (v, e), (m, me) = _measure(cell), _moment(cell)
        assert abs(v - measure) <= e + err and np.all(np.abs(m - moment) <= me + moment_err)

    def test_half_space_through_parallel_normals(self):
        # z_1 - z_0 and z_2 - z_0 point the same way: one facet, counted once,
        # by the cone rule and by the sector route the planar cell takes
        u = np.array([0.3, -0.4, 1.2])
        normals = np.stack([u, 2.5 * u]) / np.linalg.norm(np.stack([u, 2.5 * u]), axis=1)[:, None]
        measure, err, moment, moment_err = central_cone(normals)
        (m_hs, e_hs) = HalfSpace(u, 0.0).moment_exact()
        _assert_close(measure, err, 0.5)
        _assert_close(moment, moment_err, m_hs, slack=e_hs)
        cell = ConeCell([np.zeros(3), u, 2.5 * u], 0)
        assert cell.halfspace() is None
        (v, e), (m, me) = _measure(cell), _moment(cell)
        assert abs(v - 0.5) <= e and np.all(np.abs(m - m_hs) <= me + e_hs)

    def test_two_generators_take_the_half_space_route(self):
        u = np.array([0.3, -0.4, 1.2])
        cell = ConeCell([np.zeros(3), u], 0)
        n, a = cell.halfspace()
        assert np.allclose(n, u / np.linalg.norm(u), rtol=0, atol=1e-16) and a == 0.0
        same = ConeCell([u, u], 1)
        assert np.array_equal(same.halfspace()[0], np.zeros(3)) and same.halfspace()[1] == math.inf
        assert same.gaussian_measure_exact()[0] == 1.0

    def test_flat_cell_has_no_mass(self):
        # z_0 halfway between z_1 and z_2: the cell is the plane between them
        z = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [-1.0, -0.5, 0.0], [0.0, 0.0, 1.0]])
        cell = ConeCell(z, 0)
        _assert_close(*_measure(cell), 0.0)
        _assert_close(*_moment(cell), np.zeros(3))


class TestSimplexCones:
    def test_measures_are_a_quarter_and_moments_balance(self):
        p = simplex_cone_partition(4)
        moments, errs = [], []
        for cell in p.cells:
            _assert_close(*_measure(cell), 0.25)
            m, e = _moment(cell)
            moments.append(m)
            errs.append(e)
        assert np.all(np.abs(np.sum(moments, axis=0)) <= np.sum(errs, axis=0))
        assert np.all(np.sum(errs, axis=0) <= BOUND)

    def test_propeller_functional_is_deterministic(self):
        est = propeller_functional(simplex_cone_partition(4), mode="quadrature")
        assert est.method == "quadrature" and est.samples == 0
        assert est.std_error <= BOUND
        # four cells of moment c z_i with |c| the norm of one closed-form moment
        m, _ = _moment(simplex_cone_partition(4).cells[0])
        assert abs(est.value - 4 * float(m @ m)) <= est.std_error


class TestDegenerateFacets:
    def test_redundant_constraint(self):
        # {x1 + x2 + x3 <= 0} holds on the negative orthant and touches it only at 0
        cell = _cone(np.vstack([np.eye(3), np.ones(3) / math.sqrt(3)]))
        _assert_close(*_measure(cell), 0.125)
        _assert_close(*_moment(cell), -np.ones(3) / (4 * math.sqrt(2 * math.pi)))

    def test_vertex_where_three_facets_meet(self):
        # {x1 + x2 <= 0} holds on the negative orthant and contains its edge
        # along -e3, so three facet planes pass through that vertex
        cell = _cone(np.vstack([np.eye(3), [1.0, 1.0, 0.0]]))
        _assert_close(*_measure(cell), 0.125)
        _assert_close(*_moment(cell), -np.ones(3) / (4 * math.sqrt(2 * math.pi)))

    def test_vertex_where_three_facets_meet_in_any_orientation(self):
        # once rotated, the three planes through the vertex meet only to
        # rounding, and the redundant facet is sometimes left a tiny arc
        rng = np.random.default_rng(62)
        normals = np.vstack([np.eye(3), [1.0, 1.0, 0.0]])
        for _ in range(300):
            q = random_orthogonal(3, rng)
            cell = _cone(normals @ q.T)
            _assert_close(*_measure(cell), 0.125)
            _assert_close(*_moment(cell), -(q @ np.ones(3)) / (4 * math.sqrt(2 * math.pi)),
                          slack=1e-16)

    def test_square_cone_with_a_plane_through_two_vertices(self):
        # a square pyramid around e3, cut by a plane through two opposite edges
        n = [[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]]
        cut = np.vstack([n, [1.0, 1.0, -2.0]])
        for normals in (n, cut):
            unit = np.asarray(normals) / np.linalg.norm(normals, axis=1, keepdims=True)
            measure, moment = _mp_cone(unit)
            cell = _cone(normals)
            _assert_close(*_measure(cell), measure)
            _assert_close(*_moment(cell), moment)


class TestInvariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_rotation(self, seed):
        rng = np.random.default_rng([52, seed])
        z = _random_normals(rng, 5)
        q = random_orthogonal(3, rng)
        for k in range(5):
            cell, turned = ConeCell(z, k), ConeCell(z, k).rotate(q)
            (v, e), (vt, et) = _measure(cell), _measure(turned)
            assert abs(v - vt) <= e + et and max(e, et) <= BOUND
            (m, me), (mt, met) = _moment(cell), _moment(turned)
            assert np.all(np.abs(q @ m - mt) <= np.abs(q) @ me + met)
            assert np.all(np.maximum(me, met) <= BOUND)

    def test_product_with_r_pads_with_zeros(self):
        z = _random_normals(np.random.default_rng(53), 4)
        for k in range(4):
            cell = ConeCell(z, k)
            wide = ProductWithR(cell, 2)
            assert np.array_equal(wide.cone_normals(), cell.cone_normals())
            assert _measure(wide) == _measure(cell)
            (m, e), (mw, ew) = _moment(cell), _moment(wide)
            assert np.array_equal(mw, np.concatenate([m, [0.0, 0.0]]))
            assert np.array_equal(ew, np.concatenate([e, [0.0, 0.0]]))

    def test_other_kinds_decline(self):
        cell = _cone(np.eye(3))
        assert ConeCell(np.eye(4), 0).cone_normals() is None
        # the central cone is a kind of R^3 alone, also where a family in R^4
        # differs only on the first three axes
        assert ConeCell(simplex_generators(4, 4), 0).cone_normals() is None
        assert ConeCell(np.eye(2), 0).cone_normals() is None
        assert cell.translate([0.1, 0.0, 0.0]).cone_normals() is None
        assert Sector2D(0.0, 1.0).cone_normals() is None
        assert HalfSpace([1.0, 0.0, 0.0], 0.0).cone_normals() is None
        assert cell.ou_exact(0.5, np.zeros(3)) is None
        # three facets take the pair rule, four decline it
        assert cell.pair_exact(cell, 0.5) is not None
        square = _cone([[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]])
        assert square.cone_normals().shape == (4, 3)
        assert square.pair_exact(square, 0.5) is None


class TestAgainstMpmath:
    @pytest.mark.parametrize("seed", range(6))
    def test_trihedral_cones(self, seed):
        # each cell of four random generators is a trihedral cone
        z = _random_normals(np.random.default_rng([54, seed]), 4)
        for k in range(4):
            cell = ConeCell(z, k)
            measure, moment = _mp_cone(cell.cone_normals())
            _assert_close(*_measure(cell), measure)
            _assert_close(*_moment(cell), moment)

    @pytest.mark.parametrize("half_angle", [0.3, 1e-2, 1e-4])
    def test_narrow_trihedral_cones(self, half_angle):
        # edges at half_angle from e3; the facet normals are their cross products
        edges = [[half_angle * math.cos(t), half_angle * math.sin(t), 1.0]
                 for t in (0.1, 2.2, 4.0)]
        normals = np.array([np.cross(edges[k], edges[(k + 1) % 3]) for k in range(3)])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cell = _cone(normals)
        measure, moment = _mp_cone(cell.cone_normals())
        v, e = _measure(cell)
        m, me = _moment(cell)
        assert abs(v - measure) <= e and np.all(np.abs(m - moment) <= me)
        assert e <= BOUND and np.all(me <= 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_cells_with_more_facets(self, seed):
        z = _random_normals(np.random.default_rng([55, seed]), 7)
        for k in range(7):
            cell = ConeCell(z, k)
            measure, moment = _mp_cone(cell.cone_normals())
            _assert_close(*_measure(cell), measure)
            _assert_close(*_moment(cell), moment)


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("seed", range(2))
    def test_random_cones(self, seed):
        z = _random_normals(np.random.default_rng([56, seed]), 5)
        p = cone_partition(z)
        assert abs(sum(_measure(c)[0] for c in p.cells) - 1.0) <= BOUND
        for k, cell in enumerate(p.cells):
            v, e = _measure(cell)
            mc = gaussian_measure(cell, 2_000_000, seed=[57, seed, k], mode="monte-carlo")
            assert abs(v - mc.value) <= 4 * mc.std_error and e <= BOUND
            m, me = _moment(cell)
            mc = mc_moment(cell, 2_000_000, seed=[58, seed, k])
            assert np.all(np.abs(m - mc.value) <= 4 * mc.std_error) and np.all(me <= BOUND)


class TestRhoZero:
    def test_t0_of_a_cone_is_its_measure(self):
        # T_0 1_C is the constant gamma(C), with no sampling
        est = ou_apply(simplex_cone_partition(4).cells[0], 0.0, np.zeros(3), mode="quadrature")
        assert abs(est.value - 0.25) <= est.std_error <= BOUND
        assert est.samples == 0


class TestHalfSpacesInR3:
    def test_two_cones_are_sheppard(self):
        u = _random_normals(np.random.default_rng(59), 1)[0]
        p = cone_partition(np.stack([u, -u]))
        for rho in (-0.9, 0.3, 0.6, 0.9, 0.9999):
            est = partition_stability(p, rho, mode="quadrature")
            assert est.samples == 0
            assert abs(est.value - (0.5 + math.asin(rho) / math.pi)) <= est.std_error <= BOUND

    @pytest.mark.parametrize("seed", range(3))
    def test_planar_half_space_and_sector_routes_agree(self, seed):
        # two planar generators: the half-space route now precedes the sector
        # route, which a Sector2D over the same arc still takes
        z = np.random.default_rng([60, seed]).standard_normal((2, 2))
        x = np.random.default_rng([61, seed]).standard_normal((5, 2))
        for k in range(2):
            cell = ConeCell(z, k)
            assert cell.halfspace() is not None
            _, [(a, b)] = cell.sector_decomposition()
            sector = Sector2D(a, b)
            (m, e), (ms, es) = cell.moment_exact(), sector.moment_exact()
            assert np.all(np.abs(m - ms) <= e + es) and np.all(e + es <= BOUND)
            for rho in (-0.7, 0.0, 0.5, 0.99):
                (t, et), (ts, ets) = cell.ou_exact(rho, x), sector.ou_exact(rho, x)
                assert np.all(np.abs(t - ts) <= et + ets)
                other = ConeCell(z, 1 - k)
                other_sector = Sector2D(*other.sector_decomposition()[1][0])
                if rho != 0.0:
                    (pr, ep), (prs, eps) = (cell.pair_exact(other, rho),
                                            sector.pair_exact(other_sector, rho))
                    assert abs(pr - prs) <= ep + eps <= BOUND

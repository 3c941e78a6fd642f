"""Tests for cells, partitions, boundary sampling, and serialization."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import log_ndtr, ndtr

import noiselab.cones as cones_module
import noiselab.gauss as gauss_module
import noiselab.partitions as partitions_module
from noiselab.cones import feasible_arc
from noiselab.gauss import (
    ROUNDING,
    DomainError,
    bivariate_normal_cdf,
    ou_gradient_quadrature,
    ou_rho_derivative_exact,
)
from noiselab.partitions import (
    Complement,
    ConeCell,
    CoverageError,
    EmptyInterfaceError,
    ExplicitCell,
    Facet,
    HalfSpace,
    OracleSet,
    PartitionSpec,
    ProductWithR,
    Sector2D,
    ShiftedSet,
    UnsupportedBoundaryError,
    cone_partition,
    cylinder_extend,
    gaussian_measure,
    halfspace_partition,
    partition_from_json,
    pair_drho_sum,
    pair_sums,
    partition_to_json,
    perturbed_simplex_cones,
    random_orthogonal,
    sector_partition,
    shifted_sector_mass,
    shifted_sector_pair_stability,
    simplex_cone_partition,
    simplex_generators,
    three_sectors_120,
)
from noiselab.stability import cell_moment, partition_stability, stability_sweep
from noiselab.variation import TranslationField, second_variation_general, sij_operator


class TestSimplexGenerators:
    def test_antipodal_pair(self):
        z = simplex_generators(2, 1)
        assert sorted(z[:, 0].tolist()) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_three_in_plane(self):
        z = simplex_generators(3, 2)
        for i in range(3):
            assert np.linalg.norm(z[i]) == pytest.approx(1.0, abs=1e-12)
            for j in range(i + 1, 3):
                assert float(z[i] @ z[j]) == pytest.approx(-0.5, abs=1e-12)
        assert np.linalg.norm(z.sum(axis=0)) <= 1e-12

    def test_four_in_space(self):
        z = simplex_generators(4, 3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(z[i] @ z[j]) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert np.linalg.norm(z.sum(axis=0)) <= 1e-12

    def test_dimension_requirement(self):
        with pytest.raises(DomainError):
            simplex_generators(4, 2)

    @given(st.integers(2, 6), st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_properties(self, m, extra):
        d = m - 1 + extra
        z = simplex_generators(m, d)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-10)
        gram = z @ z.T
        off = gram[~np.eye(m, dtype=bool)]
        assert np.allclose(off, -1.0 / (m - 1), atol=1e-10)
        assert np.linalg.norm(z.sum(axis=0)) <= 1e-10


class TestMembership:
    def test_generator_in_own_cone(self):
        p = simplex_cone_partition(3)
        z = p.cells[0].generators
        for k in range(3):
            assert p.membership(z[k]) == k

    def test_origin_tie_goes_to_lowest_index(self):
        p = simplex_cone_partition(3)
        assert p.membership(np.zeros(2)) == 0

    def test_sector_angles(self):
        # sectors [-60, 60), [60, 180), [180, 300); the point at 90 degrees
        # lands in the second cell (index 1)
        p = three_sectors_120()
        x = np.array([math.cos(math.radians(90)), math.sin(math.radians(90))])
        assert p.membership(x) == 1

    def test_coverage_error_detected(self):
        gap = PartitionSpec([HalfSpace([1.0], -1.0), HalfSpace([-1.0], -1.0)])
        with pytest.raises(CoverageError):
            gap.membership(np.array([0.0]))

    def test_coverage_large_sample(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((1_000_000, 2))
        for p in (simplex_cone_partition(3), three_sectors_120(),
                  halfspace_partition([0.6, 0.8], 0.25)):
            idx = p.membership(pts)
            assert idx.min() >= 0 and idx.max() < p.m

    def test_rejects_non_finite(self):
        p = simplex_cone_partition(3)
        with pytest.raises(DomainError):
            p.membership(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("m, d", [(2, 2), (3, 2), (5, 3), (4, 5)])
    def test_scores_in_cell_by_point_layout_keep_their_bits(self, m, d):
        # ConeCell._member and the argmax of membership form z @ x.T, (m, k),
        # and reduce over axis 0; their scores are those of x @ z.T to the bit,
        # on whole, sliced and shifted batches of every size a shard passes
        rng = np.random.default_rng([61, m, d])
        z = rng.standard_normal((m, d))
        p = PartitionSpec([ConeCell(z, i) for i in range(m)])
        for k in (1, 7, 4096, 1 << 17):
            wide = rng.standard_normal((k, d + 2))
            for x in (wide[:, :d].copy(), wide[:, :d], wide[:, :d] - 0.3):
                rows = x @ z.T
                assert np.array_equal(z @ x.T, rows.T)
                assert np.array_equal(p.membership(x), np.argmax(rows, axis=1))
                for i, cell in enumerate(p.cells):
                    assert np.array_equal(cell.contains(x), rows[:, i] >= rows.max(axis=1))
        # at the origin every score ties, and the lowest index claims it
        assert p.membership(np.zeros(d)) == 0


class TestMeasure:
    def test_halfspace_closed_form(self):
        est = gaussian_measure(HalfSpace([2.0, 0.0], 1.0))  # normalizes to offset 0.5
        assert est.value == pytest.approx(float(ndtr(0.5)), abs=1e-12)
        assert est.method == "closed-form"

    def test_cone_cells_third(self):
        p = simplex_cone_partition(3)
        for c in p.cells:
            est = gaussian_measure(c)
            assert est.value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_cone_monte_carlo(self):
        est = gaussian_measure(simplex_cone_partition(3).cells[0], 400_000,
                               seed=3, mode="monte-carlo")
        assert est.value == pytest.approx(1.0 / 3.0, abs=3 * est.std_error)

    def test_sector_width(self):
        est = gaussian_measure(Sector2D(0.2, 0.2 + 2 * math.pi / 3))
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_additivity(self):
        for p in (simplex_cone_partition(4), three_sectors_120()):
            total = sum(gaussian_measure(c).value for c in p.cells)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_oracle_set_monte_carlo_only(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        est = gaussian_measure(ball, 400_000, seed=5)
        assert est.method == "monte-carlo"
        # gamma_2(unit disc) = 1 - exp(-1/2)
        assert est.value == pytest.approx(1 - math.exp(-0.5), abs=3 * est.std_error)


class TestShiftedSectorMachinery:
    def test_mass_full_circle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            q = rng.standard_normal(2)
            assert shifted_sector_mass(q, 0.0, 2 * math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_mass_halfplane(self):
        # sector of angles [-pi/2, pi/2] from apex (a, 0) is {x1 >= a}
        for a in (-1.2, 0.0, 0.7):
            m = shifted_sector_mass(np.array([a, 0.0]), -math.pi / 2, math.pi / 2)
            assert m == pytest.approx(float(ndtr(-a)), abs=1e-12)

    def test_moment_against_monte_carlo(self):
        apex = np.array([0.3, -0.2])
        alpha, beta = 0.3, 1.9
        mom = Sector2D(alpha, beta).translate(apex).moment_exact()[0]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2_000_000, 2))
        rel = x - apex
        ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]) - alpha, 2 * math.pi)
        ind = ang < (beta - alpha)
        mc = (x * ind[:, None]).mean(axis=0)
        se = (x * ind[:, None]).std(axis=0) / math.sqrt(len(x))
        assert np.all(np.abs(mom - mc) <= 3 * se)

    def test_stability_matches_sheppard_for_halfplane(self):
        # independent oracle: measure-1/2 half-space stability 1/4 + asin(rho)/(2 pi)
        for rho in (0.25, 0.5, 0.8):
            half = [(-math.pi / 2, math.pi / 2)]
            val, _ = shifted_sector_pair_stability(np.zeros(2), half, np.zeros(2), half, rho)
            assert val == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-9)


def _moments(a, b):
    """integral over [a, b] of t^k phi(t) for k = 0, 1, 2, and of e^t phi(t)."""
    pa, pb = (0.0 if math.isinf(t) else math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
              for t in (a, b))
    ta, tb = (0.0 if math.isinf(t) else t for t in (a, b))
    m0 = float(ndtr(b) - ndtr(a))
    return [m0, pa - pb, ta * pa - tb * pb + m0,
            math.exp(0.5) * float(ndtr(b - 1.0) - ndtr(a - 1.0))]


class TestFacetLineRule:
    """Facet.gauss_integral on line facets: one batched call of h, against
    closed Gaussian moments."""

    # (facet, tangent-coordinate interval): a whole line, a ray and a bounded
    # interval, on the line x1 = 0.3 with tangent e2
    LINES = {
        "line": (Facet([1.0, 0.0], 0.3, [[0.0, 1.0]]), (-math.inf, math.inf)),
        "ray": (Facet([1.0, 0.0], 0.3, [[0.0, 1.0]], [([0.0, -1.0], -0.5)]), (0.5, math.inf)),
        "interval": (Facet([1.0, 0.0], 0.3, [[0.0, 1.0]],
                           [([0.0, 1.0], 0.7), ([0.0, -1.0], 1.0)]), (-1.0, 0.7)),
    }
    INTEGRANDS = [lambda t: np.ones_like(t), lambda t: t, lambda t: t * t, np.exp]

    @pytest.mark.parametrize("kind", sorted(LINES))
    def test_moments(self, kind):
        facet, (a, b) = self.LINES[kind]
        assert facet.kind == "interval"
        phi_offset = math.exp(-0.5 * 0.3**2) / math.sqrt(2 * math.pi)
        for g, moment in zip(self.INTEGRANDS, _moments(a, b)):
            calls = []

            def h(pts, g=g):
                calls.append(pts.shape)
                return g(pts[:, 1])

            est = facet.gauss_integral(h)
            val, err = est.value, est.std_error
            assert len(calls) == 1 and calls[0][1] == 2
            # the rule's error figure covers its error (the rounding of the
            # Gauss-Legendre weights) up to the rounding of the sum itself
            assert abs(val - phi_offset * moment) <= err + 1e-16
            assert err <= 1e-14

    def test_per_point_errors_join_the_error_figure(self):
        facet, (a, b) = self.LINES["interval"]
        est = facet.gauss_integral(lambda pts: (np.ones(len(pts)), np.full(len(pts), 0.01)))
        assert est.value == pytest.approx(facet.mass, abs=1e-15)
        # the per-point figures' integral, and the rounding of the values
        assert est.std_error == pytest.approx((0.01 + ROUNDING) * facet.mass, rel=1e-12)


class TestFacetMassNearUnitRho:
    """The closed-form mass of line facets under N(rho x, (1 - rho^2) I) as
    |rho| -> 1, against 40-digit mpmath.  The facets pass through the origin,
    so rounding rho x moves each standardized offset by ulps of itself only."""

    # (facet, tangent-coordinate interval): the line x1 = 0 and its halves x2 >= 0, x2 <= 0
    FACETS = [(Facet([1.0, 0.0], 0.0, [[0.0, 1.0]]), (-mpmath.inf, mpmath.inf)),
              (Facet([1.0, 0.0], 0.0, [[0.0, 1.0]], [([0.0, -1.0], 0.0)]), (0, mpmath.inf)),
              (Facet([1.0, 0.0], 0.0, [[0.0, 1.0]], [([0.0, 1.0], 0.0)]), (-mpmath.inf, 0))]

    @pytest.mark.parametrize("rho", [-0.999999, -0.9999, 0.9999, 0.999999])
    def test_mass_against_mpmath(self, rho):
        # standardized offsets u across the line and along it from x2 = 0, |u| < 8
        u = np.random.default_rng(7).uniform(-8.0, 8.0, (60, 2))
        x = -math.sqrt((1 - rho) * (1 + rho)) * u / rho
        with mpmath.workdps(40):
            r = mpmath.mpf(rho)
            sig = mpmath.sqrt((1 - r) * (1 + r))
            for facet, (lo, hi) in self.FACETS:
                mass = facet.gauss_integral(1.0, rho, x).value
                for (x1, x2), value in zip(x, mass):
                    mu = r * x2
                    ref = (mpmath.npdf(r * x1 / sig) / sig
                           * (mpmath.ncdf((hi - mu) / sig) - mpmath.ncdf((lo - mu) / sig)))
                    assert abs(value - ref) <= 1e-13 * ref


class TestPlanarConeFacetArcs:
    """Facets of cones in R^3 take their arc from cones.feasible_arc: one arc
    per facet, also where it crosses angle 0 of the facet's tangent frame."""

    ROTATION = random_orthogonal(3, np.random.default_rng(5))
    WEDGE = math.acos(-1.0 / 3.0)  # angle of every facet of the regular simplex cones

    @pytest.mark.parametrize("rotated", [False, True])
    def test_one_arc_per_facet(self, rotated):
        p = simplex_cone_partition(4)
        if rotated:  # (0, 2) and (1, 2) crossed angle 0 and had two arcs
            p = p.rotated(self.ROTATION)
        for (i, j), facets in p.all_interfaces().items():
            (facet,) = facets
            assert facet.kind == "planar-cone"
            ((alpha, beta),) = facet._arcs
            assert beta - alpha == pytest.approx(self.WEDGE, abs=1e-14), (i, j)
            assert facet.mass == pytest.approx(self.WEDGE / (2 * math.pi) ** 1.5, rel=1e-14)

    def test_one_arc_facets_sample_as_before(self):
        # recorded when the facets took their arcs from their own scan
        s = simplex_cone_partition(4).boundary_sample(0, 1, 3, seed=3)
        assert s.points.tolist() == [
            [0.3994329259067549, -0.6647479457654231, -0.9329837578615964],
            [0.4559030308371585, -1.859909694831639, 0.036297571483005046],
            [0.25968011701693267, -0.5901296853722597, -0.448590782695471]]
        assert s.weights == pytest.approx([1.329456256329999, 3.986991816385533,
                                           0.8669991221406106], rel=1e-14)


class TestBoundarySampling:
    def test_halfspace_pair_hyperplane(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        bs = p.boundary_sample(0, 1, 500, seed=1)
        assert np.allclose(bs.points[:, 0], 0.0, atol=1e-12)
        assert np.allclose(bs.normals, [1.0, 0.0])
        assert np.all(bs.weights > 0)

    def test_normal_orientation_and_swap(self):
        p = simplex_cone_partition(3)
        eps = 1e-6
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            bs = p.boundary_sample(i, j, 200, seed=2)
            assert np.allclose(np.linalg.norm(bs.normals, axis=1), 1.0, atol=1e-12)
            plus = p.membership(bs.points + eps * bs.normals)
            minus = p.membership(bs.points - eps * bs.normals)
            assert np.all(plus == j)
            assert np.all(minus == i)
            swapped = p.boundary_sample(j, i, 200, seed=2)
            assert np.allclose(swapped.normals, -bs.normals)

    def test_cone_interface_geometry(self):
        p = simplex_cone_partition(3)
        z = p.cells[0].generators
        bs = p.boundary_sample(0, 1, 300, seed=3)
        # points satisfy <x, z0> = <x, z1> >= <x, z2>
        d01 = bs.points @ (z[0] - z[1])
        assert np.allclose(d01, 0.0, atol=1e-10)
        assert np.all(bs.points @ (z[0] - z[2]) >= -1e-10)
        n_expect = (z[1] - z[0]) / np.linalg.norm(z[1] - z[0])
        assert np.allclose(bs.normals, n_expect, atol=1e-12)

    def test_sector_ray_radii_half_gaussian(self):
        p = three_sectors_120()
        bs = p.boundary_sample(0, 1, 4000, seed=4)
        radii = np.linalg.norm(bs.points, axis=1)
        res = stats.kstest(radii, lambda t: 2 * ndtr(t) - 1)
        assert res.pvalue > 1e-3

    def test_weights_reproduce_surface_mass(self):
        # sum w_k gamma(x_k) estimates the interface's Gaussian surface mass
        p = simplex_cone_partition(3)
        bs = p.boundary_sample(0, 1, 4000, seed=5)
        gam = np.exp(-0.5 * np.sum(bs.points**2, axis=1)) / (2 * math.pi)
        total = float(np.sum(bs.weights * gam))
        facets = p.interface_facets(0, 1)
        assert total == pytest.approx(sum(f.mass for f in facets), rel=1e-12)
        # and the mass itself: a ray through the origin carries mass
        # int_0^inf gamma_2(t u) dt = 1/(2 sqrt(2 pi))
        assert total == pytest.approx(1.0 / (2.0 * math.sqrt(2 * math.pi)), abs=1e-12)

    def test_tetrahedral_cone_wedges(self):
        p = simplex_cone_partition(4)
        bs = p.boundary_sample(0, 1, 500, seed=6)
        eps = 1e-6
        assert np.all(p.membership(bs.points + eps * bs.normals) == 1)
        assert np.all(p.membership(bs.points - eps * bs.normals) == 0)
        # interface mass: by symmetry all six interfaces carry equal mass
        m01 = sum(f.mass for f in p.interface_facets(0, 1))
        m23 = sum(f.mass for f in p.interface_facets(2, 3))
        assert m01 == pytest.approx(m23, rel=1e-10)

    def test_empty_interface_raises(self):
        # sectors 0 and 2 of a 4-sector partition share no ray
        p = sector_partition([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        with pytest.raises(EmptyInterfaceError):
            p.boundary_sample(0, 2, 10, seed=0)

    def test_oracle_cells_unsupported(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        p = PartitionSpec([ball, Complement(ball)])
        with pytest.raises(UnsupportedBoundaryError):
            p.boundary_sample(0, 1, 10, seed=0)
        # an interface without a facet rule fails rather than vanish from the sums
        with pytest.raises(UnsupportedBoundaryError):
            p.cell_boundary(0)
        with pytest.raises(UnsupportedBoundaryError):
            second_variation_general(p, 0.5, TranslationField([1.0, 0.0]), budget=2000)

    def test_one_dimensional_point_facets(self):
        p = halfspace_partition([1.0], 0.4)
        bs = p.boundary_sample(0, 1, 50, seed=7)
        assert np.allclose(bs.points, 0.4)
        assert np.allclose(bs.normals, 1.0)
        pts = bs.boundary_points()
        assert pts[0].interface == (0, 1)
        assert pts[0].weight > 0


class TestCylinderExtension:
    def test_membership_ignores_extra_coordinates(self):
        p = simplex_cone_partition(3)
        ext = cylinder_extend(p, 2)
        rng = np.random.default_rng(8)
        base_pts = rng.standard_normal((1000, 2))
        extra = rng.standard_normal((1000, 2)) * 5
        full = np.hstack([base_pts, extra])
        assert np.array_equal(ext.membership(full), p.membership(base_pts))

    def test_measures_preserved(self):
        p = halfspace_partition([1.0], 0.3)
        ext = cylinder_extend(p, 2)
        for c0, c1 in zip(p.cells, ext.cells):
            assert gaussian_measure(c1).value == pytest.approx(
                gaussian_measure(c0).value, abs=1e-12
            )

    def test_extended_boundary_normals(self):
        ext = cylinder_extend(halfspace_partition([1.0], 0.0), 1)
        bs = ext.boundary_sample(0, 1, 100, seed=9)
        assert np.allclose(bs.normals[:, 0], 1.0)
        assert np.allclose(bs.normals[:, 1], 0.0)
        assert np.allclose(bs.points[:, 0], 0.0, atol=1e-12)

    def test_requires_positive_extra(self):
        with pytest.raises(DomainError):
            cylinder_extend(simplex_cone_partition(3), 0)


class TestShiftedInterfaces:
    """Partitions of ShiftedSet cells, as partition_from_json builds for kind
    "shifted": every facet moves with the common shift."""

    N, A = np.array([0.6, 0.8]), 0.3

    @staticmethod
    def _assert_same_facets(p, q, i, j):
        got, want = p.interface_facets(i, j), q.interface_facets(i, j)
        assert len(got) == len(want)
        for f, g in zip(got, want):
            assert np.allclose(f.normal, g.normal) and f.offset == pytest.approx(g.offset, abs=1e-12)
            assert len(f.constraints) == len(g.constraints)
            assert all(np.allclose(u, v) and b == pytest.approx(e, abs=1e-12)
                       for (u, b), (v, e) in zip(f.constraints, g.constraints))

    def test_halfspace_pair_offset_is_a_plus_n_dot_t(self):
        t = np.array([0.5, -1.25])
        h = HalfSpace(self.N, self.A)
        p = PartitionSpec([ShiftedSet(h, t), ShiftedSet(Complement(h), t)])
        (f,) = p.interface_facets(0, 1)
        assert np.allclose(f.normal, self.N)
        assert f.offset == pytest.approx(self.A + self.N @ t, abs=1e-15)
        self._assert_same_facets(p, halfspace_partition(self.N, self.A).translated(t), 0, 1)

    def test_shifted_halfspace_closed_forms_follow_the_shift(self):
        t = np.array([0.5, -1.25])
        s = ShiftedSet(HalfSpace(self.N, self.A), t)
        v, _ = s.gaussian_measure_exact()
        assert v == pytest.approx(float(ndtr(self.A + self.N @ t)), abs=1e-15)
        assert s.contains(t + self.A * self.N - 1e-9 * self.N)
        assert not s.contains(t + self.A * self.N + 1e-9 * self.N)

    def test_cylinder_pair_offset_uses_the_base_coordinates_of_the_shift(self):
        t = np.array([0.5, -1.25, 2.0])
        h = HalfSpace(self.N, self.A)
        p = PartitionSpec([ShiftedSet(ProductWithR(c, 1), t) for c in (h, Complement(h))])
        (f,) = p.interface_facets(0, 1)
        assert np.allclose(f.normal, [0.6, 0.8, 0.0])
        assert f.offset == pytest.approx(self.A + self.N @ t[:2], abs=1e-15)

    def test_sector_rule_reads_the_sector_decomposition(self):
        # a complement of a sector is the sector over the rest of the circle
        t = np.array([0.4, -0.7])
        s = Sector2D(0.0, math.pi)
        p = PartitionSpec([ShiftedSet(s, t), ShiftedSet(Complement(s), t)])
        assert len(p.interface_facets(0, 1)) == 2
        self._assert_same_facets(p, sector_partition([0.0, math.pi]).translated(t), 0, 1)

    @pytest.mark.parametrize("base", [sector_partition([0.3, 2.0, 4.1]),
                                      simplex_cone_partition(3)],
                             ids=["sectors", "cones"])
    def test_shifted_cylinder_facets_equal_the_translated_ones(self, base):
        t = np.array([0.4, -0.7, 1.5])
        cyl = cylinder_extend(base, 1)
        shifted = PartitionSpec([ShiftedSet(c, t) for c in cyl.cells])
        for i, j in ((0, 1), (1, 2), (0, 2)):
            self._assert_same_facets(shifted, cyl.translated(t), i, j)

    @pytest.mark.parametrize("t", [[0.3, 0.2], [-0.1, 0.4]])
    def test_a_shifted_half_plane_shares_its_apex_with_shifted_sectors(self, t):
        # a two-generator cone cell is a half-space and one sector at once; its
        # sector apex moves with the shift, as a sector's does, so the pair
        # keeps the sector rule's two facets after any translation
        p = PartitionSpec([ConeCell([[1.0, 0.0], [-1.0, 0.0]], 0),
                           Sector2D(math.pi / 2, 3 * math.pi / 2)])
        want = [Facet(f.normal, f.offset + f.normal @ t, f.tangents,
                      [(c, b + c @ t) for c, b in f.constraints]) for f in p.interface_facets(0, 1)]
        assert len(want) == 2 and set(p.translated(t).all_interfaces()) == {(0, 1)}
        got = p.translated(t).interface_facets(0, 1)
        assert [f.kind for f in got] == ["interval", "interval"]
        for f, g in zip(got, want):
            assert np.allclose(f.normal, g.normal) and f.offset == pytest.approx(g.offset, abs=1e-12)
            assert f.mass == pytest.approx(g.mass, abs=1e-15)

    def test_a_half_plane_takes_its_generator_arc_on_the_sector_route(self):
        # the sector view of a two-generator cell is the arc of its generator
        # differences at the shift, so a pair with a sector is the sector pair
        # rule on that arc to the bit
        z, t = np.array([[1.0, 0.0], [-1.0, 0.5]]), np.array([0.3, 0.2])
        arc = feasible_arc(z[0] - z[1:])
        cell, sector = ConeCell(z, 0).translate(t), Sector2D(0.3, 2.0).translate(t)
        apex, arcs = cell.sector_decomposition()
        assert np.array_equal(apex, t) and arcs == [arc] and cell.halfspace() is not None
        for rho in (-0.6, 0.5, 0.9):
            assert cell.pair_exact(sector, rho) == shifted_sector_pair_stability(
                t, [arc], t, [(0.3, 2.0)], rho)
        (_, [(a, b)]) = Complement(ConeCell(z, 0)).sector_decomposition()
        assert (a, b) == (arc[1], arc[0] + 2 * math.pi)


def _first_claim(p, pts):
    """Cell index by the first-claim rule, from each cell's own ``contains``."""
    idx = np.full(pts.shape[0], -1)
    for k in reversed(range(p.m)):
        idx[p.cells[k].contains(pts)] = k
    return idx


class TestCylinderConeFastPath:
    """Cylinders over cones classify by one argmax over the base coordinates."""

    # exactly representable inner products, so grid points tie exactly
    Z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
    SHIFT = np.array([0.5, -0.25, 1.0])
    PARTITIONS = {
        "cylinder": (cylinder_extend(cone_partition(Z), 2), np.zeros(3)),
        "cylinder-over-shifted": (cylinder_extend(cone_partition(Z).translated(SHIFT), 1), SHIFT),
    }

    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_membership_is_the_first_claim(self, name, monkeypatch):
        p, shift = self.PARTITIONS[name]
        rng = np.random.default_rng(44)
        random_pts = rng.standard_normal((5000, p.dim))
        # base coordinates on a quarter grid around the apex: many points on
        # the interfaces, some on several at once (the apex lies on all)
        tie_pts = np.hstack([rng.integers(-4, 5, size=(5000, 3)) / 4.0 + shift,
                             rng.standard_normal((5000, p.dim - 3))])
        expect = [_first_claim(p, pts) for pts in (random_pts, tie_pts)]
        assert len(set(expect[1].tolist())) == 4

        def no_cell_loop(self, points):
            raise AssertionError("membership went cell by cell")

        monkeypatch.setattr(ConeCell, "contains", no_cell_loop)
        assert np.array_equal(p.membership(random_pts), expect[0])
        assert np.array_equal(p.membership(tie_pts), expect[1])

    def test_ties_go_to_the_lowest_index(self):
        p, _ = self.PARTITIONS["cylinder"]
        pts = np.array([[0.0, 0.0, 0.0, 3.0, -1.0],   # all four cells
                        [1.0, 1.0, 0.0, 0.0, 0.0],    # cells 0 and 1
                        [0.0, 2.0, 2.0, 0.0, 0.0],    # cells 1 and 2
                        [-1.0, 1.0, -1.0, 0.0, 0.0]])  # cells 1 and 3
        assert p.membership(pts).tolist() == [0, 0, 1, 1]

    def test_boundary_sample_unchanged(self):
        # recorded when cylinder membership still went cell by cell
        bs = cylinder_extend(simplex_cone_partition(4), 2).boundary_sample(0, 1, 50, seed=3)
        assert bs.points[0].tolist() == [0.15750719999198073, -0.43354046449430145,
                                         -0.19648833547362146, -2.019986129147251,
                                         -0.23193237764418947]
        assert float(bs.weights.sum()) == 204.06742265459505
        assert float(bs.points.sum()) == -47.848889263387534


class TestFacetCache:
    """Each oriented interface's facets are built once per partition."""

    @staticmethod
    def partition():
        return simplex_cone_partition(3, 3).translated([0.2, -0.1, 0.3])

    def test_facets_are_built_once(self, monkeypatch):
        analyzed = []
        original = Facet._analyze

        def counted(self):
            analyzed.append(self)
            original(self)

        monkeypatch.setattr(Facet, "_analyze", counted)
        p = self.partition()
        first = p.cell_boundary(0)
        built = len(analyzed)
        assert built == 3  # one facet per interface (0,1), (0,2), (1,2), each with its pilot
        second = p.cell_boundary(0)
        assert [(f, sign) for f, sign in second] == [(f, sign) for f, sign in first]
        assert all(a is b for (a, _), (b, _) in zip(first, second))
        p.all_interfaces()
        reverse = p.interface_facets(1, 0)
        assert p.interface_facets(1, 0)[0] is reverse[0]
        assert len(analyzed) == built

    def test_reversed_facet_equals_a_rebuilt_one(self):
        p = self.partition()
        (f,) = p.interface_facets(0, 1)
        (g,) = p.interface_facets(1, 0)
        rebuilt = Facet(-f.normal, -f.offset, f.tangents, f.constraints)
        assert f.kind == g.kind == rebuilt.kind == "generic"
        for attr in ("normal", "offset", "base_point", "mass", "mass_err", "_alpha", "_beta"):
            assert np.array_equal(getattr(g, attr), getattr(rebuilt, attr)), attr
        assert np.array_equal(g.normal, -f.normal)

    def test_sij_values_unchanged(self):
        # recorded when every call rebuilt the facets
        p = self.partition()
        x = np.array([0.1, 0.2, -0.3])
        e01 = sij_operator(p, 0.5, 0, 1, TranslationField([1, 0, 0]), x)
        e10 = sij_operator(p, 0.5, 1, 0, TranslationField([1, 0, 0]), x)
        assert (e01.value, e01.std_error, e01.samples) == (
            0.5786180523898468, 0.002275787602087709, 160000)
        assert (e10.value, e10.std_error, e10.samples) == (
            -0.5786180523898469, 0.0022757876020877096, 160000)


class TestSectorPairBatching:
    """The pair rule is batched: one bivariate normal CDF call over every
    edge-ray pair and every node, and one mass per cell, for one pair at one
    rho (pair_exact) as for a partition's cell pairs over a grid (pair_sums)."""

    @pytest.mark.parametrize("rho", [0.5, -0.98, 0.9999])
    def test_one_bivariate_normal_call(self, monkeypatch, rho):
        sizes, masses = [], []
        bvn, mass = partitions_module.bivariate_normal_cdf, partitions_module.shifted_sector_mass

        def counted_bvn(a, b, r):
            sizes.append(np.size(a))
            return bvn(a, b, r)

        def counted_mass(*args, **kwargs):
            masses.append(args)
            return mass(*args, **kwargs)

        monkeypatch.setattr(partitions_module, "bivariate_normal_cdf", counted_bvn)
        monkeypatch.setattr(partitions_module, "shifted_sector_mass", counted_mass)
        a, b = ShiftedSet(Sector2D(0.1, 2.0), [0.3, -0.2]), Complement(Sector2D(-1.0, 0.5))
        val, err = a.pair_exact(b, rho)
        panels = len(partitions_module._graded_panels(math.asin(rho))) - 1
        # 2 x 2 edge-ray pairs at the 33 Gauss-Kronrod nodes of every panel
        assert sizes == [2 * 2 * panels * 33]
        assert len(masses) <= 2
        assert 0.0 < err <= 1e-13

    @pytest.mark.parametrize("p", [
        sector_partition([0.0, 2.0, 4.0]).translated([0.4, -0.3]),
        sector_partition([0.3, 0.3 + 1e-3]).translated([0.2, 0.1]),
        cylinder_extend(sector_partition([0.5, 4.5]).translated([-0.6, 0.25]), 1),
        halfspace_partition([1.0, -2.0], 0.4),
        PartitionSpec([ConeCell([[1.0, 0.0], [-1.0, 0.0]], 0), Sector2D(math.pi / 2, 3 * math.pi / 2)]),
    ], ids=["shifted-apex", "narrow-arc", "wide-arc-cylinder", "half-spaces", "both-routes"])
    def test_sums_are_the_one_pair_calls_added_in_order(self, p):
        def bits(pair):
            return float(pair[0]).hex(), float(pair[1]).hex()

        pairs = list(zip(p.cells, p.cells[::-1]))
        grid = [0.5, -0.9999, 0.0, 0.9999, 0.5, -0.3]
        for rho, row in zip(grid, pair_sums(pairs, grid)):
            total = err = 0.0
            for a, b in pairs:
                v, e = a.pair_exact(b, rho)
                total, err = total + v, err + e
            assert bits(row) == bits((total, err))
        for rho in (0.5, -0.9999, 0.9999):
            total = err = 0.0
            for a, b in pairs:
                v, e = a.pair_drho_exact(b, rho)
                total, err = total + v, err + e
            assert bits(pair_drho_sum(pairs, rho)) == bits((total, err))

    def test_one_call_and_one_mass_per_arc_for_a_whole_grid(self, monkeypatch):
        sizes, masses = [], []
        bvn, mass = partitions_module.bivariate_normal_cdf, partitions_module.shifted_sector_mass

        def counted_bvn(a, b, r):
            sizes.append(np.shape(a))
            return bvn(a, b, r)

        def counted_mass(*args, **kwargs):
            masses.append(args)
            return mass(*args, **kwargs)

        monkeypatch.setattr(partitions_module, "bivariate_normal_cdf", counted_bvn)
        monkeypatch.setattr(partitions_module, "shifted_sector_mass", counted_mass)
        p = sector_partition([0.0, 2.0, 4.0]).translated([0.4, -0.3])
        pairs = list(zip(p.cells, p.cells))
        assert len(pair_sums(pairs, [0.5, -0.98, 0.9999, 0.2])) == 4
        panels = sum(len(partitions_module._graded_panels(math.asin(r))) - 1
                     for r in (0.5, -0.98, 0.9999, 0.2))
        # 3 cells x 2 x 2 edge-ray pairs at 33 nodes per panel; each cell's
        # mass once, from its record
        assert sizes == [(12, 33 * panels)]
        assert len(masses) == 3
        sizes.clear()
        pair_drho_sum(pairs, 0.7)
        assert sizes == [(12, 1)]

    def test_a_sweep_takes_one_mass_per_cell(self, monkeypatch):
        # the closed-form measures of the tiling test and the pair rule's mass
        # products, at every rho, rho = 0 included, read each cell's one cached mass
        masses, mass = [], partitions_module.shifted_sector_mass

        def counted_mass(*args, **kwargs):
            masses.append(args)
            return mass(*args, **kwargs)

        monkeypatch.setattr(partitions_module, "shifted_sector_mass", counted_mass)
        p = sector_partition([0.0, 2.0, 4.0]).translated([0.4, -0.3])
        rows = stability_sweep(p, [-0.9, 0.0, 0.5, 0.98])
        assert [r.samples for r in rows] == [0, 0, 0, 0]
        assert len(masses) == 3

    def test_a_pair_without_a_route_declines_the_sum(self):
        # the cones over a cube's faces have four facets each
        cones = cone_partition(np.vstack([np.eye(3), -np.eye(3)]))
        assert pair_sums(zip(cones.cells, cones.cells), [0.5]) is None
        assert pair_drho_sum(zip(cones.cells, cones.cells), 0.5) is None
        mixed = [(HalfSpace([1.0, 0.0], 0.0), HalfSpace([0.0, 1.0], 0.0)),
                 (HalfSpace([1.0, 0.0], 0.0), Sector2D(0.0, 1.0))]
        assert pair_sums(mixed, [0.5]) is None
        assert HalfSpace([1.0, 0.0], 0.0).pair_exact(Sector2D(0.0, 1.0), 0.5) is None

    def test_panels_are_graded_toward_the_ends(self):
        counts = {rho: len(partitions_module._graded_panels(math.asin(rho))) - 1
                  for rho in (0.0, 0.5, 0.7, 0.98, -0.98, 0.9999)}
        assert counts == {0.0: 1, 0.5: 1, 0.7: 1, 0.98: 3, -0.98: 3, 0.9999: 7}


def _turned_simplex3(d, seed):
    """The cells of simplex_cone_partition(3), their generators embedded in R^d
    and turned by a random orthogonal Q, with Q."""
    q = random_orthogonal(d, np.random.default_rng([70, d, seed]))
    z = np.pad(simplex_cone_partition(3).cells[0].generators, ((0, 0), (0, d - 2))) @ q.T
    return cone_partition(z), q


class TestRotatedPlanarCells:
    """Planar cone generators turned into R^3 and R^4 take the planar routes,
    with no sample, and reproduce the planar values within both errors: the
    cell reads x through the plane Q e_1, Q e_2, so a point x of R^d is the
    planar point (Q^T x)[:2] and a planar vector v the vector Q (v, 0)."""

    @pytest.mark.parametrize("d, seed", [(3, 0), (3, 1), (4, 0), (4, 1)])
    def test_cells_match_the_planar_cells(self, d, seed):
        p, q = _turned_simplex3(d, seed)
        flat = simplex_cone_partition(3)
        x = np.random.default_rng([71, d, seed]).standard_normal((5, d))
        xp = (x @ q)[:, :2]
        pad = lambda v: np.pad(v, [(0, 0)] * (np.ndim(v) - 1) + [(0, d - 2)])
        lift, lift_err = (lambda v: pad(v) @ q.T), (lambda e: pad(e) @ np.abs(q).T)
        for cell, planar in zip(p.cells, flat.cells):
            est, ref = gaussian_measure(cell, mode="quadrature"), gaussian_measure(planar)
            assert est.samples == 0 and abs(est.value - ref.value) <= est.std_error + ref.std_error
            m, (mp, mpe) = cell_moment(cell, mode="quadrature"), planar.moment_exact()
            assert m.samples == 0
            assert np.all(np.abs(m.value - lift(mp)) <= m.std_error + lift_err(mpe))
            for rho in (-0.6, 0.5, 0.95):
                (t, te), (tp, tpe) = cell.ou_exact(rho, x), planar.ou_exact(rho, xp)
                assert np.all(np.abs(t - tp) <= te + tpe)
                g, (gp, gpe) = ou_gradient_quadrature(cell, rho, x), planar.ou_gradient_exact(rho, xp)
                assert g.samples == 0
                assert np.all(np.abs(g.value - lift(gp)) <= g.std_error + lift_err(gpe))
                r, (rp, rpe) = ou_rho_derivative_exact(cell, rho, x), planar.ou_drho_exact(rho, xp)
                assert r.samples == 0 and np.all(np.abs(r.value - rp) <= r.std_error + rpe)

    @pytest.mark.parametrize("d", [3, 4])
    def test_stability_matches_the_planar_partition(self, d):
        p, _ = _turned_simplex3(d, 0)
        flat = simplex_cone_partition(3)
        for rho in (-0.9, 0.5, 0.98):
            est, ref = partition_stability(p, rho, mode="quadrature"), partition_stability(flat, rho)
            assert est.samples == 0
            assert abs(est.value - ref.value) <= est.std_error + ref.std_error

    def test_stability_against_monte_carlo(self):
        p, _ = _turned_simplex3(4, 1)
        est = partition_stability(p, 0.5, mode="quadrature")
        mc = partition_stability(p, 0.5, 400_000, seed=72, mode="monte-carlo")
        assert abs(est.value - mc.value) <= 4 * (mc.std_error + est.std_error)


class TestNegationAndRotation:
    def test_negation_pointwise(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((200, 2))
        for s in (HalfSpace([0.8, -0.6], 0.3), simplex_cone_partition(3).cells[1],
                  Sector2D(0.5, 2.1)):
            assert np.array_equal(s.negate().contains(pts), s.contains(-pts))

    def test_rotation_preserves_measures(self):
        rng = np.random.default_rng(11)
        q = random_orthogonal(2, rng)
        p = simplex_cone_partition(3).rotated(q)
        for c in p.cells:
            assert gaussian_measure(c).value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 5):
            q = random_orthogonal(d, rng)
            assert np.allclose(q @ q.T, np.eye(d), atol=1e-12)


class TestJsonRoundTrip:
    def test_all_kinds(self):
        p = PartitionSpec(
            [
                ProductWithR(HalfSpace([1.0, 0.0], 0.2), 1),
                ProductWithR(Complement(HalfSpace([1.0, 0.0], 0.2)), 1),
            ]
        )
        doc = partition_to_json(p)
        q = partition_from_json(json.loads(json.dumps(doc)))
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((500, 3))
        assert np.array_equal(p.membership(pts), q.membership(pts))

    def test_cone_partition_roundtrip(self):
        p = simplex_cone_partition(4)
        q = partition_from_json(partition_to_json(p))
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((500, 3))
        assert np.array_equal(p.membership(pts), q.membership(pts))

    def test_documented_field_names(self):
        doc = partition_to_json(halfspace_partition([1.0, 0.0], 0.5))
        assert doc["dimension"] == 2
        cell = doc["cells"][0]
        assert cell["kind"] == "half-space"
        assert cell["normal"] == [1.0, 0.0]
        assert cell["offset"] == 0.5
        cone_doc = partition_to_json(simplex_cone_partition(3))["cells"][0]
        assert cone_doc["kind"] == "cone"
        assert len(cone_doc["generators"]) == 3

    def test_sector_and_explicit_kinds(self):
        p = three_sectors_120()
        q = partition_from_json(partition_to_json(p))
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((300, 2))
        assert np.array_equal(p.membership(pts), q.membership(pts))
        cell = ExplicitCell([HalfSpace([1.0, 0.0], 0.0), HalfSpace([0.0, 1.0], 1.0)])
        doc = cell.to_json()
        back = partition_from_json({"dimension": 2, "cells": [doc, {"kind": "complement", "base": doc}]})
        assert np.array_equal(back.cells[0].contains(pts), cell.contains(pts))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            partition_from_json({"dimension": 1, "cells": [{"kind": "blob"}]})

    def test_malformed_document_rejected(self):
        with pytest.raises(DomainError):
            partition_from_json({"cells": "nope"})

    def test_oracle_not_serializable(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        with pytest.raises(DomainError):
            ball.to_json()


class TestPerturbedCones:
    def test_still_a_partition(self):
        p = perturbed_simplex_cones(3, angle_deg=5.0)
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((200_000, 2))
        idx = p.membership(pts)
        assert set(np.unique(idx)) == {0, 1, 2}

    def test_measures_shift(self):
        p = perturbed_simplex_cones(3, angle_deg=5.0)
        vals = [gaussian_measure(c).value for c in p.cells]
        assert sum(vals) == pytest.approx(1.0, abs=1e-9)
        assert max(abs(v - 1 / 3) for v in vals) > 1e-3


# Arcs (alpha, beta) that the former 2,048-point angular scan with bisection
# returned for each cell; None marks an empty cell.
OLD_SCAN_ARCS = {
    "simplex3": [(2.879793265790644, 4.974188368183839),
                 (4.974188368183839, 7.0685834705770345),
                 (0.7853981633974483, 2.879793265790644)],
    "perturbed3": [(2.923426497090502, 5.017821599483698),
                   (5.017821599483698, 7.0685834705770345),
                   (0.7853981633974483, 2.923426497090502)],
    "random5": [(4.571853479391795, 6.296271698311364),
                (3.4412015057356964, 4.571853479391795),
                (0.013086391131778004, 2.0634084802325336),
                (2.0634084802325336, 3.4412015057356964),
                None],
}


def _narrow_cones():
    # three 120-degree cones plus a generator just outside the boundary
    # between two of them: its cell is about 4.6e-6 rad wide
    z = [[math.cos(t), math.sin(t)] for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    z.append([(0.5 + 2e-6) * math.cos(math.pi / 3), (0.5 + 2e-6) * math.sin(math.pi / 3)])
    return cone_partition(z)


class TestConeArcs:
    @pytest.mark.parametrize("name, partition", [
        ("simplex3", simplex_cone_partition(3)),
        ("perturbed3", perturbed_simplex_cones(3)),
        ("random5", cone_partition(np.random.default_rng(20221).standard_normal((5, 2)))),
    ])
    def test_closed_form_matches_old_scan(self, name, partition):
        for cell, old in zip(partition.cells, OLD_SCAN_ARCS[name]):
            deco = cell.sector_decomposition()
            arc = None if deco is None else deco[1][0]
            if old is None:
                assert arc is None
            else:
                assert arc == pytest.approx(old, abs=1e-12)

    def test_narrow_cell_has_an_arc_and_cells_tile_the_circle(self):
        arcs = sorted(c.sector_decomposition()[1][0] for c in _narrow_cones().cells)
        assert len(arcs) == 4
        assert 0.0 < arcs[0][1] - arcs[0][0] < 1e-5
        for (_, end), (start, _) in zip(arcs, arcs[1:] + [(arcs[0][0] + 2 * math.pi, None)]):
            assert end == pytest.approx(start, abs=1e-12)

    def test_narrow_cell_keeps_the_quadrature_route(self):
        p = _narrow_cones()
        quad = partition_stability(p, 0.5)
        assert quad.method == "quadrature"
        mc = partition_stability(p, 0.5, budget=1_000_000, seed=31, mode="monte-carlo")
        assert abs(quad.value - mc.value) <= 4 * (mc.std_error + quad.std_error)

    def test_full_and_empty_cells(self):
        same = ConeCell([[1.0, 0.0], [1.0, 0.0]], 0)
        assert same.sector_decomposition()[1] == [(0.0, 2 * math.pi)]
        inside = ConeCell([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], 2)
        assert inside.sector_decomposition() is None


def _old_sector_rule(apex, alpha, beta, nodes):
    # the former angular Gauss-Legendre rule (panels of at most pi/2) over
    # the closed-form radial integrals J1 (mass) and J2 (second radial moment)
    width = beta - alpha
    panels = max(1, math.ceil(width / (math.pi / 2)))
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(alpha, beta, panels + 1)
    half = 0.5 * np.diff(edges)
    theta = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * t).ravel()
    wt = (half[:, None] * w).ravel()
    q = np.atleast_2d(np.asarray(apex, dtype=float))
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    c = q @ u.T
    q2 = np.sum(q * q, axis=1)[:, None]
    safe = np.exp(0.5 * (c * c - q2) + log_ndtr(-c))
    j1 = np.exp(-0.5 * q2) / (2 * math.pi) - c * safe / math.sqrt(2 * math.pi)
    j2 = (1 + c * c) * safe / math.sqrt(2 * math.pi) - c * np.exp(-0.5 * q2) / (2 * math.pi)
    return j1 @ wt, (q * (j1 @ wt)[:, None] + (j2 * wt) @ u)


SECTOR_WIDTHS = [1e-12, 1e-9, 4.6e-6, 1e-3, 2 * math.pi / 3, math.pi - 1e-10, math.pi,
                 math.pi + 1e-10, 4.0, 2 * math.pi - 1e-9, 2 * math.pi]


class TestSectorClosedForms:
    @pytest.mark.parametrize("width", SECTOR_WIDTHS)
    @pytest.mark.parametrize("alpha", [0.0, 0.3, -2.0, math.pi / 2, 5.0])
    def test_mass_matches_the_old_rule(self, width, alpha):
        beta = alpha + width
        rng = np.random.default_rng([41, SECTOR_WIDTHS.index(width)])
        on_edges = np.concatenate([np.outer([-3.0, -1.0, -0.2, 0.5, 2.0], [math.cos(t), math.sin(t)])
                                   for t in (alpha, beta)])
        apex = np.concatenate([rng.standard_normal((100, 2)), on_edges, np.zeros((1, 2))])
        mass = shifted_sector_mass(apex, alpha, beta)
        old, _ = _old_sector_rule(apex, alpha, beta, 200)
        assert np.max(np.abs(mass - old)) <= 3e-14
        assert np.all((mass >= -1e-15) & (mass <= 1.0 + 1e-15))
        singles = [shifted_sector_mass(q, alpha, beta) for q in apex[-11:]]
        assert all(isinstance(v, float) for v in singles)
        assert np.array_equal(singles, mass[-11:])

    def test_apex_zero_is_the_width_fraction(self):
        for width in SECTOR_WIDTHS:
            beta = 1.0 + width
            assert shifted_sector_mass([0.0, 0.0], 1.0, beta) == (beta - 1.0) / (2 * math.pi)

    def test_mass_is_continuous_across_an_edge_ray(self):
        # apexes on the line of the alpha edge (d = 0 exactly) and just either
        # side of it, where d changes sign
        alpha, beta = 0.7, 2.5
        u = np.array([math.cos(alpha), math.sin(alpha)])
        n = np.array([-u[1], u[0]])
        for r in (-1.5, 1.5):
            apex = r * u + np.array([-1e-13, -1e-15, 0.0, 1e-15, 1e-13])[:, None] * n
            mass = shifted_sector_mass(apex, alpha, beta)
            assert np.ptp(mass) <= 1e-13

    def test_half_turn_with_d_zero_at_both_edges(self):
        # at this alpha, cos and sin of alpha + pi round to exactly minus those
        # of alpha, so d = 0 at both edges; the half-plane's line passes
        # through the origin and its mass is 1/2
        alpha = 0.6398146546030792
        beta = alpha + math.pi
        u = np.array([math.cos(alpha), math.sin(alpha)])
        for r in (-1.3, 0.2, 1.3):
            assert shifted_sector_mass(r * u, alpha, beta) == pytest.approx(0.5, abs=1e-15)

    def test_moment_matches_the_old_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            apex = 2.0 * rng.standard_normal(2)
            alpha = rng.uniform(-4.0, 4.0)
            beta = alpha + rng.uniform(0.0, 2 * math.pi)
            _, old = _old_sector_rule(apex, alpha, beta, 96)
            mom = Sector2D(alpha, beta).translate(apex).moment_exact()[0]
            assert np.max(np.abs(mom - old[0])) <= 1e-13

    def test_no_gauss_legendre_table_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Gauss-Legendre table was requested")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        for module in (gauss_module, partitions_module, cones_module):
            monkeypatch.setattr(module, "_kronrod", refuse)
        apex = np.array([[0.3, -0.2], [4.0, 0.0]])
        assert shifted_sector_mass(apex, 0.1, 2.0).shape == (2,)
        assert Sector2D(0.1, 2.0).translate(apex[0]).moment_exact()[0].shape == (2,)
        assert 0.0 < bivariate_normal_cdf(0.4, -0.3, 0.999) < 1.0

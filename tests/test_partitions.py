"""Tests for cells, partitions, boundary sampling, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import log_ndtr, ndtr

import noiselab.partitions as partitions_module
from noiselab.gauss import DomainError, bivariate_normal_cdf
from noiselab.partitions import (
    Complement,
    ConeCell,
    CoverageError,
    EmptyInterfaceError,
    ExplicitCell,
    HalfSpace,
    OracleSet,
    PartitionSpec,
    ProductWithR,
    Sector2D,
    UnsupportedBoundaryError,
    cone_partition,
    cylinder_extend,
    gaussian_measure,
    halfspace_partition,
    partition_from_json,
    partition_to_json,
    perturbed_simplex_cones,
    random_orthogonal,
    sector_partition,
    shifted_sector_mass,
    shifted_sector_moment,
    shifted_sector_stability,
    simplex_cone_partition,
    simplex_generators,
    three_sectors_120,
)
from noiselab.stability import partition_stability


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
        mom = shifted_sector_moment(apex, alpha, beta)
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
            val = shifted_sector_stability(np.zeros(2), -math.pi / 2, math.pi / 2, rho)
            assert val == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-9)


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
            arc = cell._compute_arc()
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
            assert np.max(np.abs(shifted_sector_moment(apex, alpha, beta) - old[0])) <= 1e-13

    def test_no_gauss_legendre_table_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Gauss-Legendre table was requested")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        monkeypatch.setattr(partitions_module, "_leggauss", refuse)
        apex = np.array([[0.3, -0.2], [4.0, 0.0]])
        assert shifted_sector_mass(apex, 0.1, 2.0).shape == (2,)
        assert shifted_sector_moment(apex[0], 0.1, 2.0).shape == (2,)
        assert 0.0 < bivariate_normal_cdf(0.4, -0.3, 0.999) < 1.0

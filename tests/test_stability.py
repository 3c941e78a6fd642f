"""Tests for the stability functionals and the moment (propeller) functional."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri

from noiselab.gauss import DomainError, sample_correlated_pair
from noiselab.partitions import (
    Complement,
    ExplicitCell,
    HalfSpace,
    PartitionSpec,
    Sector2D,
    ShiftedSet,
    cone_partition,
    cylinder_extend,
    gaussian_measure,
    halfspace_partition,
    random_orthogonal,
    sector_partition,
    simplex_cone_partition,
    three_sectors_120,
)
from noiselab.stability import (
    bilinear_stability,
    cell_moment,
    half_space_stability_closed_form,
    noise_stability,
    partition_stability,
    partition_stability_quadrature,
    propeller_functional,
    sheppard_half_space,
)

PROPELLER_BOUND = 9.0 / (8.0 * math.pi)


class TestNoiseStability:
    def test_full_space(self):
        full = ExplicitCell([], dim=2)
        est = noise_stability(full, 0.5, 100_000, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_sheppard_half_space(self):
        # measure-1/2 half-space at rho = 0.5: 1/4 + arcsin(1/2)/(2 pi) = 1/3
        hs = HalfSpace([1.0], 0.0)
        quad = noise_stability(hs, 0.5)
        assert quad.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        mc = noise_stability(hs, 0.5, 1_000_000, seed=1, mode="monte-carlo")
        assert mc.value == pytest.approx(1.0 / 3.0, abs=3 * mc.std_error)

    def test_independence_limit(self):
        cone = simplex_cone_partition(3).cells[0]
        est = noise_stability(cone, 1e-6)
        assert est.value == pytest.approx((1.0 / 3.0) ** 2, abs=1e-5)
        exact0 = noise_stability(cone, 0.0)
        assert exact0.value == pytest.approx(1.0 / 9.0, abs=1e-9)

    def test_quadrature_matches_monte_carlo_for_cone(self):
        cone = simplex_cone_partition(3).cells[1]
        quad = noise_stability(cone, 0.45)
        mc = noise_stability(cone, 0.45, 2_000_000, seed=2, mode="monte-carlo")
        assert abs(quad.value - mc.value) <= 3 * mc.std_error

    def test_complement_identity(self):
        # stab(complement) = 1 - 2 measure + stab
        hs = HalfSpace([0.6, -0.8], 0.35)
        rho = 0.4
        a = noise_stability(hs, rho)
        b = noise_stability(Complement(hs), rho)
        mu = gaussian_measure(hs).value
        assert b.value == pytest.approx(1 - 2 * mu + a.value, abs=1e-8)

    def test_negative_rho_monte_carlo(self):
        hs = HalfSpace([1.0], 0.0)
        est = noise_stability(hs, -0.5)
        assert est.value == pytest.approx(0.25 - math.asin(0.5) / (2 * math.pi), abs=1e-9)


class TestPartitionStability:
    def test_halfspace_pair_two_thirds(self):
        # measures (1/2, 1/2) at rho = 0.5: 2 * 1/3 - 2 * 1/2 + 1 = 2/3
        p = halfspace_partition([1.0], 0.0)
        est = partition_stability(p, 0.5)
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-9)
        mc = partition_stability(p, 0.5, 1_000_000, seed=3, mode="monte-carlo")
        assert mc.value == pytest.approx(2.0 / 3.0, abs=3 * mc.std_error)

    def test_rho_zero_exact(self):
        p = simplex_cone_partition(3)
        est = partition_stability(p, 0.0)
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert est.samples == 0

    def test_cones_beat_equal_measure_slabs(self):
        # conjectured-direction comparison at equal cell measures (1/3 each):
        # simplex cones vs three parallel slabs, shared seed
        rho = 0.3
        cones = simplex_cone_partition(3)
        a, b = float(ndtri(1.0 / 3.0)), float(ndtri(2.0 / 3.0))
        slab0 = HalfSpace([1.0, 0.0], a)
        slab1 = ExplicitCell([HalfSpace([-1.0, 0.0], -a), HalfSpace([1.0, 0.0], b)])
        slabs = PartitionSpec([slab0, slab1, Complement(HalfSpace([1.0, 0.0], b))])
        v_cones = partition_stability(cones, rho).value
        v_slabs = partition_stability(slabs, rho, 2_000_000, seed=4).value
        se = partition_stability(slabs, rho, 2_000_000, seed=4).std_error
        assert v_cones > v_slabs + 3 * se

    def test_monotone_in_rho(self):
        p = simplex_cone_partition(3)
        vals = [partition_stability(p, r).value for r in np.linspace(0.1, 0.9, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cylinder_invariance(self):
        p = simplex_cone_partition(3)
        ext = cylinder_extend(p, 2)
        rho = 0.45
        base = partition_stability(p, rho, 2_000_000, seed=5, mode="monte-carlo")
        lifted = partition_stability(ext, rho, 2_000_000, seed=6, mode="monte-carlo")
        assert abs(base.value - lifted.value) <= 3 * (base.std_error + lifted.std_error)
        # deterministic route unwraps the cylinder
        assert partition_stability_quadrature(ext, rho).value == pytest.approx(
            partition_stability_quadrature(p, rho).value, abs=1e-12
        )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        q = random_orthogonal(2, rng)
        p = simplex_cone_partition(3)
        rho = 0.6
        a = partition_stability(p, rho, 1_500_000, seed=8, mode="monte-carlo")
        b = partition_stability(p.rotated(q), rho, 1_500_000, seed=9, mode="monte-carlo")
        assert abs(a.value - b.value) <= 3 * (a.std_error + b.std_error)
        # the quadrature route sees the rotation exactly
        assert partition_stability_quadrature(p.rotated(q), rho).value == pytest.approx(
            partition_stability_quadrature(p, rho).value, abs=1e-8
        )

    def test_sector_partition_quadrature(self):
        est = partition_stability(three_sectors_120(), 0.5)
        cones = partition_stability(simplex_cone_partition(3), 0.5)
        # three 120-degree sectors are a rotation of the three simplex cones
        assert est.value == pytest.approx(cones.value, abs=1e-8)


class TestBilinearStability:
    def test_same_partition_reduces_to_stability(self):
        p = simplex_cone_partition(3)
        b = bilinear_stability(p, p, 0.4, 500_000, seed=10, mode="monte-carlo")
        s = partition_stability(p, 0.4, 500_000, seed=10, mode="monte-carlo")
        assert b.value == s.value  # same estimator, same draws

    def test_opposing_half_lines(self):
        # p = {(-inf,0], (0,inf)}, q reversed, rho = 0.5:
        # 2 P(X <= 0, Y > 0) = 2 (1/2 - 1/3) = 1/3
        p = halfspace_partition([1.0], 0.0)
        q = p.negated()
        est = bilinear_stability(p, q, 0.5)
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_reflection_identity(self):
        # B(p, q, rho) = B(p, -q, -rho)
        p = halfspace_partition([1.0], 0.2)
        q = halfspace_partition([-1.0], 0.2)  # cell 0 = {x >= -0.2}, same measure
        lhs = bilinear_stability(p, q, 0.35)
        rhs = bilinear_stability(p, q.negated(), -0.35)
        assert lhs.value == pytest.approx(rhs.value, abs=1e-9)
        # and on the Monte Carlo route for a cone pair
        c = simplex_cone_partition(3)
        lhs = bilinear_stability(c, c.negated(), 0.35, 1_000_000, seed=11, mode="monte-carlo")
        rhs = bilinear_stability(c, c, -0.35, 1_000_000, seed=12, mode="monte-carlo")
        assert abs(lhs.value - rhs.value) <= 3 * (lhs.std_error + rhs.std_error)

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            bilinear_stability(halfspace_partition([1.0], 0.0), PartitionSpec([ExplicitCell([], dim=1)]), 0.5)

    def test_measure_mismatch_rejected(self):
        p = halfspace_partition([1.0], 0.0)
        q = halfspace_partition([1.0], 0.8)
        with pytest.raises(DomainError):
            bilinear_stability(p, q, 0.5)

    def test_containment_direction(self):
        # one half-space containing the other scores higher than the
        # reflected (opposing) configuration
        for a in (0.0, 0.5):
            p = halfspace_partition([1.0], a)
            same = bilinear_stability(p, p, 0.5)
            opp = bilinear_stability(p, p.negated(), 0.5)
            assert same.value > opp.value


class TestPropeller:
    def test_three_sectors_attain_bound(self):
        est = propeller_functional(three_sectors_120())
        assert est.value == pytest.approx(PROPELLER_BOUND, abs=1e-10)

    def test_single_cell_zero(self):
        p = PartitionSpec([ExplicitCell([], dim=3)])
        est = propeller_functional(p, 200_000, seed=13)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_opposing_half_spaces(self):
        # two opposing half-spaces: 2 (1/sqrt(2 pi))^2 = 1/pi
        p = halfspace_partition([1.0, 0.0], 0.0)
        est = propeller_functional(p)
        assert est.value == pytest.approx(1.0 / math.pi, abs=1e-10)

    def test_empty_cells_contribute_zero(self):
        full = ExplicitCell([], dim=2)
        p = PartitionSpec([full, Complement(full), Complement(full)])
        est = propeller_functional(p)
        assert est.value == pytest.approx(0.0, abs=1e-10)
        # Monte Carlo route with a geometrically empty cell
        empty = ExplicitCell([HalfSpace([1.0, 0.0], -1.0), HalfSpace([-1.0, 0.0], -1.0)])
        q = PartitionSpec([ExplicitCell([], dim=2), empty, empty])
        mc = propeller_functional(q, 200_000, seed=14)
        assert abs(mc.value) <= 3 * mc.std_error + 1e-9

    def test_monte_carlo_matches_closed_form(self):
        p = three_sectors_120()
        mc = propeller_functional(p, 2_000_000, seed=15, mode="monte-carlo")
        assert abs(mc.value - PROPELLER_BOUND) <= 3 * mc.std_error + 1e-4

    def test_moment_balance(self):
        # cell moments sum to the zero vector
        p = simplex_cone_partition(3)
        total = np.sum([cell_moment(c).value for c in p.cells], axis=0)
        assert np.linalg.norm(total) <= 1e-9
        q = cone_partition(np.random.default_rng(16).standard_normal((4, 3)))
        moments = [cell_moment(c, 400_000, seed=[17, k]) for k, c in enumerate(q.cells)]
        total = np.sum([m.value for m in moments], axis=0)
        err = np.sum([m.std_error for m in moments], axis=0)
        assert np.all(np.abs(total) <= 3 * err)

    def test_random_3d_partitions_below_bound(self):
        rng = np.random.default_rng(18)
        for k in range(8):
            gens = rng.standard_normal((4, 3))
            gens /= np.linalg.norm(gens, axis=1, keepdims=True)
            est = propeller_functional(cone_partition(gens), 200_000, seed=[19, k])
            assert est.value + 3 * est.std_error < PROPELLER_BOUND


class TestClosedFormOracle:
    def test_measure_half(self):
        assert half_space_stability_closed_form(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-10)
        assert half_space_stability_closed_form(0.5, 1e-12) == pytest.approx(0.25, abs=1e-9)

    def test_general_measure_against_monte_carlo(self):
        measure = float(ndtr(1.0))  # ~0.8413
        rho = 0.5
        val = half_space_stability_closed_form(measure, rho)
        x, y = sample_correlated_pair(rho, 1, 2_000_000, seed=20)
        hits = float(np.mean((x[:, 0] <= 1.0) & (y[:, 0] <= 1.0)))
        se = math.sqrt(hits * (1 - hits) / 2_000_000)
        assert val == pytest.approx(hits, abs=3 * se)

    def test_rejects_degenerate_measure(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                half_space_stability_closed_form(bad, 0.5)

    def test_borell_dominance(self):
        # random half-space intersections never beat the half-space of the
        # same measure
        rng = np.random.default_rng(21)
        rho = 0.5
        for k in range(20):
            n1 = rng.standard_normal(2)
            n2 = rng.standard_normal(2)
            cell = ExplicitCell([HalfSpace(n1, rng.normal(0.8, 0.2)),
                                 HalfSpace(n2, rng.normal(0.8, 0.2))])
            mu = gaussian_measure(cell, 400_000, seed=[22, k])
            est = noise_stability(cell, rho, 400_000, seed=[23, k])
            bench = half_space_stability_closed_form(
                min(max(mu.value, 1e-9), 1 - 1e-9), rho
            )
            slack = 3 * (est.std_error + 2 * mu.std_error)
            assert est.value <= bench + slack


def _angle_difference_density(delta, rho):
    # density of angle(Y) - angle(X) for a rho-correlated pair in R^2
    b = rho * math.cos(delta)
    s = 1.0 - b * b
    return ((1.0 - rho * rho) / (2 * math.pi * s)
            * (1.0 + b * (math.pi / 2 + math.asin(b)) / math.sqrt(s)))


class TestSectorQuadratureNearOne:
    """The sector route keeps its reported error as rho -> 1 and for shifted apexes."""

    @pytest.mark.parametrize("rho", [0.99, 0.995, 0.999])
    def test_half_plane_as_sectors_matches_sheppard(self, rho):
        est = partition_stability(sector_partition([-math.pi / 2, math.pi / 2]), rho)
        assert est.method == "quadrature"
        assert abs(est.value - (0.5 + math.asin(rho) / math.pi)) <= est.std_error

    @pytest.mark.parametrize("rho", [0.99, 0.995, 0.999])
    def test_simplex_cones_match_the_angle_difference_integral(self, rho):
        # the angle of X is uniform and independent of the angle difference, so
        # three 120-degree cells give P(same cell) = (3/pi) int_0^w f(t) (w - t) dt
        w = 2 * math.pi / 3
        val, _ = integrate.quad(lambda t: _angle_difference_density(t, rho) * (w - t), 0.0, w,
                                epsabs=1e-15, epsrel=1e-13, limit=400)
        est = partition_stability(simplex_cone_partition(3), rho)
        assert est.method == "quadrature"
        assert abs(est.value - 3.0 * val / math.pi) <= est.std_error

    @pytest.mark.parametrize("rho", [0.98, 0.995])
    def test_shifted_half_plane_as_a_sector(self, rho):
        # x <= 4 as the sector with apex (4, 0) over [pi/2, 3 pi/2]
        cell = ShiftedSet(Sector2D(math.pi / 2, 3 * math.pi / 2), [4.0, 0.0])
        s = math.sqrt(1.0 - rho * rho)
        val, _ = integrate.quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
                                * ndtr((4.0 - rho * t) / s), -40.0, 4.0,
                                epsabs=1e-15, epsrel=1e-13, limit=400)
        est = noise_stability(cell, rho)
        assert est.method == "quadrature"
        assert abs(est.value - val) <= est.std_error

"""Tests for the stability functionals and the moment (propeller) functional."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import noiselab.partitions as partitions_module
import noiselab.stability as stability_module
from noiselab.gauss import (
    QUADRATURE,
    ROUNDING,
    DomainError,
    bivariate_normal_cdf,
    mc_mean,
    mc_shard_means,
    sample_correlated_pair,
)
from noiselab.partitions import (
    Complement,
    ConeCell,
    ExplicitCell,
    HalfSpace,
    PartitionSpec,
    Sector2D,
    ShiftedSet,
    cone_partition,
    cylinder_extend,
    gaussian_measure,
    halfspace_partition,
    sector_partition,
    shifted_sector_pair_stability,
    simplex_cone_partition,
    simplex_generators,
    three_sectors_120,
)
from noiselab.stability import (
    agreement_values,
    bilinear_stability,
    half_space_stability_closed_form,
    noise_stability,
    partition_stability,
    partition_stability_quadrature,
    propeller_functional,
    sheppard_half_space,
    stability_sweep,
)
from noiselab.variation import TranslationField, hyperstability_probe, stability_second_derivative

from helpers import random_orthogonal

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
        total = np.sum([c.moment_exact()[0] for c in p.cells], axis=0)
        assert np.linalg.norm(total) <= 1e-9
        q = cone_partition(np.random.default_rng(16).standard_normal((4, 3)))
        moments = [c.moment_exact() for c in q.cells]
        total = np.sum([m[0] for m in moments], axis=0)
        err = np.sum([m[1] for m in moments], axis=0)
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


def _mp_angle_difference_density(delta, rho):
    # density of angle(Y) - angle(X) for a rho-correlated pair in R^2, in mpmath
    b = rho * mpmath.cos(delta)
    s = 1 - b * b
    return (1 - rho * rho) / (2 * mpmath.pi * s) * (1 + b * (mpmath.pi / 2 + mpmath.asin(b))
                                                   / mpmath.sqrt(s))


def _mp_sector_pair(arc_a, arc_b, rho):
    """P(X in A, Y in B) for sectors with apex 0 over the two arcs: the angle of X
    is uniform and independent of the angle difference, so this is (1/2pi) times
    the integral of the angle-difference density against the length of the part
    of A that the difference carries into B.  The length is linear between the
    kinks, which bound the pieces of the mpmath quadrature, so each piece reads
    its two coefficients off the length at its ends."""
    with mpmath.workdps(20):
        tau, r = 2 * mpmath.pi, mpmath.mpf(rho)
        (a1, b1), (a2, b2) = ([mpmath.mpf(x) for x in arc] for arc in (arc_a, arc_b))

        def overlap(d):
            return sum(max(0, min(b1, b2 - d + k * tau) - max(a1, a2 - d + k * tau))
                       for k in range(-3, 4))

        kinks = {(x + mpmath.pi) % tau - mpmath.pi for x in (a2 - a1, a2 - b1, b2 - a1, b2 - b1)}
        pieces = sorted(kinks | {-mpmath.pi, mpmath.mpf(0), mpmath.pi})
        total = 0
        for lo, hi in zip(pieces, pieces[1:]):
            start, slope = overlap(lo), (overlap(hi) - overlap(lo)) / (hi - lo)
            total += mpmath.quad(lambda d: _mp_angle_difference_density(d, r)
                                 * (start + slope * (d - lo)), [lo, hi])
        return float(total / tau)


def _mp_bivariate_normal(a, b, rho):
    """Phi_2(a, b; rho) as the mpmath integral of phi(t) Phi((b - rho t)/sqrt(1 - rho^2))
    over t <= a; the inner CDF steps at t = b/rho as |rho| -> 1."""
    with mpmath.workdps(20):
        a, b, r = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - r * r)
        step = b / r
        knees = sorted({step + k * s for k in (-8, -1, 0, 1, 8)})
        pieces = [-mpmath.inf] + [t for t in knees if t < a] + [a]
        return float(mpmath.quad(lambda t: mpmath.npdf(t) * mpmath.ncdf((b - r * t) / s), pieces))


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
        with mpmath.workdps(20):
            w = 2 * mpmath.pi / 3
            val = mpmath.quad(lambda t: _mp_angle_difference_density(t, mpmath.mpf(rho)) * (w - t),
                              [0, w])
            oracle = float(3 * val / mpmath.pi)
        est = partition_stability(simplex_cone_partition(3), rho)
        assert est.method == "quadrature"
        assert abs(est.value - oracle) <= est.std_error

    @pytest.mark.parametrize("rho", [0.98, 0.995])
    def test_shifted_half_plane_as_a_sector(self, rho):
        # x <= 4 as the sector with apex (4, 0) over [pi/2, 3 pi/2]
        cell = ShiftedSet(Sector2D(math.pi / 2, 3 * math.pi / 2), [4.0, 0.0])
        est = noise_stability(cell, rho)
        assert est.method == "quadrature"
        assert abs(est.value - _mp_bivariate_normal(4.0, 4.0, rho)) <= est.std_error


def _half_plane(apex, alpha):
    """The sector over [alpha, alpha + pi] at ``apex``, and its (normal, offset)
    as the half-plane {x: <normal, x> <= offset}."""
    normal = -np.array([math.cos(alpha + math.pi / 2), math.sin(alpha + math.pi / 2)])
    return ShiftedSet(Sector2D(alpha, alpha + math.pi), apex), normal, float(normal @ apex)


DOMAIN_RHOS = [sign * r for r in (0.9, 0.99, 0.999, 0.9999, 0.99999) for sign in (1, -1)]
NARROW = Sector2D(0.3, 0.3 + 1e-3)
WIDE = Sector2D(2.9, 0.4 + 2 * math.pi)  # wider than pi
PARALLEL = (Sector2D(0.0, 1.0), ShiftedSet(Sector2D(0.0, 1.0), [0.0, 0.3]))


class TestSectorPairsOverTheDomain:
    """pair_exact on planar sectors over rho in +-{0.9, ..., 0.99999}: the value is
    within its reported error of an independent oracle, and that error is at
    most 1e-13."""

    @staticmethod
    def check(a, b, rho, oracle, slack=0.0):
        val, err = a.pair_exact(b, rho)
        assert err <= 1e-13
        assert abs(val - oracle) <= err + slack
        return val, err

    @pytest.mark.parametrize("rho", DOMAIN_RHOS)
    def test_centered_half_plane_is_sheppard(self, rho):
        half = Sector2D(-math.pi / 2, math.pi / 2)
        law = math.asin(rho) / (2 * math.pi)
        self.check(half, half, rho, 0.25 + law)
        self.check(half, Complement(half), rho, 0.25 - law)

    @pytest.mark.parametrize("rho", DOMAIN_RHOS)
    @pytest.mark.parametrize("a, b", [(NARROW, NARROW), (WIDE, WIDE), (WIDE, Complement(WIDE)),
                                      (Complement(WIDE), Complement(WIDE))],
                             ids=["narrow", "wide", "wide-complement", "complement"])
    def test_centered_sectors_match_the_angle_difference_integral(self, a, b, rho):
        (_, [arc_a]), (_, [arc_b]) = a.sector_decomposition(), b.sector_decomposition()
        self.check(a, b, rho, _mp_sector_pair(arc_a, arc_b, rho))

    @pytest.mark.parametrize("rho", DOMAIN_RHOS)
    def test_half_space_pairs_earn_their_error(self, rho):
        # the bound scales with the terms of Owen's formula, Phi(a) + Phi(b)
        errors = [self.check(HalfSpace([1.0, 0.0], a), HalfSpace([0.6, 0.8], b), rho,
                             _mp_bivariate_normal(a, b, 0.6 * rho))[1]
                  for a, b in [(0.3, -0.4), (-6.0, -5.0), (2.0, 7.0)]]
        assert errors[1] < 1e-6 * errors[0] and errors[0] < errors[2]

    @pytest.mark.parametrize("rho", DOMAIN_RHOS)
    def test_shifted_half_planes_match_the_line_integral(self, rho):
        a, na, oa = _half_plane(np.array([0.3, -0.2]), 0.7)
        b, nb, ob = _half_plane(np.array([-0.5, 1.0]), 0.7 + 2.5)
        far, nf, of = _half_plane(np.array([4.0, 0.0]), math.pi / 2)
        self.check(a, b, rho, _mp_bivariate_normal(oa, ob, rho * float(na @ nb)))
        self.check(a, a, rho, _mp_bivariate_normal(oa, oa, rho))
        self.check(far, far, rho, _mp_bivariate_normal(of, of, rho))
        self.check(Complement(far), Complement(far), rho, _mp_bivariate_normal(-of, -of, rho))

    @pytest.mark.parametrize("rho", DOMAIN_RHOS)
    @pytest.mark.parametrize("a, b", [PARALLEL, (ShiftedSet(Sector2D(0.1, 2.0), [0.3, -0.2]),) * 2,
                                      (NARROW, ShiftedSet(WIDE, [0.2, 0.1]))],
                             ids=["parallel-edges", "shifted", "narrow-wide-shifted"])
    def test_shifted_sectors_against_monte_carlo(self, a, b, rho):
        n = 200_000
        x, y = sample_correlated_pair(rho, 2, n, seed=[31, round(1e5 * abs(rho)), rho > 0])
        hits = a.contains(x) & b.contains(y)
        self.check(a, b, rho, hits.mean(), 4 * math.sqrt(max(hits.var(ddof=1), 1e-12) / n))

    @pytest.mark.parametrize("rho", [0.5, -0.9, 0.99, 0.9999, -0.99999])
    @pytest.mark.parametrize("a, b", [PARALLEL, (WIDE, NARROW),
                                      (ShiftedSet(WIDE, [0.3, -0.2]), Complement(NARROW))],
                             ids=["parallel-edges", "wide-narrow", "shifted-complement"])
    def test_derivative_is_the_richardson_limit(self, a, b, rho):
        # P'(rho) = cos(th) P'(sin th) / cos(th) against Richardson-extrapolated
        # central differences of P with steps h and 2h
        exact = a.pair_drho_exact(b, rho)[0]
        h = 0.01 * (1.0 - abs(rho))

        def central(step):
            (up, e_up), (dn, e_dn) = a.pair_exact(b, rho + step), a.pair_exact(b, rho - step)
            return (up - dn) / (2 * step), (e_up + e_dn) / (2 * step)

        (d1, e1), (d2, e2), (d4, _) = central(h), central(2 * h), central(4 * h)
        richardson, coarser = (4 * d1 - d2) / 3, (4 * d2 - d4) / 3
        # the values' reported errors through the differences, plus the
        # extrapolation's residual against the one from steps 2h and 4h
        tol = (4 * e1 + e2) / 3 + abs(richardson - coarser)
        assert abs(exact - richardson) <= tol
        assert tol <= 1e-6 * max(1.0, abs(exact))


def _drho(p, rho):
    """sum over the cells of p of SetSpec.pair_drho_exact: d/drho of the stability."""
    value, err = 0.0, 0.0
    for c in p.cells:
        v, e = c.pair_drho_exact(c, rho)
        value, err = value + v, err + e
    return value, err


PRIME_RHOS = [-0.9999, -0.5, 0.3, 0.9, 0.9999]


class TestPairDrho:
    """SetSpec.pair_drho_exact, the exact d/drho of P(X in a, Y in b), on its
    half-space and sector routes: every value is within its reported error plus
    the reference's of an independent reference."""

    @pytest.mark.parametrize("rho", PRIME_RHOS)
    @pytest.mark.parametrize("p", [halfspace_partition([1.0, 0.0], 0.0),
                                   sector_partition([-math.pi / 2, math.pi / 2])],
                             ids=["half-spaces", "sectors"])
    def test_half_plane_pair(self, p, rho):
        # two half-planes have stability 1/2 + arcsin(rho)/pi
        value, err = _drho(p, rho)
        with mpmath.workdps(40):
            assert abs(value - 1 / (mpmath.pi * mpmath.sqrt(1 - mpmath.mpf(rho) ** 2))) <= err

    @pytest.mark.parametrize("rho", PRIME_RHOS + DOMAIN_RHOS)
    @pytest.mark.parametrize("normal, a, b", [
        *(([0.6, 0.8], a, b) for a, b in [(0.3, -0.4), (-6.0, -5.0), (2.0, 7.0), (-1.5, 1.2)]),
        *((n, a, b) for n in ([1.0, 0.0], [-1.0, 0.0]) for a, b in [(0.3, -0.4), (-1.5, 1.2)])])
    def test_offset_half_spaces_match_mpmath(self, normal, a, b, rho):
        # c phi_2(a, b; rho c) with c = <n_a, n_b>, the inner product of the
        # cells' stored normals taken in mpmath; |c| = 1 takes the exponent's
        # slope-free error and, with rho c < 0, its (a + b)^2 form.  Where the
        # density is below the smallest normal float, the error still covers it
        cell_a, cell_b = HalfSpace([1.0, 0.0], a), HalfSpace(normal, b)
        value, err = cell_a.pair_drho_exact(cell_b, rho)
        (na, a), (nb, b) = cell_a.halfspace(), cell_b.halfspace()
        with mpmath.workdps(40):
            c = sum(mpmath.mpf(float(u)) * mpmath.mpf(float(w)) for u, w in zip(na, nb))
            r, a, b = mpmath.mpf(rho) * c, mpmath.mpf(a), mpmath.mpf(b)
            ref = (c * mpmath.exp(-(a * a - 2 * r * a * b + b * b) / (2 * (1 - r * r)))
                   / (2 * mpmath.pi * mpmath.sqrt(1 - r * r)))
            assert abs(value - ref) <= err

    @pytest.mark.parametrize("rho", PRIME_RHOS)
    @pytest.mark.parametrize("p", [sector_partition([0.0, 2.0, 4.0]).translated([0.4, -0.3]),
                                   sector_partition([0.3, 0.3 + 1e-3]).translated([0.2, 0.1]),
                                   sector_partition([0.5, 4.5]).translated([-0.6, 0.25])],
                             ids=["shifted-apex", "narrow-arc", "arc-wider-than-pi"])
    def test_sectors_are_the_richardson_limit(self, p, rho):
        # Richardson-extrapolated central differences of the quadrature stability
        # with steps k and 2k, weights over 12 k at rho - 2k, rho - k, rho + k and
        # rho + 2k; their error is the extrapolation's gap term plus the values'
        # errors through the weights
        value, err = _drho(p, rho)
        k = 1e-3 * (1 - abs(rho))
        ests = [partition_stability_quadrature(p, rho + j * k) for j in (-2, -1, 1, 2)]
        vals = np.array([e.value for e in ests])
        vals -= vals[0]
        errs = np.array([e.std_error for e in ests])
        ref = (vals @ [1, -8, 8, -1]) / (12 * k)
        ref_err = (abs(vals @ [2, -4, 4, -2]) + errs @ [1, 8, 8, 1]) / (12 * k)
        assert abs(value - ref) <= err + ref_err
        assert ref_err <= 1e-5 * max(1.0, abs(value))


_R3_CONES = simplex_cone_partition(4)
_R4_CONES = simplex_cone_partition(5)
SWEEP_PARTITIONS = {
    "simplex-cones-R3": _R3_CONES,
    "simplex-cones-R4": _R4_CONES,
    "shifted-cones-R3": _R3_CONES.translated([0.2, -0.1, 0.3]),
    "cones-R3-x-R2": cylinder_extend(_R3_CONES, 2),
    "half-space-pair-R3": halfspace_partition([1.0, 2.0, -0.5], 0.3),
    "opposite-cones-R3": cone_partition([[0.6, 0.0, 0.8], [-0.6, 0.0, -0.8]]),
    "planar-cones": simplex_cone_partition(3),
    "sectors": three_sectors_120(),
}
#: 0, a negative rho and a duplicate
SWEEP_GRID = [0.5, 0.0, -0.4, 0.9, 0.5]


class TestStabilitySweep:
    """A sweep row is the one-rho estimate at the same seed and budget, to the bit."""

    @pytest.mark.parametrize("mode", ["auto", "monte-carlo"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(SWEEP_PARTITIONS))
    def test_rows_equal_the_one_rho_calls(self, name, threads, mode):
        p = SWEEP_PARTITIONS[name]
        # two shards (131072 + 8928 pairs), so two threads do split the work
        rows = stability_sweep(p, SWEEP_GRID, 140_000, seed=21, threads=threads, mode=mode)
        assert len(rows) == len(SWEEP_GRID)
        for rho, row in zip(SWEEP_GRID, rows):
            assert row == partition_stability(p, rho, 140_000, seed=21, threads=threads,
                                              mode=mode)

    def test_one_monte_carlo_pass_per_sweep(self, monkeypatch):
        calls = []
        original = stability_module.mc_mean

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(stability_module, "mc_mean", counted)
        rows = stability_sweep(_R4_CONES, [0.3, 0.6, 0.9], 50_000, seed=3)
        assert calls == [50_000]
        assert [r.method for r in rows] == ["monte-carlo"] * 3
        assert all(r.samples == 50_000 for r in rows)

    def test_modes_are_checked_per_row(self):
        assert stability_sweep(_R4_CONES, [], 1000) == []
        with pytest.raises(DomainError):
            stability_sweep(_R4_CONES, [0.5], 1000, mode="quadrature")
        with pytest.raises(DomainError):
            stability_sweep(_R4_CONES, [0.5], 1000, mode="bogus")
        with pytest.raises(DomainError):
            stability_sweep(_R4_CONES, [0.5, 1.0], 1000)

    def test_bilinear_on_one_partition_is_its_stability(self):
        p = SWEEP_PARTITIONS["shifted-cones-R3"]
        b = bilinear_stability(p, p, 0.4, 140_000, seed=10, threads=2, mode="monte-carlo")
        assert b == partition_stability(p, 0.4, 140_000, seed=10, threads=2, mode="monte-carlo")


def _bits(value, error):
    return float(value).hex(), float(error).hex()


def _one_pair_sum(p, q, rho):
    """sum over the cell pairs (p_i, q_i), in order from 0.0, of the one-pair
    one-rho rule: shifted_sector_pair_stability for sector pairs, and for
    half-space pairs the scalar bivariate normal CDF with the error figure
    2 ROUNDING (Phi(a) + Phi(b)); as the bits of (value, error)."""
    total = err = 0.0
    for a, b in zip(p.cells, q.cells):
        ha, hb = a.halfspace(), b.halfspace()
        if ha is not None and hb is not None:
            (na, oa), (nb, ob) = ha, hb
            v = bivariate_normal_cdf(oa, ob, rho * float(np.clip(na @ nb, -1.0, 1.0)))
            e = 2.0 * ROUNDING * float(ndtr(oa) + ndtr(ob))
        else:
            v, e = shifted_sector_pair_stability(*a.sector_decomposition(),
                                                 *b.sector_decomposition(), rho)
        total, err = total + v, err + e
    return _bits(total, err)


PAIR_RULE_PARTITIONS = {
    "shifted-apex": sector_partition([0.0, 2.0, 4.0]).translated([0.4, -0.3]),
    "narrow-arc": sector_partition([0.3, 0.3 + 1e-3]).translated([0.2, 0.1]),
    "arc-wider-than-pi": sector_partition([0.5, 4.5]).translated([-0.6, 0.25]),
    "shifted-cones-x-R2": cylinder_extend(simplex_cone_partition(3).translated([0.3, -0.2]), 2),
    "half-spaces": halfspace_partition([1.0, 2.0, -0.5], 0.3),
    "half-space-and-sector": PartitionSpec([ConeCell([[1.0, 0.0], [-1.0, 0.0]], 0),
                                            Sector2D(math.pi / 2, 3 * math.pi / 2)]),
}
#: unsorted, mixed-sign, with a duplicate, 0 and +-0.9999
PAIR_RULE_GRID = [0.5, -0.9999, 0.0, 0.3, 0.9999, -0.4, 0.5]


class TestBatchedPairRule:
    """The deterministic rows of a sweep come from one batched pair-rule call
    and equal the one-pair one-rho rule, value and error, to the bit."""

    @pytest.mark.parametrize("name", sorted(PAIR_RULE_PARTITIONS))
    def test_sweep_rows_are_the_one_pair_rule(self, name):
        p = PAIR_RULE_PARTITIONS[name]
        rows = stability_sweep(p, PAIR_RULE_GRID)
        for rho, row in zip(PAIR_RULE_GRID, rows):
            one = partition_stability(p, rho)
            assert _bits(row.value, row.std_error) == _bits(one.value, one.std_error)
            assert row == one
            quad = partition_stability_quadrature(p, rho)
            assert _bits(quad.value, quad.std_error) == _one_pair_sum(p, p, rho)
            assert row.method == QUADRATURE
            assert _bits(row.value, row.std_error) == _one_pair_sum(p, p, rho)

    @pytest.mark.parametrize("p, q", [
        (sector_partition([0.0, 2.0, 4.0]), sector_partition([0.3, 2.3, 4.3])),
        (sector_partition([0.3, 0.3 + 1e-3]), sector_partition([1.0, 1.0 + 1e-3])),
        (simplex_cone_partition(3), three_sectors_120()),
    ], ids=["shifted-boundaries", "narrow-and-wide", "cones-and-sectors"])
    def test_bilinear_pair_is_the_one_pair_rule(self, p, q):
        for rho in PAIR_RULE_GRID:
            b = bilinear_stability(p, q, rho)
            assert b.method == QUADRATURE
            assert _bits(b.value, b.std_error) == _one_pair_sum(p, q, rho)

    def test_one_bivariate_normal_call_per_sweep(self, monkeypatch):
        calls = []
        original = partitions_module.bivariate_normal_cdf

        def counted(*args):
            calls.append(np.shape(args[0]))
            return original(*args)

        monkeypatch.setattr(partitions_module, "bivariate_normal_cdf", counted)
        p = PAIR_RULE_PARTITIONS["shifted-apex"]
        grid = [0.9, -0.5, 0.2, -0.98, 0.7, 0.9999, -0.3]
        rows = stability_sweep(p, grid)
        # 3 cells x 2 x 2 edge-ray pairs against the 33 Gauss-Kronrod nodes of
        # every row's panels
        nodes = sum(33 * (len(partitions_module._graded_panels(math.asin(r))) - 1) for r in grid)
        assert calls == [(12, nodes)]
        assert [r.method for r in rows] == [QUADRATURE] * len(grid)

    @pytest.mark.parametrize("name, integrand", [
        ("shifted-apex", "_plackett_integrand"),
        ("half-space-and-sector", "_plackett_integrand"),
        ("simplex-cones-R3", "cone_pair_terms"),
    ])
    def test_drho_grid_is_one_integrand_call_per_kind(self, monkeypatch, name, integrand):
        p = {**PAIR_RULE_PARTITIONS, **SWEEP_PARTITIONS}[name]
        pairs = list(zip(p.cells, p.cells))
        calls = []
        original = getattr(partitions_module, integrand)

        def counted(*args):
            calls.append(np.shape(args[-1]))
            return original(*args)

        monkeypatch.setattr(partitions_module, integrand, counted)
        rows = stability_module._pair_rule(pairs, PAIR_RULE_GRID, drho=True)
        assert calls == [(len(PAIR_RULE_GRID),)]
        monkeypatch.undo()
        for rho, row in zip(PAIR_RULE_GRID, rows):
            one = stability_module._pair_rule(pairs, [rho], drho=True)[0]
            assert row.method == QUADRATURE
            assert _bits(row.value, row.std_error) == _bits(one.value, one.std_error)
            total = err = 0.0
            for a, b in pairs:
                v, e = a.pair_drho_exact(b, rho)
                total, err = total + v, err + e
            assert _bits(row.value, row.std_error) == _bits(total, err)

    def test_drho_is_one_integrand_call_per_stencil_point(self, monkeypatch):
        # the mixed derivative's 4 stencil points and the second derivative's 5
        calls = []
        original = partitions_module._plackett_integrand

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(partitions_module, "_plackett_integrand", counted)
        hyperstability_probe(simplex_cone_partition(3), 0.5, TranslationField([1.0, 0.3]),
                             mode="quadrature", volume_policy="skip")
        assert len(calls) == 9


_SHIFTED_R3 = SWEEP_PARTITIONS["shifted-cones-R3"]
#: argmax partition pairs; the negated cones have their own generators
KERNEL_PAIRS = {
    "shifted-cones-R3": (_SHIFTED_R3, _SHIFTED_R3),
    "simplex-cones-R3": (_R3_CONES, _R3_CONES),
    "cones-vs-negated-R3": (_R3_CONES, _R3_CONES.negated()),
    "planar-vs-shifted": (simplex_cone_partition(3),
                          simplex_cone_partition(3).translated([0.3, -0.2])),
}


class TestScoreKernel:
    """Argmax partitions are counted in score space: on identical draws the
    agreements are the membership path's, and no membership call is made."""

    @pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
    def test_agreements_match_the_membership_path(self, name):
        p, q = KERNEL_PAIRS[name]
        rhos = [0.0, -0.4, 0.9, 0.3]
        kernel = agreement_values(p, q, rhos)(np.random.default_rng(1), 50_000)
        member = stability_module._pair_values(p.membership, lambda cx, y: cx == q.membership(y),
                                               rhos, p.dim)(np.random.default_rng(1), 50_000)
        assert kernel.dtype == bool and kernel.shape == (50_000, 4)
        assert np.array_equal(kernel, member)

    def test_bilinear_against_the_negated_cones_is_the_membership_estimate(self):
        p, q = KERNEL_PAIRS["cones-vs-negated-R3"]
        est = bilinear_stability(p, q, 0.35, 300_000, seed=11, mode="monte-carlo")
        member = mc_mean(stability_module._pair_values(
            p.membership, lambda cx, y: cx == q.membership(y), [0.35], p.dim), 300_000, seed=11)
        assert (est.value, est.std_error) == (member.value[0], member.std_error[0])
        # recorded on the membership path
        assert (est.value, est.std_error) == (0.13693666666666668, 0.000627655452033612)

    def test_seeded_shard_means_and_second_difference_do_not_move(self):
        # recorded on the membership path
        means, shard = mc_shard_means(agreement_values(_SHIFTED_R3, _SHIFTED_R3, [0.3, 0.9]),
                                      64_000, seed=8, n_shards=4)
        assert shard == 16_000 and means.tolist() == [
            [0.380625, 0.7564375], [0.3789375, 0.7559375], [0.3735, 0.7544375],
            [0.3751875, 0.75375]]
        est = stability_second_derivative(_R3_CONES, 0.5, TranslationField([1.0, 0.5, 0.0]),
                                          budget=400_000, seed=5, mode="monte-carlo")
        assert (est.value, est.std_error, est.samples) == (
            0.026999999999998546, 0.1313128174347715, 400_000)

    @pytest.mark.parametrize("name", sorted(KERNEL_PAIRS))
    def test_threads_do_not_change_a_value(self, name):
        p, q = KERNEL_PAIRS[name]
        one, two = (mc_mean(agreement_values(p, q, [-0.3, 0.6]), 140_000, seed=2, threads=t)
                    for t in (1, 2))
        assert np.array_equal(one.value, two.value)
        assert np.array_equal(one.std_error, two.std_error)
        field = TranslationField(np.eye(p.dim)[0])
        one, two = (stability_second_derivative(p, 0.6, field, budget=64_000, seed=3, n_shards=4,
                                                threads=t, mode="monte-carlo") for t in (1, 2))
        assert one == two

    def test_argmax_partitions_make_no_membership_call(self, monkeypatch):
        calls = []
        original = PartitionSpec.membership

        def counted(self, points):
            calls.append(len(points))
            return original(self, points)

        monkeypatch.setattr(PartitionSpec, "membership", counted)
        stability_sweep(_R4_CONES, [0.3, 0.9], 50_000, seed=1)
        stability_sweep(cylinder_extend(_R4_CONES, 2), [0.3, 0.9], 50_000, seed=1)
        bilinear_stability(*KERNEL_PAIRS["cones-vs-negated-R3"], 0.4, 50_000, seed=2,
                           mode="monte-carlo")
        stability_second_derivative(_R3_CONES, 0.5, TranslationField([1.0, 0.5, 0.0]),
                                    budget=32_000, seed=3, mode="monte-carlo")
        assert calls == []
        # cells that are not one argmax still classify every X and Y
        partition_stability(three_sectors_120(), 0.5, 1_000, seed=4, mode="monte-carlo")
        assert calls == [1_000, 1_000]

    def test_duplicate_generators_keep_first_claim(self, monkeypatch):
        # a repeated generator makes a null cell, whose ties have full measure
        # and go to the first copy; score space would light both copies
        z = simplex_generators(3, 2)
        dup = PartitionSpec([ConeCell(np.vstack([z, z[:1]]), k) for k in range(4)])
        other = PartitionSpec([ConeCell(np.vstack([z, -z[:1]]), k) for k in range(4)])
        for p, q in ((dup, dup), (other, dup), (dup, other)):
            vals = agreement_values(p, q, [0.5])(np.random.default_rng(5), 1_000)
            member = stability_module._pair_values(
                p.membership, lambda cx, y: cx == q.membership(y), [0.5], 2)(
                np.random.default_rng(5), 1_000)
            assert np.array_equal(vals, member)

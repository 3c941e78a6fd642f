"""Tests for the variational identities and their finite-difference oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from noiselab.gauss import (
    DomainError,
    SignedDifference,
    ou_rho_derivative_heat,
)
from noiselab.partitions import (
    BoundaryPoint,
    Facet,
    cone_partition,
    halfspace_partition,
    perturbed_simplex_cones,
    sector_partition,
    simplex_cone_partition,
    simplex_generators,
)
import noiselab.variation as variation_module
from noiselab.variation import (
    DilationField,
    NormalScalarField,
    TranslationField,
    VolumeConditionError,
    bilinear_second_derivative,
    bilinear_translation_form,
    bilinear_variation_suite,
    cell_volume_rates,
    check_volume_condition,
    dilation_eigen_residual,
    first_variation_constancy,
    gradient_difference,
    hyperstability_probe,
    s_operator,
    second_variation_general,
    second_variation_translation,
    sij_operator,
    stability_second_derivative,
    t_difference,
    translation_eigen_residual,
)

from helpers import g_form, random_orthogonal

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


class TestFirstVariation:
    def test_halfspace_constant_matches_closed_form(self):
        # on the hyperplane x1 = a: c = 2 Phi(a (1-rho)/sqrt(1-rho^2)) - 1
        a, rho = 0.5, 0.4
        p = halfspace_partition([1.0, 0.0], a)
        rep = first_variation_constancy(p, rho, 0, 1, 30, seed=1)
        expect = 2 * float(ndtr(a * (1 - rho) / math.sqrt(1 - rho * rho))) - 1
        assert rep.mean == pytest.approx(expect, abs=1e-10)
        assert rep.max_deviation <= 3 * rep.pointwise_error

    def test_cones_constant_zero_by_symmetry(self):
        # reflecting across an interface swaps the two cones, forcing c = 0
        p = simplex_cone_partition(3)
        for (i, j) in ((0, 1), (1, 2)):
            rep = first_variation_constancy(p, 0.5, i, j, 50, seed=2)
            assert abs(rep.mean) <= 3 * rep.pointwise_error
            assert rep.max_deviation <= 3 * rep.pointwise_error

    def test_perturbed_cones_flagged(self):
        p = perturbed_simplex_cones(3, angle_deg=5.0)
        rep = first_variation_constancy(p, 0.5, 0, 1, 50, seed=3)
        assert rep.max_deviation > 3 * rep.pointwise_error
        assert rep.max_deviation > 1e-4

    def test_monte_carlo_mode(self):
        p = simplex_cone_partition(3)
        rep = first_variation_constancy(p, 0.5, 0, 1, 10, budget=100_000, seed=4,
                                        mode="monte-carlo")
        assert abs(rep.mean) <= 3 * rep.pointwise_error

    @pytest.mark.parametrize("p", [perturbed_simplex_cones(3, angle_deg=5.0),
                                   halfspace_partition([1.0, 2.0], 0.3)],
                             ids=["perturbed-cones", "halfspaces"])
    def test_one_batched_call_gives_the_per_point_values(self, monkeypatch, p):
        calls = []
        original = variation_module.t_difference
        monkeypatch.setattr(variation_module, "t_difference",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        rep = first_variation_constancy(p, 0.7, 0, 1, 40, seed=5)
        assert calls == []  # the closed form took the whole sample at once
        monkeypatch.undo()
        singles = [t_difference(p, 0, 1, 0.7, x) for x in rep.points]
        assert all(e.method == "quadrature" for e in singles)
        assert np.allclose(rep.values, [e.value for e in singles], rtol=0, atol=1e-15)
        assert rep.pointwise_error == max(e.std_error for e in singles)

    def test_monte_carlo_keeps_the_per_point_seeds(self):
        p = simplex_cone_partition(3)
        rep = first_variation_constancy(p, 0.5, 0, 1, 3, budget=20_000, seed=6,
                                        mode="monte-carlo")
        singles = [t_difference(p, 0, 1, 0.5, x, budget=20_000, seed=[6, k], mode="monte-carlo")
                   for k, x in enumerate(rep.points)]
        assert rep.values.tolist() == [e.value for e in singles]
        assert rep.pointwise_error == max(e.std_error for e in singles)


class TestSurfaceOperator:
    def test_halfspace_normalization(self):
        # S(<e1, N>)(0) on the boundary of {x1 <= 0} in R^2 at rho = 0.6
        p = halfspace_partition([1.0, 0.0], 0.0)
        bs = p.boundary_sample(0, 1, 6000, seed=5)
        field = TranslationField([1.0, 0.0])
        est = s_operator(bs, 0.6, field, np.zeros(2))
        expect = PHI0 / math.sqrt(1 - 0.36)  # 0.498678...
        assert expect == pytest.approx(0.49867785050179086, abs=1e-12)
        assert est.value == pytest.approx(expect, abs=3 * est.std_error)

    def test_boundary_points_give_the_sample_value(self):
        bs = simplex_cone_partition(3).boundary_sample(0, 1, 300, seed=9)
        field, x = TranslationField([0.3, -0.8]), np.array([0.2, 0.1])
        pts = [BoundaryPoint(bs.points[k], bs.normals[k], bs.interface, float(bs.weights[k]))
               for k in range(len(bs))]
        est = s_operator(pts, 0.6, field, x)
        assert est.value == s_operator(bs, 0.6, field, x).value
        assert est.samples == len(bs) and est.method == "monte-carlo"

    def test_zero_field_gives_zero(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        bs = p.boundary_sample(0, 1, 200, seed=6)
        est = s_operator(bs, 0.6, NormalScalarField(lambda pts, nms: 0.0 * pts[:, 0]),
                         np.zeros(2))
        assert est.value == 0.0

    def test_missing_weights_rejected(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        bs = p.boundary_sample(0, 1, 50, seed=7)
        bs.weights = -bs.weights
        with pytest.raises(DomainError):
            s_operator(bs, 0.5, TranslationField([1.0, 0.0]), np.zeros(2))

    def test_sij_quadrature_matches_mc(self):
        p = simplex_cone_partition(3)
        x = p.boundary_sample(0, 1, 1, seed=8).points[0]
        field = TranslationField([0.3, -0.8])
        quad = sij_operator(p, 0.5, 0, 1, field, x)
        mc = sij_operator(p, 0.5, 0, 1, field, x, mode="monte-carlo", budget=100_000, seed=9)
        assert abs(quad.value - mc.value) <= 3 * mc.std_error + 1e-8

    @pytest.mark.parametrize("field", [
        TranslationField([0.3, -0.8]),
        DilationField(),
        NormalScalarField(lambda pts, nms: np.sin(pts[:, 0]) + pts[:, 1] ** 2),
    ], ids=["constant", "dilation", "callback"])
    def test_sij_line_rule_on_shifted_sectors_matches_mc(self, field):
        # ray facets from a shifted apex: the closed form for a constant
        # field, the batched line rule otherwise
        p = sector_partition([0.3, 2.1, 4.4]).translated([0.25, -0.4])
        x = np.array([0.5, 0.1])
        quad = sij_operator(p, 0.6, 0, 1, field, x)
        mc = sij_operator(p, 0.6, 0, 1, field, x, mode="monte-carlo", budget=200_000, seed=31)
        assert quad.method == "quadrature" and quad.std_error <= 1e-12
        assert mc.method == "monte-carlo"
        assert abs(quad.value - mc.value) <= 4 * mc.std_error

    def test_sampled_facets_report_monte_carlo(self):
        # shifted cones in R^3 have only generic facets, which no rule covers:
        # "auto" samples them exactly as "monte-carlo" does, facet-mass error
        # included (the parent reported 0.596017 +- 7.8e-4 as quadrature)
        p = simplex_cone_partition(3, 3).translated([0.2, -0.1, 0.3])
        field, x = TranslationField([1.0, 0.0, 0.0]), np.zeros(3)
        auto = sij_operator(p, 0.5, 0, 1, field, x)
        mc = sij_operator(p, 0.5, 0, 1, field, x, mode="monte-carlo")
        assert auto == mc
        assert auto.value == 0.5960166758515769
        assert auto.method == "monte-carlo" and auto.samples > 0
        assert auto.std_error > 2e-3
        with pytest.raises(DomainError):
            sij_operator(p, 0.5, 0, 1, field, x, mode="quadrature")


class TestPlanarConeFacets:
    """A field constant on a facet of a cone in R^3 has S in closed form: the
    constant times the facet's Gaussian mass under N(rho x, (1 - rho^2) I)."""

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_constant_field_against_monte_carlo(self, rotated, rho):
        p = simplex_cone_partition(4)
        if rotated:
            p = p.rotated(random_orthogonal(3, np.random.default_rng(5)))
        field, x = TranslationField([0.6, -0.3, 0.2]), np.array([0.3, -0.2, 0.1])
        exact = sij_operator(p, rho, 0, 1, field, x)
        assert exact.method == "quadrature" and exact.samples == 0
        assert exact.std_error <= 1e-11
        mc = sij_operator(p, rho, 0, 1, field, x, mode="monte-carlo", budget=400_000, seed=7)
        assert mc.method == "monte-carlo"
        assert abs(exact.value - mc.value) <= 4 * mc.std_error

    def test_two_halfspaces_take_s_in_closed_form(self):
        # the plane through the origin is one planar-cone facet; S of the
        # translation field is exact, and only the outer facet integrals sample
        p = cone_partition([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        est = second_variation_general(p, 0.5, TranslationField([1.0, 0.0, 0.0]), budget=20_000,
                                       seed=12, volume_policy="skip")
        assert est.samples == 2 * 200


class TestTranslationEigenIdentity:
    @pytest.mark.parametrize("a", [0.0, 0.5])
    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_halfspace_closed_forms(self, a, rho):
        p = halfspace_partition([1.0, 0.0], a)
        rep = translation_eigen_residual(p, rho, [1.0, 0.0], 0, 1, 8, seed=10)
        assert rep.max_residual <= 1e-6

    def test_tangential_direction_trivial(self):
        p = halfspace_partition([1.0, 0.0], 0.3)
        rep = translation_eigen_residual(p, 0.5, [0.0, 1.0], 0, 1, 6, seed=11)
        assert np.allclose(rep.lhs, 0.0, atol=1e-12)
        assert np.allclose(rep.rhs, 0.0, atol=1e-12)

    def test_cones_with_generator_direction(self):
        p = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            rep = translation_eigen_residual(p, 0.5, z[0], i, j, 12, seed=12)
            assert rep.max_residual <= rep.tolerance


class TestDilationEigenIdentity:
    def test_halfspace_through_origin_all_terms_vanish(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        rep = dilation_eigen_residual(p, 0.5, 0, 1, 6, seed=14)
        assert np.allclose(rep.lhs, 0.0, atol=1e-9)
        assert np.allclose(rep.rhs, 0.0, atol=1e-9)

    def test_offset_halfspace_nonzero_terms(self):
        # identity verified in closed form: on x1 = 1 both sides equal
        # 2 a phi(u) (1 - rho) / sqrt(1 - rho^2), u = a sqrt((1-rho)/(1+rho))
        a, rho = 1.0, 0.5
        p = halfspace_partition([1.0, 0.0], a)
        rep = dilation_eigen_residual(p, rho, 0, 1, 8, seed=15)
        u = a * math.sqrt((1 - rho) / (1 + rho))
        expect_lhs = 2 * a * phi(u) * (1 - rho) / math.sqrt(1 - rho * rho)
        assert rep.max_residual <= rep.tolerance
        assert rep.lhs[0] == pytest.approx(expect_lhs, abs=1e-6)
        assert abs(rep.rhs[0]) > 0.1

    def test_cones_reduced_identity(self):
        # <x, N> = 0 on cone interfaces, so the identity reduces to
        # S_ij(<., N>) = (1/rho^2 - 1) rho dT/drho, both sides near zero
        p = simplex_cone_partition(3)
        rep = dilation_eigen_residual(p, 0.5, 0, 1, 20, seed=16)
        assert rep.max_residual <= rep.tolerance
        assert np.max(np.abs(rep.lhs)) <= 1e-10

    def test_cones_near_rho_one(self):
        # the rho-stencil of the parent stepped out of (-1, 1) here and raised
        rep = dilation_eigen_residual(simplex_cone_partition(3), 0.9999, 0, 1, 8, mode="quadrature")
        assert rep.max_residual <= 1e-12 and rep.max_residual <= rep.tolerance

    def test_closed_form_rhs_is_one_batched_call(self, monkeypatch):
        calls = []
        real = variation_module.ou_rho_derivative_exact

        def counted(set_spec, rho, x):
            calls.append(np.shape(x))
            return real(set_spec, rho, x)

        monkeypatch.setattr(variation_module, "ou_rho_derivative_exact", counted)
        rep = dilation_eigen_residual(halfspace_partition([1.0, 0.0], 1.0), 0.5, 0, 1, 8, seed=15)
        assert calls == [(8, 2)] and rep.max_residual <= 1e-12

    def test_cones_against_independent_mc_estimator(self):
        p = simplex_cone_partition(3)
        rep = dilation_eigen_residual(p, 0.5, 0, 1, 5, budget=400_000, seed=17,
                                      rhs_mode="monte-carlo")
        assert rep.max_residual <= rep.tolerance


class TestSignConditions:
    def test_gradient_points_against_normal_on_maximizing_candidates(self):
        # at stability-critical partitions grad T_rho(1_i - 1_j) = -N_ij ||grad||
        from noiselab.variation import gradient_difference

        for p in (halfspace_partition([1.0, 0.0], 0.0), simplex_cone_partition(3)):
            for (i, j) in ((0, 1),):
                bs = p.boundary_sample(i, j, 20, seed=60)
                for k in range(len(bs)):
                    g = gradient_difference(p, i, j, 0.5, bs.points[k])
                    inner = float(g.value @ bs.normals[k])
                    tangential = np.linalg.norm(g.value - inner * bs.normals[k])
                    assert inner < 0
                    assert tangential <= 1e-6 + float(np.sum(g.std_error))

    def test_bilinear_pair_flips_the_sign(self):
        # for the reflected minimizing pair the gradient points along +N'
        from noiselab.variation import gradient_difference

        p = simplex_cone_partition(3)
        q = p.negated()
        bs = q.boundary_sample(0, 1, 20, seed=61)
        for k in range(len(bs)):
            g = gradient_difference(p, 0, 1, 0.5, bs.points[k])
            assert float(g.value @ bs.normals[k]) > 0


class TestVolumeCondition:
    def test_tangential_translation_preserves(self):
        p = halfspace_partition([1.0, 0.0], 0.3)
        status = check_volume_condition(p, TranslationField([0.0, 1.0]))
        assert status == "volume-preserved"

    def test_normal_translation_on_cones_accepted_as_critical(self):
        p = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        rates, errs = cell_volume_rates(p, TranslationField(z[0]))
        assert np.max(np.abs(rates)) > 1e-3  # volumes do move at first order
        status = check_volume_condition(p, TranslationField(z[0]), rho=0.5)
        assert status == "critical-partition"

    def test_perturbed_cones_rejected(self):
        p = perturbed_simplex_cones(3, angle_deg=5.0)
        z = simplex_generators(3, 2)
        with pytest.raises(VolumeConditionError):
            check_volume_condition(p, TranslationField(z[0]), rho=0.5)

    def test_dilation_field_on_cones_preserves(self):
        p = simplex_cone_partition(3)
        status = check_volume_condition(p, DilationField())
        assert status == "volume-preserved"


class TestSecondVariationTranslation:
    def test_halfspace_tangential_field_zero(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        est = second_variation_translation(p, 0.5, [0.0, 1.0], seed=18)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_halfspace_closed_form_value(self, rho):
        # (1/2) d^2/ds^2 = (1/pi) (1 - rho) / sqrt(1 - rho^2) for the
        # measure-1/2 pair translated normally (independent derivation from
        # the bivariate CDF)
        p = halfspace_partition([1.0, 0.0], 0.0)
        est = second_variation_translation(p, rho, [1.0, 0.0], seed=19)
        expect = (1 / math.pi) * (1 - rho) / math.sqrt(1 - rho * rho)
        assert est.value == pytest.approx(expect, abs=1e-7)

    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_matches_finite_difference_oracle_m2(self, rho):
        p = halfspace_partition([1.0, 0.0], 0.0)
        closed = second_variation_translation(p, rho, [1.0, 0.0], seed=20)
        fd = stability_second_derivative(p, rho, TranslationField([1.0, 0.0]))
        assert abs(2 * closed.value - fd.value) <= 3 * (2 * closed.std_error + fd.std_error)

    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_matches_finite_difference_oracle_m3(self, rho):
        p = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        closed = second_variation_translation(p, rho, z[0], seed=21)
        fd = stability_second_derivative(p, rho, TranslationField(z[0]))
        assert closed.value > 0
        assert abs(2 * closed.value - fd.value) <= 3 * (2 * closed.std_error + fd.std_error)

    def test_monte_carlo_oracle_shared_seeds(self):
        # coarse-step shared-seed Monte Carlo second difference agrees too
        p = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        rho = 0.5
        closed = second_variation_translation(p, rho, z[0], seed=22)
        fd = stability_second_derivative(p, rho, TranslationField(z[0]),
                                         mode="monte-carlo", budget=3_000_000, seed=23)
        assert abs(2 * closed.value - fd.value) <= 3 * (2 * closed.std_error + fd.std_error)

    def test_volume_violation_rejected(self):
        p = perturbed_simplex_cones(3, angle_deg=5.0)
        with pytest.raises(VolumeConditionError):
            second_variation_translation(p, 0.5, [1.0, 0.0], seed=24)


class TestSecondVariationGeneral:
    def test_tangential_translation_trivial(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        est = second_variation_general(p, 0.5, TranslationField([0.0, 1.0]), seed=25)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_shear_mode_is_flat(self):
        # f = x2 on the boundary corresponds to rotating the half-plane:
        # the second variation vanishes identically
        p = halfspace_partition([1.0, 0.0], 0.0)
        f = NormalScalarField(lambda pts, nms: pts[:, 1])
        est = second_variation_general(p, 0.4, f, seed=26)
        assert abs(est.value) <= 3 * est.std_error + 1e-9

    def test_quadratic_mode_strictly_negative(self):
        # f = x2^2 - 1: value = 2 phi(0)^2 rho (rho - 1)/sqrt(1 - rho^2) < 0
        rho = 0.4
        p = halfspace_partition([1.0, 0.0], 0.0)
        f = NormalScalarField(lambda pts, nms: pts[:, 1] ** 2 - 1.0)
        est = second_variation_general(p, rho, f, seed=27)
        expect = 2 * PHI0**2 * rho * (rho - 1) / math.sqrt(1 - rho * rho)
        assert est.value == pytest.approx(expect, abs=1e-9)
        assert est.value < 0

    def test_multicell_dilation_field_on_cones(self):
        # the dilation-weighted field vanishes on cone interfaces
        p = simplex_cone_partition(3)
        est = second_variation_general(p, 0.5, DilationField(), seed=28)
        assert abs(est.value) <= 3 * est.std_error + 1e-12

    @pytest.mark.parametrize("rho", [0.3, 0.9, 0.9999])
    def test_g_form_hermite_closed_form(self, rho):
        # f = He_k(x2) on the line x1 = 0: S(f) = phi(0)/sigma rho^k He_k there,
        # so the form is phi(0)^2 k! rho^k / sqrt(1 - rho^2); at rho = 0.9999
        # the kernel is about 0.014 wide
        p = halfspace_partition([1.0, 0.0], 0.0)
        hermite = {1: lambda t: t, 2: lambda t: t * t - 1.0, 3: lambda t: t**3 - 3.0 * t}
        for k, he in hermite.items():
            est = g_form(p, rho, NormalScalarField(lambda pts, nms, he=he: he(pts[:, 1])))
            expect = PHI0**2 * math.factorial(k) * rho**k / math.sqrt((1 - rho) * (1 + rho))
            assert abs(est.value - expect) <= 1e-12
            assert est.method == "quadrature"

    def test_sampled_gradients_report_monte_carlo(self):
        # the exact gradients give 0.0894702; sampled ones move the value (by
        # 8.7e-5 at budget 200,000), so they must make the form Monte Carlo
        # and their standard errors must cover the move
        p = halfspace_partition([1.0, 0.0], 0.2)
        field = TranslationField([1.0, 0.0])
        exact = second_variation_general(p, 0.5, field, seed=15, volume_policy="skip")
        mc = second_variation_general(p, 0.5, field, mode="monte-carlo", budget=50_000, seed=15,
                                      volume_policy="skip")
        assert exact.method == "quadrature" and exact.std_error <= 1e-13
        assert exact.value == pytest.approx(0.0894702, abs=1e-7)
        assert mc.method == "monte-carlo" and mc.samples >= 50_000
        assert abs(mc.value - exact.value) <= mc.std_error

    @pytest.mark.parametrize("form", [
        lambda p, mode: second_variation_translation(p, 0.5, [1.0, 0.0], budget=50_000, seed=16,
                                                     mode=mode, volume_policy="skip"),
        lambda p, mode: bilinear_translation_form(p, p.negated(), 0.5, [1.0, 0.0], budget=50_000,
                                                  seed=16, mode=mode),
    ], ids=["translation", "bilinear"])
    def test_translation_forms_with_sampled_gradients(self, form):
        p = halfspace_partition([1.0, 0.0], 0.2)
        exact, mc = form(p, "auto"), form(p, "monte-carlo")
        assert exact.method == "quadrature" and exact.samples == 0
        assert mc.method == "monte-carlo" and mc.samples >= 50_000
        assert abs(mc.value - exact.value) <= 3 * mc.std_error

    def test_two_cell_form_samples_s_in_monte_carlo_mode(self, monkeypatch):
        # the G-form's S follows the caller's mode: "monte-carlo" samples the
        # facets of S (the outer line rule and the gradients draw no facet points)
        sampled = []
        real_sample = Facet.sample

        def counting_sample(self, rng, n):
            sampled.append(n)
            return real_sample(self, rng, n)

        monkeypatch.setattr(Facet, "sample", counting_sample)
        p = halfspace_partition([1.0, 0.0], 0.2)
        field = TranslationField([1.0, 0.0])
        second_variation_general(p, 0.5, field, budget=20_000, seed=3, volume_policy="skip")
        assert sampled == []
        second_variation_general(p, 0.5, field, mode="monte-carlo", budget=20_000, seed=3,
                                 volume_policy="skip")
        assert sampled == [20_000]

    def test_g_form_positivity(self):
        # the double-surface kernel form is positive semidefinite
        p = halfspace_partition([1.0, 0.0], 0.0)
        rng = np.random.default_rng(29)
        for k in range(10):
            c = rng.standard_normal(3)
            f = NormalScalarField(
                lambda pts, nms, c=c: c[0] * pts[:, 1]
                + c[1] * (pts[:, 1] ** 2 - 1.0)
                + c[2] * np.sin(pts[:, 1])
            )
            est = g_form(p, 0.5, f, seed=k)
            assert est.value >= -3 * est.std_error


class TestHyperstabilityProbe:
    def test_cones_dilation_field(self):
        p = simplex_cone_partition(3)
        rep = hyperstability_probe(p, 0.5, DilationField(), seed=30)
        assert abs(rep.second_s.value) <= 3 * rep.second_s.std_error
        assert abs(rep.mixed_s_rho.value) <= 3 * rep.mixed_s_rho.std_error
        # matches the closed-form quadratic-form assembly (both are zero)
        assembly = second_variation_general(p, 0.5, DilationField(), seed=31)
        assert abs(rep.second_s.value - 2 * assembly.value) <= (
            3 * (rep.second_s.std_error + 2 * assembly.std_error)
        )

    def test_cones_translation_mixed_vanishes(self):
        p = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        rep = hyperstability_probe(p, 0.5, TranslationField(z[0]), seed=32)
        assert abs(rep.mixed_s_rho.value) <= 3 * rep.mixed_s_rho.std_error

    def test_opposing_halfspaces_tangential_field(self):
        p = halfspace_partition([1.0, 0.0], 0.0)
        rep = hyperstability_probe(p, 0.5, TranslationField([0.0, 1.0]), seed=33)
        assert rep.second_s.value == pytest.approx(0.0, abs=3 * rep.second_s.std_error)
        assert rep.mixed_s_rho.value == pytest.approx(0.0, abs=3 * rep.mixed_s_rho.std_error)

    def test_perturbed_cones_negative_control(self):
        p = perturbed_simplex_cones(3, angle_deg=5.0)
        z = simplex_generators(3, 2)
        rep = hyperstability_probe(p, 0.5, TranslationField(z[0]), seed=34,
                                   volume_policy="skip")
        assert rep.second_s.value > 3 * rep.second_s.std_error
        assert abs(rep.mixed_s_rho.value) > 3 * rep.mixed_s_rho.std_error

    def test_monte_carlo_route(self):
        p = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        quad = hyperstability_probe(p, 0.5, TranslationField(z[0]), seed=35)
        mc = hyperstability_probe(p, 0.5, TranslationField(z[0]), mode="monte-carlo",
                                  budget=3_000_000, seed=36)
        assert abs(mc.second_s.value - quad.second_s.value) <= (
            3 * (mc.second_s.std_error + quad.second_s.std_error)
        )

    @pytest.mark.parametrize("mode", ["quadrature", "monte-carlo"])
    @pytest.mark.parametrize("rho", [-0.5, 5e-4])
    def test_rho_step_validation(self, rho, mode):
        # the sampled rho step 1e-3 (1 - |rho|) must keep rho -+ step inside (0, 1)
        p = simplex_cone_partition(3)
        with pytest.raises(DomainError, match="rho step"):
            hyperstability_probe(p, rho, DilationField(), mode=mode, seed=37)


class TestBilinearSuite:
    def test_one_dimensional_pair_eigen_identity(self):
        p = halfspace_partition([1.0], 0.0)
        q = p.negated()
        rep = bilinear_variation_suite(p, q, 0.5, v=[1.0], seed=38)
        assert rep.eigen_max_residual <= 1e-6
        # gradient points along +N' (the sign flips against the one-partition case)
        assert rep.sign_min_normal_component > 0
        assert rep.sign_max_tangential <= 1e-9

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_translation_form_value_and_sign(self, rho):
        # analytic value for opposing half-lines: -(2/pi) sqrt((1-rho)/(1+rho))
        p = halfspace_partition([1.0], 0.0)
        q = p.negated()
        form = bilinear_translation_form(p, q, rho, [1.0], seed=39)
        expect = -(2 / math.pi) * math.sqrt((1 - rho) / (1 + rho))
        assert form.value == pytest.approx(expect, abs=1e-8)
        assert form.value < 0

    def test_translation_form_matches_fd(self):
        p = halfspace_partition([1.0], 0.0)
        q = p.negated()
        form = bilinear_translation_form(p, q, 0.5, [1.0], seed=40)
        fd = bilinear_second_derivative(p, q, 0.5, [1.0], seed=41)
        assert abs(form.value - fd.value) <= 3 * (form.std_error + fd.std_error)

    def test_suite_on_planar_cones(self):
        p = simplex_cone_partition(3)
        q = p.negated()
        rep = bilinear_variation_suite(p, q, 0.5, v=simplex_generators(3, 2)[0],
                                       n_points=6, seed=42)
        assert rep.eigen_max_residual <= rep.eigen_tolerance
        assert rep.sign_min_normal_component > 0
        assert rep.translation_form.value < 0
        assert abs(rep.translation_form.value - rep.translation_fd.value) <= (
            3 * (rep.translation_form.std_error + rep.translation_fd.std_error)
        )

    def test_measure_constraint_enforced(self):
        p = halfspace_partition([1.0], 0.0)
        q = halfspace_partition([1.0], 0.6)
        with pytest.raises(DomainError):
            bilinear_variation_suite(p, q, 0.5, seed=43)


class TestSeededDifferences:
    """Seeded Monte Carlo literals recorded before T_rho(1_i - 1_j) went
    through the gauss operators; the draws and their reduction are unchanged."""

    P = simplex_cone_partition(3)
    X = [0.3, -0.4]

    def test_t_difference(self):
        est = t_difference(self.P, 0, 1, 0.5, self.X, budget=200_000, seed=11, mode="monte-carlo")
        assert (est.value, est.std_error, est.samples) == (-0.07479, 0.0019376663934370282, 200_000)

    def test_gradient_difference(self):
        est = gradient_difference(self.P, 0, 1, 0.5, self.X, budget=200_000, seed=12,
                                  mode="monte-carlo")
        assert est.value.tolist() == [-0.3674159760324405, -0.08555758843995528]
        assert est.std_error.tolist() == [0.0008517545293619499, 0.0009686849463853197]
        assert est.samples == 200_000

    def test_heat_route_of_the_difference(self):
        diff = SignedDifference(self.P.cells[0], self.P.cells[1])
        est = ou_rho_derivative_heat(diff, 0.5, self.X, 200_000, seed=13)
        assert (est.value, est.std_error) == (-0.20321017912000186, 0.0024461291099945885)


class TestSharedSeedBudget:
    def test_non_positive_budget_rejected(self):
        p = simplex_cone_partition(3)
        for budget in (0, -1):
            with pytest.raises(DomainError):
                stability_second_derivative(p, 0.5, TranslationField([1, 0]), budget=budget,
                                            mode="monte-carlo")

    def test_samples_report_the_draws_made(self):
        # 1000 draws split into 32 shards of 31 make 992 draws per grid point
        p = simplex_cone_partition(3)
        z = p.cells[0].generators
        d2s = stability_second_derivative(p, 0.5, TranslationField([1.0, 0.0]), budget=1000,
                                          seed=5, mode="monte-carlo")
        assert d2s.samples == 992
        # value recorded when this estimate still reported samples=1000
        assert (d2s.value, d2s.std_error) == (1.209677419354842, 2.039334366489916)
        rep = hyperstability_probe(p, 0.5, TranslationField(z[0]), budget=1000, seed=23,
                                   mode="monte-carlo")
        assert rep.second_s.samples == rep.mixed_s_rho.samples == 992
        q = halfspace_partition([1.0, 0.0], 0.0)
        fd = bilinear_second_derivative(q, q.negated(), 0.5, [1.0, 0.0], budget=1000, seed=24,
                                        mode="monte-carlo")
        assert fd.samples == 992
        assert stability_second_derivative(p, 0.5, TranslationField(z[0]), budget=40,
                                           mode="monte-carlo").samples == 32

    def test_mixed_stencil_values_recorded_per_grid_point(self):
        # recorded when each (s, rho) point of the stencil drew its own pairs;
        # now each flowed partition serves both its rhos from one stream
        p = simplex_cone_partition(3)
        z = p.cells[0].generators
        rep = hyperstability_probe(p, 0.5, TranslationField(z[0]), budget=20_000, seed=23,
                                   mode="monte-carlo")
        assert (rep.mixed_s_rho.value, rep.mixed_s_rho.std_error, rep.mixed_s_rho.samples) == (
            -0.999999999999994, 1.2338119150962854, 20_000)
        assert (rep.second_s.value, rep.second_s.std_error) == (
            -0.05999999999999048, 0.5774950911431409)
        q = simplex_cone_partition(4)
        rep = hyperstability_probe(q, 0.5, TranslationField([1.0, 0.0, 0.0]), budget=20_000,
                                   seed=3, mode="monte-carlo")
        assert (rep.mixed_s_rho.value, rep.mixed_s_rho.std_error) == (
            -1.999999999999953, 1.8690130505147597)

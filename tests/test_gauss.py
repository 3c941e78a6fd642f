"""Tests for densities, correlated sampling, the kernel, and T_rho."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, owens_t

from noiselab.gauss import (
    Correlation,
    DomainError,
    Estimate,
    bivariate_normal_cdf,
    gaussian_density,
    kernel_g,
    mehler_kernel,
    ou_apply,
    ou_divergence_mc,
    ou_gradient,
    ou_gradient_quadrature,
    ou_rho_derivative,
    sample_correlated_pair,
)
from noiselab.partitions import (
    Complement,
    ConeCell,
    DilationFlowSet,
    ExplicitCell,
    HalfSpace,
    OracleSet,
    ProductWithR,
    Sector2D,
    ShiftedSet,
    _leggauss,
    perturbed_simplex_cones,
    simplex_cone_partition,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TestGaussianDensity:
    def test_standard_values(self):
        assert gaussian_density([0.0]) == pytest.approx(PHI0, abs=1e-12)
        assert gaussian_density([0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)
        # independent scalar computation for a nonzero point
        assert gaussian_density([1.0, 0.0], k=2) == pytest.approx(
            math.exp(-0.5) / (2 * math.pi), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            gaussian_density([1.0, 2.0], k=3)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            gaussian_density([np.nan])


class TestCorrelation:
    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Correlation(bad)

    def test_zero_allowed_but_rejected_where_documented(self):
        Correlation(0.0)  # construction fine
        hs = HalfSpace([1.0], 0.0)
        with pytest.raises(DomainError):
            ou_gradient(hs, 0.0, [0.0])


class TestCorrelatedPairs:
    def test_deterministic_given_seed(self):
        a = sample_correlated_pair(0.3, 2, 100, seed=42)
        b = sample_correlated_pair(0.3, 2, 100, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_independent_at_rho_zero(self):
        x, y = sample_correlated_pair(0.0, 2, 1_000_000, seed=1)
        cov = float(np.mean(x[:, 0] * y[:, 1]))
        assert abs(cov) <= 3.0 / math.sqrt(1_000_000) * 1.1

    def test_moment_matches_rho(self):
        x, y = sample_correlated_pair(0.7, 3, 1_000_000, seed=2)
        emp = float(np.mean(x[:, 0] * y[:, 0]))
        # Var(X1 Y1) = 1 + rho^2, so SE ~ sqrt(1.49)/1000
        assert emp == pytest.approx(0.7, abs=3 * math.sqrt(1.49) / 1000.0)


class TestKernelG:
    def test_value_at_origin(self):
        assert kernel_g([0.0], [0.0], 0.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-14)

    @given(
        st.floats(-0.9, 0.9),
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_positivity(self, rho, x1, x2, y1, y2):
        g1 = kernel_g([x1, x2], [y1, y2], rho)
        g2 = kernel_g([y1, y2], [x1, x2], rho)
        assert g1 == g2
        assert g1 > 0

    def test_three_algebraic_forms_agree(self):
        # d=1, x=y=1, rho=0.5: middle form computed independently
        rho, x, y = 0.5, 1.0, 1.0
        s = 1 - rho * rho
        form2 = (
            s ** (-0.5)
            * phi(x) * phi(y)
            * math.exp((-rho**2 * (x * x + y * y) + 2 * rho * x * y) / (2 * s))
        )
        assert kernel_g([x], [y], rho) == pytest.approx(form2, rel=1e-13)
        # third form: gamma(x) * mehler
        form3 = phi(x) * float(mehler_kernel(np.array([[y]]), np.array([x]), rho)[0])
        assert kernel_g([x], [y], rho) == pytest.approx(form3, rel=1e-13)

    def test_kernel_consistency_with_t_rho(self):
        # integral of G(x, .) over a half-space equals gamma(x) T_rho 1(x)
        rho, a = 0.6, 0.3
        hs = HalfSpace([1.0, 0.0], a)
        x = np.array([0.4, -0.7])
        rng = np.random.default_rng(7)
        n = 400_000
        y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal((n, 2))
        vals = hs.contains(y).astype(float) * gaussian_density(x, 2)
        lhs = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        rhs = gaussian_density(x, 2) * hs.ou_exact(rho, x)[0]
        assert abs(lhs - rhs) <= 3 * se


class TestOuApply:
    def test_halfspace_center_is_half(self):
        hs = HalfSpace([1.0, 0.0], 0.0)
        for rho in (0.2, 0.5, -0.6):
            est = ou_apply(hs, rho, [0.0, 0.0])
            assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_linear_eigenfunction(self):
        # T_rho x1 = rho x1
        f = lambda pts: pts[:, 0]
        for rho, x1 in ((0.3, 0.8), (0.7, -1.2)):
            est = ou_apply(f, rho, [x1, 0.5], budget=10_000)
            assert est.value == pytest.approx(rho * x1, abs=1e-9)

    def test_quadratic_eigenfunction(self):
        # T_rho (x1^2 - 1) = rho^2 (x1^2 - 1)
        f = lambda pts: pts[:, 0] ** 2 - 1.0
        for rho, x1 in ((0.4, 1.3), (0.8, 0.2)):
            est = ou_apply(f, rho, [x1], budget=10_000)
            assert est.value == pytest.approx(rho**2 * (x1**2 - 1), abs=1e-9)

    def test_zero_budget_rejected(self):
        with pytest.raises(DomainError):
            ou_apply(lambda p: p[:, 0], 0.3, [0.0], budget=0)

    def test_monte_carlo_within_error(self):
        hs = HalfSpace([1.0, 0.0], 0.7)
        x = np.array([0.5, 0.1])
        exact = hs.ou_exact(0.45, x)[0]
        est = ou_apply(hs, 0.45, x, budget=400_000, mode="monte-carlo", seed=11)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_indicator_range(self):
        p = simplex_cone_partition(3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(2) * 2
            est = ou_apply(p.cells[0], 0.5, x)
            assert -1e-12 <= est.value <= 1 + 1e-12

    def test_composition(self):
        # T_a (T_b 1_H) = T_{ab} 1_H
        a, b, off = 0.7, 0.6, 0.4
        hs = HalfSpace([1.0, 0.0], off)

        def inner(pts):
            s = math.sqrt(1 - b * b)
            return ndtr((off - b * pts[:, 0]) / s)

        for x in ([0.0, 0.0], [1.1, -0.4], [-0.8, 2.0]):
            composed = ou_apply(inner, a, x, budget=12_000)
            direct = hs.ou_exact(a * b, np.asarray(x))[0]
            assert composed.value == pytest.approx(direct, abs=1e-8)
        # Monte Carlo route at one point
        est = ou_apply(inner, a, [0.5, 0.5], budget=300_000, mode="monte-carlo", seed=9)
        direct = hs.ou_exact(a * b, np.array([0.5, 0.5]))[0]
        assert abs(est.value - direct) <= 3 * est.std_error + 1e-6

    def test_reflection_identity(self):
        # T_rho 1_A(x) = T_{-rho} 1_{-A}(x)
        hs = HalfSpace([1.0, 0.0], 0.8)
        neg = hs.negate()
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(2)
            lhs = hs.ou_exact(0.35, x)[0]
            rhs = neg.ou_exact(-0.35, x)[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)
        cone = simplex_cone_partition(3).cells[1]
        for _ in range(5):
            x = rng.standard_normal(2)
            assert cone.ou_exact(0.45, x)[0] == pytest.approx(
                cone.negate().ou_exact(-0.45, x)[0], abs=1e-10
            )


class TestOuGradient:
    def test_halfspace_closed_form(self):
        # gradient of Phi((a - rho x1)/sigma): (-phi(u) rho / sigma, 0, ...)
        a, rho = 0.0, 0.6
        hs = HalfSpace([1.0, 0.0], a)
        est = ou_gradient(hs, rho, [0.0, 0.0], budget=2_000_000, seed=21)
        expect = -PHI0 * rho / math.sqrt(1 - rho * rho)  # = -0.2992067103010745
        assert expect == pytest.approx(-0.2992067103010745, abs=1e-12)
        assert est.value[0] == pytest.approx(expect, abs=3 * est.std_error[0])
        assert abs(est.value[1]) <= 3 * est.std_error[1]

    def test_full_space_gradient_vanishes(self):
        full = ExplicitCell([], dim=2)
        est = ou_gradient(full, 0.5, [0.3, -0.2], budget=200_000, seed=4)
        assert np.all(np.abs(est.value) <= 3 * est.std_error + 1e-12)

    def test_matches_quadrature_gradient(self):
        # the Monte Carlo moment form against central differences of exact T
        cone = simplex_cone_partition(3).cells[0]
        x = np.array([0.6, 0.4])
        mc = ou_gradient(cone, 0.5, x, budget=2_000_000, seed=8)
        qd = ou_gradient_quadrature(cone, 0.5, x)
        for k in range(2):
            assert abs(mc.value[k] - qd.value[k]) <= 3 * mc.std_error[k] + 1e-6


def _exact_cells():
    """One cell of every kind with an exact T_rho route, with its dimension."""
    cone = simplex_cone_partition(3).cells[0]
    hs = HalfSpace([0.6, -0.8], 0.3)
    hs3 = HalfSpace([0.2, -0.5, 1.0], -0.4)
    return [
        hs, hs3, cone, Sector2D(0.4, 2.9),
        ExplicitCell([], dim=2), ExplicitCell([hs]),
        ProductWithR(cone, 2), ProductWithR(hs, 1),
        Complement(hs), Complement(cone),
        ShiftedSet(cone, [0.3, -0.2]), DilationFlowSet(cone, 0.01),
    ]


class TestBatchContract:
    @pytest.mark.parametrize("cell", _exact_cells(), ids=lambda c: type(c).__name__)
    def test_batch_equals_stacked_single_points(self, cell):
        pts = np.random.default_rng(12).standard_normal((7, cell.dim))
        for rho in (-0.6, 0.3, 0.9):
            batch, err = cell.ou_exact(rho, pts)
            assert batch.shape == (7,)
            singles = [cell.ou_exact(rho, x) for x in pts]
            assert all(isinstance(v, float) for v, _ in singles)
            assert np.max(np.abs(batch - [v for v, _ in singles])) <= 1e-15
            assert err == singles[0][1]

    def test_no_exact_route_declines_batches(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        pts = np.zeros((3, 2))
        assert ball.ou_exact(0.5, pts) is None
        assert ConeCell(np.eye(3), 0).ou_exact(0.5, np.zeros((3, 3))) is None

    @pytest.mark.parametrize("cell", [
        *simplex_cone_partition(3).cells,
        perturbed_simplex_cones(3).cells[0],
        ShiftedSet(simplex_cone_partition(3).cells[1], [0.4, 0.1]),
    ])
    def test_gradient_stencil_matches_per_axis_loop(self, cell):
        step = 3e-4
        for rho, x in ((0.5, [0.6, 0.4]), (-0.3, [-0.2, 1.1]), (0.9, [0.05, -0.7])):
            xv = np.asarray(x)
            loop = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = step
                loop[k] = (cell.ou_exact(rho, xv + e)[0] - cell.ou_exact(rho, xv - e)[0]) / (2 * step)
            est = ou_gradient_quadrature(cell, rho, xv, step=step)
            assert est.method == "quadrature"
            assert np.max(np.abs(est.value - loop)) <= 1e-12

    def test_gradient_without_exact_route_raises(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        with pytest.raises(DomainError):
            ou_gradient_quadrature(ball, 0.5, [0.1, 0.2])

    def test_node_table_is_cached_and_read_only(self):
        t, w = _leggauss(48)
        assert _leggauss(48)[0] is t and _leggauss(48)[1] is w
        assert not t.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 0.0
        ref_t, ref_w = np.polynomial.legendre.leggauss(48)
        assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)


class TestOuRhoDerivative:
    def test_symmetric_point_is_zero(self):
        hs = HalfSpace([1.0, 0.0], 0.0)
        res = ou_rho_derivative(hs, 0.5, [0.0, 0.0], budget=300_000, seed=6)
        assert abs(res.finite_difference.value) <= 3 * res.finite_difference.std_error + 1e-9
        assert abs(res.divergence_form.value) <= 3 * res.divergence_form.std_error

    def test_full_space_constant_in_rho(self):
        full = ExplicitCell([], dim=2)
        res = ou_rho_derivative(full, 0.4, [0.7, -0.1], budget=200_000, seed=7)
        assert abs(res.divergence_form.value) <= 3 * res.divergence_form.std_error + 1e-12

    def test_against_closed_form(self):
        # T_rho 1_{x1<=1}(1, 0) = Phi(sqrt((1-rho)/(1+rho))), differentiable in rho
        rho = 0.5
        hs = HalfSpace([1.0, 0.0], 1.0)
        u = math.sqrt((1 - rho) / (1 + rho))
        oracle = phi(u) * (-1.0 / ((1 + rho) * math.sqrt(1 - rho * rho)))
        res = ou_rho_derivative(hs, rho, [1.0, 0.0], budget=2_000_000, seed=8)
        assert res.finite_difference.value == pytest.approx(oracle, abs=1e-6)
        assert abs(res.divergence_form.value - oracle) <= 3 * res.divergence_form.std_error
        # the two routes agree within combined error
        assert abs(res.finite_difference.value - res.divergence_form.value) <= (
            3 * (res.finite_difference.std_error + res.divergence_form.std_error)
        )

    def test_exact_route_evaluates_only_at_the_stencil(self):
        calls = []

        class Counted(HalfSpace):
            def ou_exact(self, rho, x):
                calls.append(rho)
                return super().ou_exact(rho, x)

        hs = Counted([1.0, 0.0], 1.0)
        res = ou_rho_derivative(hs, 0.5, [1.0, 0.0], budget=1000, seed=8)
        h = 1e-3 * 0.5
        assert calls == [0.5 + h, 0.5 - h]
        plain = HalfSpace([1.0, 0.0], 1.0)
        vp, ep = plain.ou_exact(0.5 + h, np.array([1.0, 0.0]))
        vm, em = plain.ou_exact(0.5 - h, np.array([1.0, 0.0]))
        assert res.finite_difference.value == (vp - vm) / (2.0 * h)
        assert res.finite_difference.method == "quadrature"

    def test_laplacian_moment_form(self):
        # Lap T on the full space vanishes
        full = ExplicitCell([], dim=3)
        est = ou_divergence_mc(full, 0.6, [0.1, 0.2, -0.3], budget=300_000, seed=9)
        assert abs(est.value) <= 3 * est.std_error

    def test_rejects_rho_zero(self):
        hs = HalfSpace([1.0], 0.0)
        with pytest.raises(DomainError):
            ou_rho_derivative(hs, 0.0, [0.0])


class TestBivariateNormalCdf:
    def test_independence(self):
        assert bivariate_normal_cdf(0.0, 0.0, 1e-15) == pytest.approx(0.25, abs=1e-10)

    def test_arcsine_value(self):
        # 1/4 + arcsin(1/2)/(2 pi) = 1/3 exactly
        assert bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_marginalization(self):
        for rho in (-0.7, 0.3, 0.9):
            assert bivariate_normal_cdf(40.0, 0.0, rho) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.2, 0.6, 0.95])
    def test_arcsine_formula_grid(self, rho):
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(
            0.25 + math.asin(rho) / (2 * math.pi), abs=1e-10
        )

    def test_against_monte_carlo(self):
        a, b, rho = 1.0, -0.4, 0.55
        x, y = sample_correlated_pair(rho, 1, 1_000_000, seed=10)
        hits = np.mean((x[:, 0] <= a) & (y[:, 0] <= b))
        se = math.sqrt(hits * (1 - hits) / 1_000_000)
        assert bivariate_normal_cdf(a, b, rho) == pytest.approx(float(hits), abs=3 * se)

    @pytest.mark.parametrize("rho", [0.9999999, -0.9999999, 0.999, -0.999, 1e-12, 0.5])
    def test_arcsine_law_near_the_ends(self, rho):
        law = 0.25 + math.asin(rho) / (2 * math.pi)
        assert abs(bivariate_normal_cdf(0.0, 0.0, rho) - law) <= 1e-15
        # arguments that underflow h k to 0 take the general branch
        assert abs(bivariate_normal_cdf(1e-200, 1e-200, rho) - law) <= 1e-15
        # opposite signs whose product underflows to -0.0
        assert abs(bivariate_normal_cdf(-1e-170, 1e-170, rho) - law) <= 1e-15
        assert abs(bivariate_normal_cdf(1e-170, -1e-170, rho) - law) <= 1e-15

    def test_diagonal_near_the_ends(self):
        # Phi2(h, h; rho) = Phi(h) - 2 T(h, sqrt((1 - rho)/(1 + rho)))
        for rho in (0.9999999, 0.999, -0.999, -0.9999999):
            for h in (-1.3, 0.2, 0.7, 2.0):
                diag = ndtr(h) - 2 * owens_t(h, math.sqrt((1 - rho) / (1 + rho)))
                assert abs(bivariate_normal_cdf(h, h, rho) - diag) <= 1e-15

    def test_reflection_identity(self):
        # Phi2(h, k; rho) + Phi2(h, -k; -rho) = Phi(h)
        for h in (-3.0, -0.7, 0.0, 0.4, 2.5):
            for k in (-2.0, -0.1, 0.0, 0.3, 1.7):
                for rho in (-0.9999, -0.6, 0.2, 0.95, 0.9999999):
                    total = bivariate_normal_cdf(h, k, rho) + bivariate_normal_cdf(h, -k, -rho)
                    assert abs(total - ndtr(h)) <= 1e-15

    def test_batch_equals_stacked_scalars(self):
        h = np.array([[-2.0], [0.0], [0.5], [np.inf], [-np.inf]])
        k = np.array([-1.0, 0.0, 0.3, 4.0])
        batch = bivariate_normal_cdf(h, k, 0.7)
        assert batch.shape == (5, 4)
        stacked = [[bivariate_normal_cdf(a, b, 0.7) for b in k] for a in h[:, 0]]
        assert all(isinstance(v, float) for row in stacked for v in row)
        assert np.array_equal(batch, np.array(stacked))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            bivariate_normal_cdf(np.array([0.0, np.nan]), 0.0, 0.3)


class TestConcurrency:
    def test_thread_pool_reduction_deterministic(self):
        # shard reduction order is fixed, so threads never change the result
        hs = HalfSpace([1.0, 0.0], 0.3)
        serial = ou_apply(hs, 0.5, [0.2, -0.1], budget=600_000, seed=77,
                          mode="monte-carlo", threads=1)
        pooled = ou_apply(hs, 0.5, [0.2, -0.1], budget=600_000, seed=77,
                          mode="monte-carlo", threads=4)
        assert serial.value == pooled.value
        assert serial.std_error == pooled.std_error


class TestEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            Estimate(1.0, -0.1, 10, "monte-carlo")
        with pytest.raises(ValueError):
            Estimate(1.0, 0.0, 10, "guesswork")

    def test_as_dict_roundtrip(self):
        e = Estimate(0.5, 0.01, 100, "monte-carlo")
        assert e.as_dict() == {"value": 0.5, "std_error": 0.01, "samples": 100,
                               "method": "monte-carlo"}

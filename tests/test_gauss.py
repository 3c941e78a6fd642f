"""Tests for densities, correlated sampling, the kernel, and T_rho."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, owens_t

import noiselab.partitions as partitions_module
from noiselab.cones import _orthant4
from noiselab.gauss import (
    Correlation,
    DomainError,
    Estimate,
    SignedDifference,
    VectorEstimate,
    _kronrod,
    bivariate_normal_cdf,
    gaussian_density,
    kernel_g,
    mc_mean,
    mc_shard_means,
    mehler_kernel,
    noisy_copies,
    ou_apply,
    ou_gradient,
    ou_gradient_quadrature,
    ou_rho_derivative,
    ou_rho_derivative_exact,
    ou_rho_derivative_heat,
    rho_step,
    sample_correlated_pair,
)
from noiselab.partitions import (
    Complement,
    DilationFlowSet,
    ExplicitCell,
    HalfSpace,
    OracleSet,
    PartitionSpec,
    ProductWithR,
    Sector2D,
    ShiftedSet,
    cone_partition,
    cylinder_extend,
    halfspace_partition,
    gaussian_measure,
    sector_partition,
    simplex_cone_partition,
)
from noiselab.stability import (
    bilinear_stability,
    noise_stability,
    partition_stability,
    propeller_functional,
)

from helpers import mc_moment

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

    @pytest.mark.parametrize("rho", [0.9999, 0.99999, -0.9999])
    def test_halfspace_near_the_ends_within_its_quoted_error(self, rho):
        # sigma from 1 - rho^2 lost digits here: 5.0e-14 off against a quoted 1e-15
        xs = np.linspace(-0.02, 0.02, 81)
        vals, err = HalfSpace([1.0, 0.0], 0.0).ou_exact(rho, np.stack([xs, 0.3 + 0 * xs], 1))
        with mpmath.workdps(40):
            r = mpmath.mpf(rho)
            refs = [mpmath.ncdf(-r * mpmath.mpf(float(x)) / mpmath.sqrt(1 - r * r)) for x in xs]
        assert np.all(np.abs(vals - np.array(refs, dtype=float)) <= err)

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
        # the Monte Carlo moment form against the closed form
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

    @pytest.mark.parametrize("cell", [
        *_exact_cells(),
        SignedDifference(*halfspace_partition([1.0, 0.0], 0.5).cells),
        SignedDifference(*simplex_cone_partition(3).cells[:2]),
    ], ids=lambda c: type(c).__name__)
    def test_gradient_batch_equals_stacked_single_points(self, cell):
        # the closed form of every reduction, and of signed differences of them
        dim = cell.a.dim if isinstance(cell, SignedDifference) else cell.dim
        pts = np.random.default_rng(13).standard_normal((7, dim))
        exact = getattr(cell, "ou_gradient_exact", None)
        for rho in (-0.6, 0.3, 0.9):
            batch = ou_gradient_quadrature(cell, rho, pts)
            assert batch.value.shape == batch.std_error.shape == pts.shape
            singles = [ou_gradient_quadrature(cell, rho, x) for x in pts]
            assert np.max(np.abs(batch.value - [g.value for g in singles])) <= 1e-15
            assert np.array_equal(batch.std_error, [g.std_error for g in singles])
            assert {g.method for g in singles} == {batch.method}
            res = None if exact is None else exact(rho, pts)
            if res is not None:
                assert np.max(np.abs(res[0] - [exact(rho, x)[0] for x in pts])) <= 1e-15

    def test_no_exact_route_declines_batches(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        pts = np.zeros((3, 2))
        assert ball.ou_exact(0.5, pts) is None
        assert simplex_cone_partition(4).cells[0].ou_exact(0.5, np.zeros((3, 3))) is None

    def test_gradient_without_exact_route_raises(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        with pytest.raises(DomainError):
            ou_gradient_quadrature(ball, 0.5, [0.1, 0.2])

    def test_node_table_is_cached_and_read_only(self):
        tables = _kronrod(48)
        assert all(a is b for a, b in zip(_kronrod(48), tables))
        t, w_k, w = tables
        assert not any(a.flags.writeable for a in tables)
        with pytest.raises(ValueError):
            t[0] = 0.0
        # the Gauss part is numpy's Gauss-Legendre rule, to rounding: numpy's
        # end weights are 4e-15 (1.3e-12 relative) off the 40-digit ones
        ref_t, ref_w = np.polynomial.legendre.leggauss(48)
        assert np.max(np.abs(t[:48] - ref_t)) <= 4.5e-16
        assert np.max(np.abs(w - ref_w)) <= 5e-15


def _mp_kronrod(n):
    """(nodes, Kronrod weights, Gauss weights) of the 2n+1-node Gauss-Kronrod
    rule at 60 digits, by their definitions alone: the Gauss nodes are the
    roots of P_n, the Kronrod nodes those of the Stieltjes polynomial E_n+1,
    monic and orthogonal to P_n x^k for k <= n, and the weights make each rule
    exact on the monomials up to its node count less one."""
    with mpmath.workdps(60):
        def moment(m):  # of x^m over [-1, 1]
            return mpmath.mpf(2) / (m + 1) if m % 2 == 0 else mpmath.mpf(0)

        p = [mpmath.mpf(0)] * (n + 1)  # P_n, ascending
        for k in range(n // 2 + 1):
            p[n - 2 * k] = mpmath.mpf((-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)) / 2**n
        # E_n+1 has the parity of n + 1, so its free coefficients are those
        # x^j and the conditions those k that leave P_n x^k E_n+1 even
        js = [j for j in range(n + 1) if (n + 1 - j) % 2 == 0]
        ks = [k for k in range(n + 1) if k % 2 == 1]
        a = mpmath.matrix([[sum(c * moment(i + j + k) for i, c in enumerate(p)) for j in js]
                           for k in ks])
        r = mpmath.matrix([-sum(c * moment(i + n + 1 + k) for i, c in enumerate(p)) for k in ks])
        e = [mpmath.mpf(0)] * (n + 1) + [mpmath.mpf(1)]
        for j, v in zip(js, mpmath.lu_solve(a, r)):
            e[j] = v
        gauss, stieltjes = (sorted(mpmath.re(z) for z in mpmath.polyroots(c[::-1], maxsteps=100,
                                                                         extraprec=60))
                            for c in (p, e))

        def weights(xs):
            v = mpmath.matrix([[x**m for x in xs] for m in range(len(xs))])
            return mpmath.lu_solve(v, mpmath.matrix([moment(m) for m in range(len(xs))]))

        return tuple(np.array([float(v) for v in vals])
                     for vals in (gauss + stieltjes, weights(gauss + stieltjes), weights(gauss)))


class TestKronrodRule:
    """gauss._kronrod, the one quadrature table builder: the n-node
    Gauss-Legendre rule and its 2n+1-node Kronrod extension."""

    @pytest.mark.parametrize("n", [10, 16, 64])
    def test_gauss_nodes_come_first(self, n):
        t, w_k, w_g = _kronrod(n)
        assert t.shape == w_k.shape == (2 * n + 1,) and w_g.shape == (n,)
        ref_t, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(t[:n] - ref_t)) <= 4.5e-16
        # each group ascends, and the Kronrod nodes interlace the Gauss ones
        assert np.all(np.diff(t[:n]) > 0) and np.all(np.diff(t[n:]) > 0)
        assert np.array_equal(np.sort(t)[1::2], t[:n])

    @pytest.mark.parametrize("n", [10, 16, 64])
    def test_exact_on_legendre_polynomials(self, n):
        t, w_k, w_g = _kronrod(n)
        assert w_k.min() > 0 and w_g.min() > 0
        exact = np.zeros(3 * n + 2)
        exact[0] = 2.0
        kronrod = w_k @ np.polynomial.legendre.legvander(t, 3 * n + 1)
        gauss = w_g @ np.polynomial.legendre.legvander(t[:n], 2 * n - 1)
        assert np.max(np.abs(kronrod - exact)) <= 2.4e-15
        assert np.max(np.abs(gauss - exact[:2 * n])) <= 2.4e-15

    @pytest.mark.parametrize("n", [10, 16])
    def test_matches_the_60_digit_rule(self, n):
        for got, ref in zip(_kronrod(n), _mp_kronrod(n)):
            assert np.max(np.abs(got - ref)) <= 2.3e-16

    def test_each_rule_evaluates_its_integrand_once_per_node(self, monkeypatch):
        seen = []

        def integrand(theta):
            seen.append(theta.size)
            return [np.zeros((1, theta.size))] * 2

        def line(t):
            seen.append(t.shape[-1])
            return np.ones_like(t)

        arcsin = np.arcsin

        def counted_arcsin(a, *args, **kwargs):
            seen.append(np.shape(a))
            return arcsin(a, *args, **kwargs)

        partitions_module._graded_rule([0.5], integrand)
        panels = len(partitions_module._graded_panels(math.asin(0.5))) - 1
        assert seen == [33 * panels]
        seen.clear()
        partitions_module._line_rule(line, -1.0, 1.0)
        assert seen == [129]
        # the orthant rule takes the arcsine of its 6 terms' ends, then of
        # the integrand at 21 nodes in each of its 3 panels
        monkeypatch.setattr(np, "arcsin", counted_arcsin)
        seen.clear()
        _orthant4(np.full((1, 6), 0.3), 2)
        assert seen == [(1, 6), (1, 6, 21 * 3)]


def _reduction_cells():
    """_exact_cells() plus the empty cell and cylinders of complements."""
    hs = HalfSpace([0.6, -0.8], 0.3)
    cone = simplex_cone_partition(3).cells[0]
    return [*_exact_cells(), Complement(ExplicitCell([], dim=2)),
            ProductWithR(Complement(hs), 1), ProductWithR(Complement(cone), 1)]


#: T_rho 1_C(x) and the noise stability at rho = 0.6, x = linspace(-0.7, 0.5, d),
#: for the cells of _exact_cells(), recorded before the closed forms were
#: rewritten against the two reductions (None: that stability was sampled)
_RECORDED = [
    (0.8389129404891691, 0.47731801941294605), (0.2385532391775399, 0.22431374035136276),
    (0.34241659148431747, 0.1947034844453047), (0.5467215443407989, 0.2535457211421276),
    (1.0, None), (0.8389129404891691, None),
    (0.5248085699962464, 0.1947034844453047), (0.7356527078843225, 0.47731801941294605),
    (0.1610870595108309, 0.24149517503504092), (0.6575834085156825, 0.5280368177786381),
    (0.3246641159274619, 0.20826465750678647), (0.34241659148431747, 0.1947034844453047),
]


class TestReductions:
    """The five closed forms (T_rho, its gradient, the measure, the moment and
    the pair probability), written once against the half-space and sector
    kinds of the cell's shape record, on every cell kind.  The measure and
    moment of central cones in R^3 (the record's cone kind) are tested in
    test_cones.py."""

    @pytest.mark.parametrize("cell", _reduction_cells(), ids=lambda c: type(c).__name__)
    def test_closed_forms_against_monte_carlo(self, cell):
        x = np.linspace(-0.7, 0.5, cell.dim)
        n = 40_000
        for rho in (-0.5, 0.6):
            t = ou_apply(cell, rho, x)
            mc = ou_apply(cell, rho, x, n, seed=1, mode="monte-carlo")
            assert t.method == "quadrature"
            assert abs(t.value - mc.value) <= 4 * mc.std_error + 1e-12
            g = ou_gradient_quadrature(cell, rho, x)
            mc = ou_gradient(cell, rho, x, n, seed=2)
            assert np.all(np.abs(g.value - mc.value) <= 4 * mc.std_error + 1e-6)
            st = noise_stability(cell, rho)
            mc = noise_stability(cell, rho, n, seed=3, mode="monte-carlo")
            assert st.method == "quadrature"
            assert abs(st.value - mc.value) <= 4 * mc.std_error + 1e-12
        mu = gaussian_measure(cell)
        mc = gaussian_measure(cell, n, seed=4, mode="monte-carlo")
        assert mu.method == "closed-form"
        assert abs(mu.value - mc.value) <= 4 * mc.std_error + 1e-15
        mom, _ = cell.moment_exact()
        mc = mc_moment(cell, n, seed=5)
        assert np.all(np.abs(mom - mc.value) <= 4 * mc.std_error + 1e-12)

    @pytest.mark.parametrize("cell, recorded", list(zip(_exact_cells(), _RECORDED)),
                             ids=lambda c: type(c).__name__)
    def test_values_do_not_move(self, cell, recorded):
        t, st = recorded
        x = np.linspace(-0.7, 0.5, cell.dim)
        assert cell.ou_exact(0.6, x)[0] == pytest.approx(t, abs=1e-15)
        if st is not None:
            assert noise_stability(cell, 0.6).value == pytest.approx(st, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0, math.pi])
    def test_pair_of_halfspaces_is_sheppard(self, theta):
        # half-planes through 0 with normals theta apart: <n_a, X> and <n_b, Y>
        # have correlation rho cos(theta)
        a = HalfSpace([1.0, 0.0], 0.0)
        b = ExplicitCell([HalfSpace([math.cos(theta), math.sin(theta)], 0.0)])
        for rho in (-0.9, 0.3, 0.99):
            val, _ = a.pair_exact(b, rho)
            assert val == pytest.approx(0.25 + math.asin(rho * math.cos(theta)) / (2 * math.pi),
                                        abs=1e-15)

    @pytest.mark.parametrize("a, b", [
        (HalfSpace([0.6, -0.8], 0.3), Complement(ExplicitCell([HalfSpace([1.0, 0.5], -0.2)]))),
        (ProductWithR(HalfSpace([1.0, 0.0], 0.4), 1), HalfSpace([0.2, -0.5, 1.0], -0.4)),
        (ExplicitCell([], dim=2), HalfSpace([0.6, -0.8], 0.3)),
        (simplex_cone_partition(3).cells[0], ShiftedSet(Sector2D(0.4, 2.9), [0.3, -0.2])),
        (Complement(simplex_cone_partition(3).cells[1]), Sector2D(-1.0, 0.5)),
        (ProductWithR(simplex_cone_partition(3).cells[0], 1),
         ProductWithR(Complement(simplex_cone_partition(3).cells[2]), 1)),
    ], ids=lambda c: type(c).__name__)
    def test_pair_probability_against_monte_carlo(self, a, b):
        n = 200_000
        for rho in (-0.5, 0.6):
            val, err = a.pair_exact(b, rho)
            x, y = sample_correlated_pair(rho, a.dim, n, seed=7)
            hits = a.contains(x) & b.contains(y)
            assert abs(val - hits.mean()) <= 4 * hits.std(ddof=1) / math.sqrt(n) + err

    def test_mixed_kinds_decline(self):
        hs, cone = HalfSpace([1.0, 0.0], 0.0), simplex_cone_partition(3).cells[0]
        assert hs.pair_exact(cone, 0.5) is None and cone.pair_exact(hs, 0.5) is None
        # a trihedral cone pairs with no half-space, and a cube's cell, of four
        # facets, with nothing
        cone = simplex_cone_partition(4).cells[0]
        hs = HalfSpace([1.0, 0.0, 0.0], 0.0)
        assert hs.pair_exact(cone, 0.5) is None and cone.pair_exact(hs, 0.5) is None
        cube = cone_partition(np.vstack([np.eye(3), -np.eye(3)])).cells[0]
        assert cube.pair_exact(cube, 0.5) is None and cone.pair_exact(cube, 0.5) is None

    @pytest.mark.parametrize("base", [
        HalfSpace([0.6, -0.8], 0.3), HalfSpace([0.2, -0.5, 1.0], -0.4),
        ExplicitCell([HalfSpace([0.6, -0.8], 0.3)]), ProductWithR(HalfSpace([1.0, -2.0], 0.7), 2),
        ExplicitCell([], dim=2),
    ], ids=lambda c: type(c).__name__)
    def test_complement_is_the_flipped_halfspace(self, base):
        comp = Complement(base)
        n, a = base.halfspace()
        nc, ac = comp.halfspace()
        assert np.array_equal(nc, -n) and ac == -a
        pts = np.random.default_rng(17).standard_normal((9, base.dim))
        for rho in (-0.9, 0.0, 0.5, 0.99):
            t, tc = base.ou_exact(rho, pts)[0], comp.ou_exact(rho, pts)[0]
            assert np.max(np.abs(tc - (1.0 - t))) <= 1e-15
            g, gc = base.ou_gradient_exact(rho, pts)[0], comp.ou_gradient_exact(rho, pts)[0]
            assert np.array_equal(gc, -g)
        (mom, err), (mom_c, err_c) = base.moment_exact(), comp.moment_exact()
        assert np.array_equal(mom_c, -mom) and np.array_equal(err_c, err)

    def test_widened_coverage(self):
        hs = HalfSpace([0.6, -0.8], 0.3)
        one = ExplicitCell([hs])
        pts = np.random.default_rng(18).standard_normal((5, 2))
        for rho in (-0.5, 0.6):
            assert noise_stability(one, rho, mode="quadrature") == noise_stability(hs, rho)
            g = ou_gradient_quadrature(one, rho, pts)
            assert g.method == "closed-form"
            assert np.array_equal(g.value, ou_gradient_quadrature(hs, rho, pts).value)
        assert np.array_equal(one.moment_exact()[0], hs.moment_exact()[0])
        everything = ExplicitCell([], dim=2)
        for cell, value in ((everything, 1.0), (Complement(everything), 0.0)):
            assert noise_stability(cell, 0.6, mode="quadrature").value == value
            g = ou_gradient_quadrature(cell, 0.6, pts)
            assert g.method == "closed-form" and not g.value.any()

    @pytest.mark.parametrize("p", [
        PartitionSpec([HalfSpace([1.0, 0.0], 0.0), ExplicitCell([], dim=2)]),
        PartitionSpec([Sector2D(0.0, 2 * math.pi), Sector2D(0.0, math.pi)]),
    ], ids=["halfspace-then-all", "full-then-half-sector"])
    def test_overlapping_cells_are_sampled(self, p):
        # the second cell overlaps the first, so by first claim it holds only
        # the rest; a sum of per-cell closed forms would count the overlap twice
        for rho in (0.0, 0.5):
            auto = partition_stability(p, rho, 20_000, seed=8)
            assert auto == partition_stability(p, rho, 20_000, seed=8, mode="monte-carlo")
            with pytest.raises(DomainError):
                partition_stability(p, rho, mode="quadrature")
        with pytest.raises(DomainError):
            bilinear_stability(p, p, 0.5, mode="quadrature")
        auto = propeller_functional(p, 20_000, seed=8)
        assert auto == propeller_functional(p, 20_000, seed=8, mode="monte-carlo")

    def test_cylinder_bilinear_equals_the_base_pair(self):
        p = simplex_cone_partition(3)
        q = p.negated()
        base = bilinear_stability(p, q, 0.5)
        cyl = bilinear_stability(cylinder_extend(p, 2), cylinder_extend(q, 2), 0.5)
        assert base.method == cyl.method == "quadrature"
        assert abs(cyl.value - base.value) <= 1e-12


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

    def test_exact_route_is_the_closed_form(self):
        # no T_rho evaluation: the finite difference of the parent is gone
        calls = []

        class Counted(HalfSpace):
            def ou_exact(self, rho, x):
                calls.append(rho)
                return super().ou_exact(rho, x)

        hs = Counted([1.0, 0.0], 1.0)
        res = ou_rho_derivative(hs, 0.5, [1.0, 0.0], budget=1000, seed=8)
        assert calls == []
        assert res.finite_difference == ou_rho_derivative_exact(HalfSpace([1.0, 0.0], 1.0), 0.5,
                                                                [1.0, 0.0])
        assert res.finite_difference.method == "closed-form"

    def test_laplacian_moment_form(self):
        # Lap T on the full space vanishes, in the moment form of the heat
        # identity of ou_rho_derivative_heat: with Y ~ N(rho x, (1-rho^2) I),
        # Lap T_rho 1_A(x) = E[rho^2 (||Y - rho x||^2/(1-rho^2) - d) / (1-rho^2) 1_A(Y)]
        full = ExplicitCell([], dim=3)
        r, x = 0.6, np.array([0.1, 0.2, -0.3])
        s = 1.0 - r * r

        def lap_values(rng, k):
            y = noisy_copies(rng, r, x, k)
            w = full.contains(y).astype(float)
            centered = y - r * x
            q = np.einsum("ij,ij->i", centered, centered)
            return (r * r / s) * (q / s - x.shape[0]) * w

        est = mc_mean(lap_values, 300_000, seed=9)
        assert abs(est.value) <= 3 * est.std_error

    def test_rejects_rho_zero(self):
        hs = HalfSpace([1.0], 0.0)
        with pytest.raises(DomainError):
            ou_rho_derivative(hs, 0.0, [0.0])

    def test_sampled_difference_on_a_cone_in_r3(self):
        # a cone in R^3 has no closed-form d/drho: the shared-draw central
        # difference in rho samples it, and agrees with the heat identity
        cone = simplex_cone_partition(4, 3).cells[0]
        res = ou_rho_derivative(cone, 0.5, [0.3, -0.2, 0.4], seed=5)
        fd, heat = res.finite_difference, res.divergence_form
        assert fd.method == heat.method == "monte-carlo"
        assert fd.std_error >= rho_step(0.5) ** 2
        assert abs(fd.value - heat.value) <= 3 * (fd.std_error + heat.std_error)
        # at 0.99995 the step, 1e-4, crosses 1
        with pytest.raises(DomainError, match="leaves"):
            ou_rho_derivative(cone, 0.99995, [0.3, -0.2, 0.4], budget=1000)


def _mp_derivatives(cell, rho, x):
    """(grad, d/drho) of T_rho 1_cell at x in 40 digits, from the cell's
    half-space or sectors with the float inputs taken as exact: T is the mass
    of the reduction moved to q' = (apex - rho x)/sigma, whose x- and
    rho-derivatives are the edges' densities phi(d) Phi(-c) against the
    motion of each edge."""
    if isinstance(cell, SignedDifference):
        (ga, da), (gb, db) = _mp_derivatives(cell.a, rho, x), _mp_derivatives(cell.b, rho, x)
        return [u - v for u, v in zip(ga, gb)], da - db
    with mpmath.workdps(40):
        r, xs = mpmath.mpf(rho), [mpmath.mpf(float(v)) for v in x]
        sig = mpmath.sqrt(1 - r * r)
        hs = cell.halfspace()
        if hs is not None:
            n, a = hs
            if math.isinf(a):
                return [mpmath.mpf(0)] * len(xs), mpmath.mpf(0)
            xn = mpmath.fsum(mpmath.mpf(float(v)) * w for v, w in zip(n, xs))
            u = (mpmath.mpf(a) - r * xn) / sig
            dens = mpmath.npdf(u)
            return ([-mpmath.mpf(float(v)) * dens * r / sig for v in n],
                    dens * (-xn / sig + r * u / sig**2))
        apex, arcs = cell.sector_decomposition()
        q = [(mpmath.mpf(float(apex[k])) - r * xs[k]) / sig for k in range(2)]
        grad, rate = [mpmath.mpf(0)] * len(xs), mpmath.mpf(0)
        for arc in arcs:
            for t, s in zip(arc, (1, -1)):  # inward normal s (-sin t, cos t)
                ct, st = mpmath.cos(mpmath.mpf(t)), mpmath.sin(mpmath.mpf(t))
                c, d = q[0] * ct + q[1] * st, q[1] * ct - q[0] * st
                dens = s * mpmath.npdf(d) * mpmath.ncdf(-c)
                grad[0] -= dens * st * r / sig
                grad[1] += dens * ct * r / sig
                rate += dens * ((ct * xs[1] - st * xs[0]) / sig - r * d / sig**2)
        return grad, rate


_FAR = np.array([4.8, -6.4])  # an apex at |q| = 8
#: every cell kind of _exact_cells(), the empty cell, arcs 1e-3 wide and wider
#: than pi, apexes at |q| = 8, and signed differences
MOMENT_CELLS = [
    *_exact_cells(), Complement(ExplicitCell([], dim=2)),
    Sector2D(0.4, 0.401), ShiftedSet(Sector2D(0.4, 0.401), _FAR),
    ShiftedSet(Sector2D(0.4, 4.0), -_FAR), ProductWithR(Complement(ShiftedSet(Sector2D(-2.0, 0.5), _FAR)), 1),
    SignedDifference(*simplex_cone_partition(3).cells[:2]),
    SignedDifference(*halfspace_partition([0.6, -0.8], 0.3).cells),
]
MOMENT_RHOS = [0.3, -0.3, 0.9, -0.9, 0.9999, -0.9999]


def _dim(cell):
    return cell.a.dim if isinstance(cell, SignedDifference) else cell.dim


def _moment_points(dim):
    """Near the origin, at the measured point, and at the far apex and its mirror."""
    pts = np.array([[0.0, 0.0], [0.3, -0.4], [-1.07, 1.16], _FAR, -_FAR])
    return np.hstack([pts, np.full((len(pts), dim - 2), 0.2)])


class TestShiftedMomentRoutes:
    """grad T_rho 1_A = (rho/sigma) M(q') and d/drho T_rho 1_A = -<M(q'), dq'/drho>,
    with M the cell's moment at the shifted apex q' = (apex - rho x)/sigma."""

    @pytest.mark.parametrize("rho", MOMENT_RHOS)
    @pytest.mark.parametrize("cell", MOMENT_CELLS, ids=lambda c: type(c).__name__)
    def test_within_the_reported_error_of_mpmath(self, cell, rho):
        sig = math.sqrt(1 - rho * rho)
        for x in _moment_points(_dim(cell)):
            g, dr = ou_gradient_quadrature(cell, rho, x), ou_rho_derivative_exact(cell, rho, x)
            assert g.method == dr.method == "closed-form"
            ref_g, ref_dr = _mp_derivatives(cell, rho, x)
            assert np.all(np.abs(g.value - np.array(ref_g, dtype=float)) <= g.std_error)
            assert abs(dr.value - float(ref_dr)) <= dr.std_error
            # the figures are the rounding of the terms' magnitudes, which grow
            # like 1/sigma for the gradient and 1/sigma^2 for d/drho, weighted by
            # the (|apex| + |rho x|)/sigma ulps of the shifted apex
            assert np.all(g.std_error * sig <= 1e-11) and dr.std_error * sig * sig <= 1e-11

    @pytest.mark.parametrize("rho", MOMENT_RHOS)
    @pytest.mark.parametrize("cell", MOMENT_CELLS, ids=lambda c: type(c).__name__)
    def test_the_richardson_limit_of_t(self, cell, rho):
        # central differences of ou_exact in each coordinate of x (step h = 1e-3
        # sigma) and in rho (h = 1e-3 sigma^2), from steps h and 2h
        # extrapolated; the values' reported errors through the differences
        # plus the extrapolation's residual against the one from steps 2h and
        # 4h bound the difference
        pts, sig = _moment_points(_dim(cell)), math.sqrt(1 - rho * rho)

        def central(shift, h):  # shift(step) -> (rho, x) of the forward points
            def at(step):
                (up, e_up), (dn, e_dn) = (cell.ou_exact(*shift(sign * step)) for sign in (1, -1))
                return (up - dn) / (2 * step), (e_up + e_dn) / (2 * step)

            (d1, e1), (d2, e2), (d4, _) = at(h), at(2 * h), at(4 * h)
            richardson = (4 * d1 - d2) / 3
            return richardson, (4 * e1 + e2) / 3 + np.abs(richardson - (4 * d2 - d4) / 3)

        grad = ou_gradient_quadrature(cell, rho, pts).value
        for k in range(pts.shape[1]):
            fd, tol = central(lambda step: (rho, pts + step * np.eye(pts.shape[1])[k]), 1e-3 * sig)
            assert np.all(np.abs(grad[:, k] - fd) <= tol) and np.all(tol * sig <= 1e-7)
        fd, tol = central(lambda step: (rho + step, pts), 1e-3 * sig * sig)
        assert np.all(np.abs(ou_rho_derivative_exact(cell, rho, pts).value - fd) <= tol)
        assert np.all(tol * sig * sig <= 1e-7)

    @pytest.mark.parametrize("cell", MOMENT_CELLS, ids=lambda c: type(c).__name__)
    def test_batch_equals_stacked_single_points(self, cell):
        pts = _moment_points(_dim(cell))
        for rho in MOMENT_RHOS:
            batch = ou_rho_derivative_exact(cell, rho, pts)
            assert isinstance(batch, VectorEstimate) and batch.value.shape == (len(pts),)
            singles = [ou_rho_derivative_exact(cell, rho, x) for x in pts]
            assert all(isinstance(e, Estimate) for e in singles)
            assert np.array_equal(batch.value, [e.value for e in singles])
            assert np.array_equal(batch.std_error, [e.std_error for e in singles])
            grad = ou_gradient_quadrature(cell, rho, pts)
            assert np.array_equal(grad.value, [ou_gradient_quadrature(cell, rho, x).value for x in pts])

    @pytest.mark.parametrize("cell", [ExplicitCell([], dim=2), Complement(ExplicitCell([], dim=2)),
                                      ProductWithR(ExplicitCell([], dim=2), 1)],
                             ids=["R^2", "empty", "R^3"])
    def test_whole_space_and_empty_cell_give_exact_zeros(self, cell):
        # phi(+-inf) = 0 against factors that grow without bound: no NaN
        pts = _moment_points(cell.dim)
        for rho in MOMENT_RHOS:
            for est in (ou_gradient_quadrature(cell, rho, pts), ou_rho_derivative_exact(cell, rho, pts)):
                assert not np.any(est.value) and np.all(np.isfinite(est.std_error))
                assert np.all(est.std_error <= 1e-300)

    def test_measured_rho_derivative(self):
        # the rho-stencil returned -0.88678636984 +- 2e-8 here, 3.0e-7 off
        cell = simplex_cone_partition(3).cells[0]
        est = ou_rho_derivative_exact(cell, 0.9, [-1.07, 1.16])
        assert abs(est.value + 0.88678666977) <= 1e-11
        assert abs(est.value - float(_mp_derivatives(cell, 0.9, [-1.07, 1.16])[1])) <= est.std_error
        assert est.std_error <= 1e-12


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

    def test_array_rho_equals_scalar_rho(self):
        # rho near +-1 and at 0, h = k = 0, tiny and infinite arguments, and
        # h and k of opposite signs, all in one call
        rho = [-0.9999999, -0.999, -0.5, 0.0, 1e-12, 0.3, 0.999, 0.9999999]
        args = [-np.inf, -3.0, -0.7, -1e-170, 0.0, 1e-200, 0.4, 2.5]
        h, k, r = np.meshgrid(args, args, rho, indexing="ij")
        batch = bivariate_normal_cdf(h, k, r)
        assert batch.shape == h.shape
        scalars = [bivariate_normal_cdf(float(a), float(b), float(c))
                   for a, b, c in zip(h.ravel(), k.ravel(), r.ravel())]
        assert np.array_equal(batch.ravel(), scalars)
        # a rho vector broadcasts against scalar arguments
        assert np.array_equal(bivariate_normal_cdf(0.4, -0.7, np.array(rho)),
                              [bivariate_normal_cdf(0.4, -0.7, c) for c in rho])

    @pytest.mark.parametrize("rho", [1.0, -1.0, np.nan, np.inf])
    def test_array_rho_outside_the_open_interval_is_rejected(self, rho):
        with pytest.raises(DomainError):
            bivariate_normal_cdf(0.0, 0.0, np.array([0.5, rho]))


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


# the four cell kinds the signed difference is checked on; each pair is cells 0
# and 1 of the partition, at points on and off their interface
SIGNED_PAIRS = {
    "cones": simplex_cone_partition(3).cells[:2],
    "half-spaces": halfspace_partition([1.0, 0.0], 0.5).cells[:2],
    "sectors": sector_partition([0.1, 2.0, 4.0]).cells[:2],
    "cylinder": cylinder_extend(simplex_cone_partition(3), 1).cells[:2],
}


def _signed_points(d):
    pts = np.array([[0.3, -0.4], [0.5, 0.0], [-1.1, 0.7]])
    return np.hstack([pts, np.full((3, d - 2), 0.2)]) if d > 2 else pts


class TestSignedDifference:
    """T_rho is linear: every route on 1_a - 1_b is the per-cell difference."""

    @pytest.mark.parametrize("kind", sorted(SIGNED_PAIRS))
    def test_exact_routes_give_per_cell_differences(self, kind):
        a, b = SIGNED_PAIRS[kind]
        diff = SignedDifference(a, b)
        for x in _signed_points(a.dim):
            t, ta, tb = (ou_apply(c, 0.5, x) for c in (diff, a, b))
            assert t.method == "quadrature"
            assert abs(t.value - (ta.value - tb.value)) <= 1e-12
            assert t.std_error == ta.std_error + tb.std_error
            g, ga, gb = (ou_gradient_quadrature(c, 0.5, x) for c in (diff, a, b))
            assert np.max(np.abs(g.value - (ga.value - gb.value))) <= 1e-12
            r, ra, rb = (ou_rho_derivative_exact(c, 0.5, x) for c in (diff, a, b))
            assert abs(r.value - (ra.value - rb.value)) <= 1e-12

    @pytest.mark.parametrize("kind", sorted(SIGNED_PAIRS))
    def test_monte_carlo_routes_weight_draws_by_the_cell_difference(self, kind):
        # the per-draw weight 1_a(Y) - 1_b(Y), written out here, gives the
        # same bits through every Monte Carlo route
        a, b = SIGNED_PAIRS[kind]
        diff = SignedDifference(a, b)
        r, s, x = 0.5, 0.75, _signed_points(a.dim)[0]
        d = x.shape[0]

        def draws(rng, k):
            y = r * x + math.sqrt(s) * rng.standard_normal((k, d))
            return y, a.contains(y).astype(float) - b.contains(y).astype(float)

        def t_values(rng, k):
            return draws(rng, k)[1]

        def grad_values(rng, k):
            y, w = draws(rng, k)
            return (r / s) * (y - r * x) * w[:, None]

        def heat_values(rng, k):
            y, w = draws(rng, k)
            q = np.einsum("ij,ij->i", y - r * x, y - r * x)
            lap = (r * r / s) * (q / s - d) * w
            return (-lap + (r / s) * ((y - r * x) @ x) * w) / r

        n = 140_000  # two shards
        weights = diff.contains(draws(np.random.default_rng(1), 2000)[0])
        assert set(np.unique(weights)) <= {-1.0, 0.0, 1.0}
        assert ou_apply(diff, r, x, n, seed=3, mode="monte-carlo") == mc_mean(t_values, n, seed=3)
        got, want = ou_gradient(diff, r, x, n, seed=4), mc_mean(grad_values, n, seed=4)
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(got.std_error, want.std_error)
        assert ou_rho_derivative_heat(diff, r, x, n, seed=6) == mc_mean(heat_values, n, seed=6)

    def test_declines_unless_both_cells_have_the_route(self):
        ball = OracleSet(lambda pts: np.sum(pts * pts, axis=1) <= 1.0, 2)
        hs = HalfSpace([1.0, 0.0], 0.0)
        for diff in (SignedDifference(hs, ball), SignedDifference(ball, hs)):
            assert diff.ou_exact(0.5, np.zeros(2)) is None
            assert ou_rho_derivative_exact(diff, 0.5, np.zeros(2)) is None
            with pytest.raises(DomainError):
                ou_apply(diff, 0.5, np.zeros(2), mode="quadrature")


class TestMonteCarloMean:
    def test_vector_output_is_inferred_from_the_callback(self):
        def vec(rng, k):
            return rng.standard_normal((k, 3)) + np.array([1.0, 0.0, -2.0])

        est = mc_mean(vec, 300_000, seed=7)  # three shards
        assert isinstance(est, VectorEstimate) and est.samples == 300_000
        assert np.all(np.abs(est.value - [1.0, 0.0, -2.0]) <= 4 * est.std_error)
        assert np.allclose(est.std_error, 1 / math.sqrt(300_000), rtol=0.02)
        threaded = mc_mean(vec, 300_000, seed=7, threads=2)
        assert np.array_equal(threaded.value, est.value)
        assert np.array_equal(threaded.std_error, est.std_error)
        scalar = mc_mean(lambda rng, k: vec(rng, k)[:, 0], 300_000, seed=7)
        assert isinstance(scalar, Estimate)
        assert scalar.value == pytest.approx(est.value[0], abs=1e-12)

    def test_one_shard_matches_the_sample_mean(self):
        def vec(rng, k):
            return rng.standard_normal((k, 2)) ** 2

        est = mc_mean(vec, 50_000, seed=8)
        vals = vec(np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0]), 50_000)
        assert np.array_equal(est.value, vals.sum(axis=0) / 50_000)
        assert np.allclose(est.std_error, vals.std(axis=0, ddof=1) / math.sqrt(50_000),
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_shard_means_reject_a_non_positive_budget(self, n):
        with pytest.raises(DomainError):
            mc_shard_means(lambda rng, k: rng.standard_normal(k), n)
        with pytest.raises(DomainError):
            mc_mean(lambda rng, k: rng.standard_normal(k), n)

    def test_shard_means_seeded_literals(self):
        # literals recorded before the shard loop was shared with mc_mean
        means, shard = mc_shard_means(lambda rng, k: rng.standard_normal(k) ** 2, 1000,
                                      seed=18, n_shards=4)
        assert shard == 250
        assert means.tolist() == [1.0497043457294526, 0.8904799793748586,
                                  1.0170010254516644, 1.0802256533180525]
        threaded, _ = mc_shard_means(lambda rng, k: rng.standard_normal(k) ** 2, 1000,
                                     seed=18, n_shards=4, threads=2)
        assert np.array_equal(threaded, means)

    def test_heat_route_seeded_literals(self):
        # d/drho T_rho 1_A by the heat identity, seeded literals recorded
        # before the moment-form integrand was shared
        cell = simplex_cone_partition(3).cells[0]
        est = ou_rho_derivative(cell, 0.5, [0.3, -0.4], budget=150_000, seed=14).divergence_form
        assert (est.value, est.std_error, est.samples) == (
            0.010795783635265725, 0.00203963951987889, 150_000)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1 and 3-7 judge through `noiselab.checks`, as `noiselab
verify` does, at larger inputs; 2, 8 and 9 pin their own tolerances.  Monte
Carlo checks use frozen seeds so a green run stays green.
"""

import math
import time

import numpy as np
import pytest
from noiselab import checks
from noiselab.checks import PROPELLER_BOUND
from noiselab.gauss import bivariate_normal_cdf
from noiselab.partitions import (
    cone_partition,
    cylinder_extend,
    halfspace_partition,
    perturbed_simplex_cones,
    random_orthogonal,
    simplex_cone_partition,
    simplex_generators,
    three_sectors_120,
)
from noiselab.stability import (
    bilinear_stability,
    gaussian_measure,
    half_space_stability_closed_form,
    noise_stability,
    partition_stability,
    partition_stability_quadrature,
    propeller_functional,
)
from noiselab.variation import (
    NormalScalarField,
    TranslationField,
    bilinear_translation_form,
    bilinear_variation_suite,
    dilation_eigen_residual,
    first_variation_constancy,
    g_form_value,
    second_variation_translation,
    stability_second_derivative,
    translation_eigen_residual,
)
from noiselab.voting import (
    discrete_noise_stability,
    discrete_noise_stability_mc,
    noise_kernel,
    plurality,
)


def _passes(record):
    """Assert one `noiselab.checks` record, showing it on failure."""
    assert record["pass"], record
    return record


class _Clock:
    def __init__(self, name, limit_minutes):
        self.name = name
        self.limit = limit_minutes * 60.0

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "FAIL" if exc_type else "PASS"
        print(f"[{status}] {self.name} ({elapsed:.1f}s / limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed <= self.limit, f"{self.name} exceeded its runtime limit"
        return False


def test_criterion_1_propeller_equality_and_bound():
    with _Clock("criterion 1: propeller equality and 3d bound", 2):
        exact = propeller_functional(three_sectors_120())
        assert exact.method == "quadrature"
        _passes(checks.near("three-sectors-equality", exact, PROPELLER_BOUND))
        gens = np.random.default_rng(101).standard_normal((50, 4, 3))
        ests = [propeller_functional(cone_partition(g / np.linalg.norm(g, axis=1, keepdims=True)),
                                     200_000, seed=[102, k]) for k, g in enumerate(gens)]
        worst = _passes(checks.below("random-3d-cones-below-bound", ests, PROPELLER_BOUND))
        print(f"    sectors: {exact.value:.9f} vs bound {PROPELLER_BOUND:.9f}; "
              f"worst 3d margin {-worst['residual']:.4f}")


def test_criterion_2_sheppard_agreement():
    with _Clock("criterion 2: Sheppard agreement at 1e7 pairs", 1):
        hs = halfspace_partition([1.0], 0.0).cells[0]
        est = noise_stability(hs, 0.5, 10_000_000, seed=103, mode="monte-carlo")
        assert abs(est.value - 1.0 / 3.0) <= 3 * est.std_error
        closed = half_space_stability_closed_form(0.5, 0.5)
        oracle = bivariate_normal_cdf(0.0, 0.0, 0.5)
        assert abs(closed - oracle) <= 1e-8
        assert abs(closed - 1.0 / 3.0) <= 1e-8
        print(f"    MC {est.value:.6f} +- {est.std_error:.6f}; closed {closed:.10f}")


def test_criterion_3_first_variation_constancy():
    with _Clock("criterion 3: first-variation constancy on cones", 5):
        p = simplex_cone_partition(3)
        for rho in (0.3, 0.7):
            rep = first_variation_constancy(p, rho, 0, 1, 200, seed=104)
            rec = _passes(checks.constancy(f"rho={rho}", rep))
        control = first_variation_constancy(perturbed_simplex_cones(3, angle_deg=5.0), 0.3, 0, 1,
                                            200, seed=105)
        _passes(checks.deviates("perturbed", control))
        print(f"    cones deviation <= {rec['tolerance']:.1e}; "
              f"perturbed control {control.max_deviation:.2e}")


def test_criterion_4_translation_eigen_identity():
    with _Clock("criterion 4: translation almost-eigenfunction identity", 5):
        recs = [checks.identity(f"half-space a={a} rho={rho}", translation_eigen_residual(
            halfspace_partition([1.0, 0.0], a), rho, [1.0, 0.0], 0, 1, 25, seed=106))
            for a in (0.0, 0.5) for rho in (0.3, 0.7)]
        p3 = simplex_cone_partition(3)
        z = simplex_generators(3, 2)
        recs += [checks.identity(f"cones {i}{j}", translation_eigen_residual(
            p3, 0.5, z[0], i, j, 25, seed=107)) for (i, j) in ((0, 1), (0, 2), (1, 2))]
        worst = max(_passes(r)["value"] for r in recs)
        mc = _passes(checks.identity("cones MC", translation_eigen_residual(
            p3, 0.5, z[0], 0, 1, 6, seed=108, mode="monte-carlo", budget=60_000)))
        print(f"    half-space and cone residuals <= {worst:.2e}; "
              f"MC route within {mc['tolerance']:.2e}")


def test_criterion_5_dilation_eigen_identity():
    with _Clock("criterion 5: dilation almost-eigenfunction identity", 10):
        p = simplex_cone_partition(3)
        rep = _passes(checks.identity("cones", dilation_eigen_residual(
            p, 0.5, 0, 1, 100, seed=109)))
        # independent Monte Carlo estimator on the derivative side
        mc = _passes(checks.identity("cones MC", dilation_eigen_residual(
            p, 0.5, 0, 1, 10, budget=400_000, seed=110, rhs_mode="monte-carlo")))
        print(f"    100-point residual {rep['value']:.2e} <= {rep['tolerance']:.2e}; "
              f"independent-MC route {mc['value']:.2e} <= {mc['tolerance']:.2e}")


def test_criterion_6_second_variation_consistency():
    with _Clock("criterion 6: translation second variation vs finite differences", 10):
        z = simplex_generators(3, 2)
        hp, p3 = halfspace_partition([1.0, 0.0], 0.0), simplex_cone_partition(3)
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        cases = [("m=2 normal", hp, e1), ("m=2 tangential", hp, e2),
                 ("m=3 generator", p3, z[0]), ("m=3 oblique", p3, e2)]
        for rho in (0.3, 0.7):
            for name, p, v in cases:
                closed = second_variation_translation(p, rho, v, seed=111)
                fd = stability_second_derivative(p, rho, TranslationField(v))
                _passes(checks.agree(f"{name} rho={rho}", closed, fd, factor=2))
        # Monte Carlo oracle with shared seeds for one cone case
        closed = second_variation_translation(p3, 0.5, z[0], seed=112)
        fd_mc = stability_second_derivative(p3, 0.5, TranslationField(z[0]), mode="monte-carlo",
                                            budget=3_000_000, seed=113)
        _passes(checks.agree("m=3 generator MC", closed, fd_mc, factor=2))
        print(f"    8 quadrature cases + shared-seed MC oracle agree "
              f"(last: {2 * closed.value:.5f} vs {fd_mc.value:.5f} +- {fd_mc.std_error:.5f})")


def test_criterion_7_bilinear_suite():
    with _Clock("criterion 7: bilinear comparisons and identities", 5):
        for a in (0.0, 0.5):
            p = halfspace_partition([1.0], a)
            _passes(checks.containment(f"a={a}", bilinear_stability(p, p, 0.5),
                                       bilinear_stability(p, p.negated(), 0.5)))
        p = halfspace_partition([1.0], 0.0)
        q = p.negated()
        rep = bilinear_variation_suite(p, q, 0.5, v=[1.0], seed=114)
        eigen = _passes(checks.pair_eigen("pair-eigen-residual", rep))
        _passes(checks.pair_sign("pair-sign-normal", rep))
        for rho in (0.3, 0.5, 0.7):
            _passes(checks.negative(f"rho={rho}", bilinear_translation_form(p, q, rho, [1.0],
                                                                           seed=115)))
        print(f"    eigen residual {eigen['value']:.2e} <= {eigen['tolerance']:.0e}; "
              f"translation form negative on (0,1); containment direction holds")


def test_criterion_8_discrete_plurality():
    with _Clock("criterion 8: discrete plurality stability", 2):
        rho = 0.4
        for n in (1, 3, 5):
            f = plurality(3, n)
            exact = discrete_noise_stability(f, rho)
            mc = discrete_noise_stability_mc(f, rho, 200_000, seed=[116, n])
            assert abs(mc.value - exact) <= 3 * mc.std_error, f"n={n}"
        # dictator: S_rho PLUR_{3,1} = (1 + 2 rho)/3; bit-exact at rho = 0.25,
        # one ulp at generic rho
        assert discrete_noise_stability(plurality(3, 1), 0.25) == (1 + 2 * 0.25) / 3
        generic = discrete_noise_stability(plurality(3, 1), rho)
        assert abs(generic - (1 + 2 * rho) / 3) <= 5e-16
        for m in (2, 3, 4):
            for r in (0.37, -0.9 / (m - 1), 0.9):
                kernel = noise_kernel(m, r)
                assert all(math.fsum(row) == 1.0 for row in kernel)
        print("    exact vs MC within 3*SE for n in {1,3,5}; dictator formula exact; "
              "kernel rows sum to 1")


def test_criterion_9_structural_invariants():
    with _Clock("criterion 9: structural invariant suite", 10):
        # cylinder invariance
        p = simplex_cone_partition(3)
        ext = cylinder_extend(p, 2)
        base = partition_stability(p, 0.45, 2_000_000, seed=117, mode="monte-carlo")
        lifted = partition_stability(ext, 0.45, 2_000_000, seed=118, mode="monte-carlo")
        assert abs(base.value - lifted.value) <= 3 * (base.std_error + lifted.std_error)
        assert partition_stability_quadrature(ext, 0.45).value == pytest.approx(
            partition_stability_quadrature(p, 0.45).value, abs=1e-10
        )
        # rotation invariance
        q_mat = random_orthogonal(2, np.random.default_rng(119))
        rotated = partition_stability(p.rotated(q_mat), 0.45, 2_000_000, seed=120,
                                      mode="monte-carlo")
        assert abs(base.value - rotated.value) <= 3 * (base.std_error + rotated.std_error)
        # complement identity
        hs = halfspace_partition([0.6, -0.8], 0.35).cells[0]
        stab = noise_stability(hs, 0.45)
        comp = noise_stability(hs.negate().negate(), 0.45)  # sanity: negation involutive
        assert comp.value == pytest.approx(stab.value, abs=1e-9)
        from noiselab.partitions import Complement

        comp = noise_stability(Complement(hs), 0.45)
        mu = gaussian_measure(hs).value
        assert comp.value == pytest.approx(1 - 2 * mu + stab.value, abs=1e-8)
        # kernel-form positivity
        hp = halfspace_partition([1.0, 0.0], 0.0)
        rng = np.random.default_rng(121)
        for k in range(10):
            c = rng.standard_normal(3)
            f = NormalScalarField(
                lambda pts, nms, c=c: c[0] * pts[:, 1]
                + c[1] * (pts[:, 1] ** 2 - 1.0)
                + c[2] * np.sin(pts[:, 1])
            )
            est = g_form_value(hp, 0.5, f, seed=k)
            assert est.value >= -3 * est.std_error
        # coverage and normal consistency
        pts = np.random.default_rng(122).standard_normal((1_000_000, 2))
        for part in (p, hp, three_sectors_120()):
            idx = part.membership(pts)
            assert idx.min() >= 0 and idx.max() < part.m
        eps = 1e-6
        for part in (p, hp, three_sectors_120(), simplex_cone_partition(4)):
            for (i, j) in ((0, 1),):
                bs = part.boundary_sample(i, j, 300, seed=123)
                assert np.allclose(np.linalg.norm(bs.normals, axis=1), 1.0, atol=1e-12)
                assert np.all(part.membership(bs.points + eps * bs.normals) == j)
                assert np.all(part.membership(bs.points - eps * bs.normals) == i)
        # measure additivity
        for part in (p, simplex_cone_partition(4), three_sectors_120()):
            total = sum(gaussian_measure(c).value for c in part.cells)
            assert total == pytest.approx(1.0, abs=1e-8)
        print("    cylinder, rotation, complement, kernel positivity, coverage, "
              "normals, additivity all green")

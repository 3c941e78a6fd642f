"""The ``mode`` contract of every entry point that picks a route.

Each entry point is called on an input that a deterministic route covers and
on one that none covers.  A misspelt mode raises, and so does "exact", which
is not a second spelling of "quadrature"; "quadrature" raises where no
deterministic route exists; "auto" is "quadrature" where one exists and
"monte-carlo" (same seed) where none does.
"""

import numpy as np
import pytest

from noiselab.gauss import DomainError, ou_apply
from noiselab.partitions import (
    HalfSpace,
    cone_partition,
    gaussian_measure,
    halfspace_partition,
    simplex_cone_partition,
    three_sectors_120,
)
from noiselab.stability import (
    bilinear_stability,
    noise_stability,
    partition_stability,
    partition_stability_quadrature,
    propeller_functional,
    stability_sweep,
)
from noiselab.variation import (
    TranslationField,
    dilation_eigen_residual,
    gradient_difference,
    second_variation_general,
    sij_operator,
    stability_second_derivative,
    t_difference,
)

P2 = simplex_cone_partition(3)      # planar cones: sector routes throughout
P3 = simplex_cone_partition(4, 3)   # cones in R^3: measures, moments and pair rule, no T route
P4 = simplex_cone_partition(5, 4)   # cones in R^4: no deterministic route at all
# the six cones over the faces of a cube in R^3: measures and moments, but four
# facets per cell, so no pair rule
CUBE = cone_partition(np.vstack([np.eye(3), -np.eye(3)]))
# four cones in R^3, shifted off the origin: no T route and only generic facets
SHIFTED_CONES = P3.translated([0.2, -0.1, 0.3])
HALF = halfspace_partition([1.0, 0.0], 0.2)
X2 = np.array([0.3, -0.2])
X3 = np.array([0.3, -0.2, 0.1])
X4 = np.array([0.3, -0.2, 0.1, 0.2])
N = 20_000


def _callable_2d(pts):
    return np.cos(pts[:, 0]) * np.sin(pts[:, 1])


def _callable_4d(pts):
    return np.cos(pts[:, 0])


# name -> (call on a covered input, call on an uncovered input); each takes a mode
ENTRY_POINTS = {
    "ou_apply-set": (
        lambda m: ou_apply(HalfSpace([1.0, 0.0], 0.3), 0.5, X2, N, seed=1, mode=m),
        lambda m: ou_apply(P3.cells[0], 0.5, X3, N, seed=1, mode=m)),
    "ou_apply-callable": (
        lambda m: ou_apply(_callable_2d, 0.5, X2, N, seed=1, mode=m),
        lambda m: ou_apply(_callable_4d, 0.5, np.zeros(4), N, seed=1, mode=m)),
    "gaussian_measure": (
        lambda m: gaussian_measure(P2.cells[0], N, seed=2, mode=m),
        lambda m: gaussian_measure(P4.cells[0], N, seed=2, mode=m)),
    "gaussian_measure-cones-R3": (
        lambda m: gaussian_measure(P3.cells[0], N, seed=2, mode=m),
        lambda m: gaussian_measure(P4.cells[0], N, seed=2, mode=m)),
    "noise_stability": (
        lambda m: noise_stability(P2.cells[0], 0.5, N, seed=3, mode=m),
        lambda m: noise_stability(P4.cells[0], 0.5, N, seed=3, mode=m)),
    "noise_stability-cones-R3": (
        lambda m: noise_stability(P3.cells[0], 0.5, N, seed=3, mode=m),
        lambda m: noise_stability(P4.cells[0], 0.5, N, seed=3, mode=m)),
    "partition_stability": (
        lambda m: partition_stability(P2, 0.5, N, seed=4, mode=m),
        lambda m: partition_stability(P4, 0.5, N, seed=4, mode=m)),
    "partition_stability-cones-R3": (
        lambda m: partition_stability(P3, 0.5, N, seed=4, mode=m),
        lambda m: partition_stability(P4, 0.5, N, seed=4, mode=m)),
    "bilinear_stability": (
        lambda m: bilinear_stability(P2, P2, 0.4, N, seed=5, mode=m),
        lambda m: bilinear_stability(P4, P4, 0.4, N, seed=5, mode=m)),
    "bilinear_stability-cones-R3": (
        lambda m: bilinear_stability(P3, P3, 0.4, N, seed=5, mode=m),
        lambda m: bilinear_stability(P4, P4, 0.4, N, seed=5, mode=m)),
    "propeller_functional": (
        lambda m: propeller_functional(three_sectors_120(), N, seed=7, mode=m),
        lambda m: propeller_functional(P4, N, seed=7, mode=m)),
    "propeller_functional-cones-R3": (
        lambda m: propeller_functional(P3, N, seed=7, mode=m),
        lambda m: propeller_functional(P4, N, seed=7, mode=m)),
    "t_difference": (
        lambda m: t_difference(P2, 0, 1, 0.5, X2, budget=N, seed=8, mode=m),
        lambda m: t_difference(P3, 0, 1, 0.5, X3, budget=N, seed=8, mode=m)),
    "gradient_difference": (
        lambda m: gradient_difference(P2, 0, 1, 0.5, X2, budget=N, seed=9, mode=m),
        lambda m: gradient_difference(P3, 0, 1, 0.5, X3, budget=N, seed=9, mode=m)),
    "sij_operator": (
        lambda m: sij_operator(P2, 0.5, 0, 1, TranslationField([1.0, 0.0]), X2, budget=N,
                               seed=10, mode=m),
        lambda m: sij_operator(P4, 0.5, 0, 1, TranslationField([1.0, 0.0, 0.0, 0.0]), X4,
                               budget=N, seed=10, mode=m)),
    "sij_operator-cones-R3": (
        lambda m: sij_operator(P3, 0.5, 0, 1, TranslationField([1.0, 0.0, 0.0]), X3,
                               budget=N, seed=10, mode=m),
        lambda m: sij_operator(P4, 0.5, 0, 1, TranslationField([1.0, 0.0, 0.0, 0.0]), X4,
                               budget=N, seed=10, mode=m)),
    "dilation_eigen_residual-rhs_mode": (
        lambda m: dilation_eigen_residual(P2, 0.5, 0, 1, 2, budget=N, seed=11, rhs_mode=m),
        lambda m: dilation_eigen_residual(P3, 0.5, 0, 1, 2, budget=N, seed=11, rhs_mode=m)),
    # every partition with interfaces into two or three cone cells is made of
    # half-spaces or planar sectors, so the uncovered input has four cells in
    # R^3, shifted so that no facet is a planar cone (S of a translation would
    # be exact there); every node of its sampled facets samples S again, hence
    # the smaller budget
    "second_variation_general": (
        lambda m: second_variation_general(HALF, 0.5, TranslationField([1.0, 0.0]), budget=N,
                                           seed=12, mode=m, volume_policy="skip"),
        lambda m: second_variation_general(SHIFTED_CONES, 0.5, TranslationField([1.0, 0.0, 0.0]),
                                           budget=N // 10, seed=12, mode=m,
                                           volume_policy="skip")),
    "stability_second_derivative": (
        lambda m: stability_second_derivative(P2, 0.5, TranslationField([1.0, 0.0]), budget=N,
                                              seed=13, mode=m),
        lambda m: stability_second_derivative(P3, 0.5, TranslationField([1.0, 0.0, 0.0]),
                                              budget=N, seed=13, mode=m)),
}


def _fields(res):
    """Every reported field of an estimate or residual report, comparable by ==."""
    if hasattr(res, "lhs"):
        return res.max_residual, res.tolerance, res.lhs.tolist(), res.rhs.tolist()
    return (np.asarray(res.value).tolist(), np.asarray(res.std_error).tolist(), res.samples,
            res.method)


@pytest.mark.parametrize("name", ENTRY_POINTS)
class TestModeContract:
    def test_misspelt_mode_raises(self, name):
        covered, _ = ENTRY_POINTS[name]
        for bad in ("Auto", "montecarlo", "closed-form", ""):
            with pytest.raises(DomainError, match="unknown mode"):
                covered(bad)

    def test_exact_is_an_unknown_mode(self, name):
        for call in ENTRY_POINTS[name]:
            with pytest.raises(DomainError, match="unknown mode"):
                call("exact")

    def test_auto_is_quadrature_where_covered(self, name):
        covered, _ = ENTRY_POINTS[name]
        assert _fields(covered("auto")) == _fields(covered("quadrature"))

    def test_quadrature_raises_where_uncovered(self, name):
        _, uncovered = ENTRY_POINTS[name]
        with pytest.raises(DomainError):
            uncovered("quadrature")

    def test_auto_is_monte_carlo_where_uncovered(self, name):
        _, uncovered = ENTRY_POINTS[name]
        assert _fields(uncovered("auto")) == _fields(uncovered("monte-carlo"))


def test_monte_carlo_samples_where_a_route_exists():
    # the deterministic route exists but "monte-carlo" still samples
    for name in ("ou_apply-set", "gaussian_measure", "sij_operator", "propeller_functional",
                 "gaussian_measure-cones-R3", "propeller_functional-cones-R3",
                 "sij_operator-cones-R3"):
        covered, _ = ENTRY_POINTS[name]
        assert covered("monte-carlo").method == "monte-carlo", name


class TestRhoZero:
    """At rho = 0 the deterministic route is the pair rule, as at every other
    rho.  Only where it declines (cones in R^3 with more than three facets)
    is it the independence reduction, the sum of squared closed-form cell
    measures.  Without either, rho = 0 is sampled like any other rho."""

    @pytest.mark.parametrize("stability, arg", [(noise_stability, P2.cells[0]),
                                                (partition_stability, P2),
                                                (noise_stability, P3.cells[0]),
                                                (partition_stability, P3),
                                                (noise_stability, CUBE.cells[0]),
                                                (partition_stability, CUBE)])
    def test_closed_form_measures(self, stability, arg):
        est = stability(arg, 0.0, N, seed=3, mode="auto")
        # the planar and trihedral cones take the pair rule, the cube's cells their measures
        cube = arg is CUBE or arg is CUBE.cells[0]
        assert est.method == ("closed-form" if cube else "quadrature")
        assert _fields(est) == _fields(stability(arg, 0.0, N, seed=3, mode="quadrature"))
        assert stability(arg, 0.0, N, seed=3, mode="monte-carlo").samples == N

    @pytest.mark.parametrize("p", [P2, P3, CUBE], ids=["planar-cones", "cones-R3", "cube-cones"])
    def test_every_entry_point_takes_one_route(self, p):
        est = partition_stability(p, 0.0, N, seed=3)
        assert est == stability_sweep(p, [0.5, 0.0], N, seed=3)[1]
        assert est == partition_stability_quadrature(p, 0.0)
        assert est == bilinear_stability(p, p, 0.0, N, seed=3, mode="quadrature")
        if p is P3:  # four cones of measure 1/4 each
            assert est.value == 0.25 and est.method == "quadrature"
        if p is CUBE:  # six cones of measure 1/6 each
            assert abs(est.value - 1 / 6) <= est.std_error and est.method == "closed-form"

    @pytest.mark.parametrize("stability, arg", [(noise_stability, P4.cells[0]),
                                                (partition_stability, P4)])
    def test_sampled_measures(self, stability, arg):
        with pytest.raises(DomainError):
            stability(arg, 0.0, N, seed=3, mode="quadrature")
        with pytest.raises(DomainError, match="unknown mode"):
            stability(arg, 0.0, N, seed=3, mode="Monte-Carlo")
        # "auto" samples the same correlated pairs as "monte-carlo"
        auto = stability(arg, 0.0, N, seed=3, mode="auto")
        pairs = stability(arg, 0.0, N, seed=3, mode="monte-carlo")
        assert auto == pairs
        assert pairs.method == "monte-carlo" and pairs.samples == N

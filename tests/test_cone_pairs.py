"""The pair rule on central cones in R^3 with three facets: P(X in A, Y in B)
and its d/drho by Plackett's identity, with the centred orthant of the four
other variables by a second Plackett integral.

Every value is compared with an independent reference: closed forms of the
orthant, recorded high-precision values, seeded Monte Carlo (within 4 SE),
symmetries of the Gaussian pair, or Richardson differences of the P rows.
"""

import math

import numpy as np
import pytest

from noiselab.cones import _orthant4
from noiselab.gauss import DomainError
from noiselab.partitions import (
    cone_partition,
    cylinder_extend,
    halfspace_partition,
    pair_drho_sum,
    pair_sums,
    simplex_cone_partition,
)
from noiselab.stability import (
    bilinear_stability,
    partition_stability,
    partition_stability_quadrature,
    stability_sweep,
)

from helpers import random_orthogonal

SIMPLEX = simplex_cone_partition(4)
#: the acceptance grid of rhos
RHOS = [-0.9, -0.5, 0.2, 0.5, 0.8, 0.95, 0.98]
#: P for the simplex cones, from a nested adaptive quadrature of the same
#: identities; the last two are rounded to 12 digits
REFERENCE = {0.5: (0.460095343992502, 0.0), 0.9: (0.750326837805, 5e-13),
             -0.5: (0.095970341150, 5e-13)}


def _family(seed):
    """Four random generators in R^3: each cell is a trihedral cone."""
    return cone_partition(np.random.default_rng([61, seed]).standard_normal((4, 3)))


class TestOrthant:
    """The 4-variable orthant rule against closed forms."""

    def test_independent_variables(self):
        value, _, err = _orthant4(np.zeros((1, 6)), 0)
        assert abs(value[0] - 1 / 16) <= err[0] + 1e-16

    def test_equicorrelation_one_half(self):
        # W_k = (Z_k - Z_0)/sqrt(2) for iid Z: P(W <= 0) = P(Z_0 is the largest) = 1/5
        value, _, err = _orthant4(np.full((1, 6), 0.5), 0)
        assert abs(value[0] - 1 / 5) <= err[0] + 1e-16

    @pytest.mark.parametrize("levels", [0, 3])
    def test_one_independent_variable_halves_the_trivariate_orthant(self, levels):
        # W_3 independent of the others: P = (1/8 + sum asin(r)/(4 pi)) / 2
        r01, r02, r12 = 0.3, -0.2, 0.4
        value, _, err = _orthant4(np.array([[r01, r02, 0.0, r12, 0.0, 0.0]]), levels)
        ref = (1 / 8 + (math.asin(r01) + math.asin(r02) + math.asin(r12)) / (4 * math.pi)) / 2
        assert abs(value[0] - ref) <= err[0] + 1e-16


class TestSimplexCones:
    @pytest.mark.parametrize("rho", RHOS)
    def test_quadrature_with_no_samples(self, rho):
        est = partition_stability(SIMPLEX, rho)
        assert est.method == "quadrature" and est.samples == 0
        assert est.std_error <= 1e-12
        if rho in REFERENCE:
            ref, rounding = REFERENCE[rho]
            assert abs(est.value - ref) <= 1e-11 + rounding

    def test_against_monte_carlo(self):
        rhos = [-0.5, 0.5, 0.9]
        exact = stability_sweep(SIMPLEX, rhos)
        sampled = stability_sweep(SIMPLEX, rhos, 4_000_000, seed=71, mode="monte-carlo")
        for rho, e, s in zip(rhos, exact, sampled):
            assert s.samples == 4_000_000
            assert abs(e.value - s.value) <= 4 * s.std_error + e.std_error, rho

    def test_rho_zero_is_the_sum_of_squared_measures(self):
        est = partition_stability(SIMPLEX, 0.0)
        measures = [c.gaussian_measure_exact() for c in SIMPLEX.cells]
        assert est.method == "quadrature" and est.samples == 0
        total = err = 0.0
        for v, e in measures:
            total, err = total + v * v, err + 2 * v * e
        assert (est.value, est.std_error) == (total, err)


class TestRandomFamilies:
    RHOS = [-0.6, 0.4, 0.85]

    @pytest.mark.parametrize("seed", range(3))
    def test_against_monte_carlo(self, seed):
        p = _family(seed)
        exact = stability_sweep(p, self.RHOS)
        sampled = stability_sweep(p, self.RHOS, 1_000_000, seed=[62, seed], mode="monte-carlo")
        for e, s in zip(exact, sampled):
            assert e.method == "quadrature" and e.std_error <= 1e-12
            assert abs(e.value - s.value) <= 4 * s.std_error + e.std_error

    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_and_cylinder_copies(self, seed):
        p = _family(seed)
        exact = stability_sweep(p, self.RHOS)
        turned_p = p.rotated(random_orthogonal(3, np.random.default_rng(seed)))
        turned = stability_sweep(turned_p, self.RHOS)
        sampled = stability_sweep(turned_p, self.RHOS, 1_000_000, seed=[63, seed],
                                  mode="monte-carlo")
        for e, t, s in zip(exact, turned, sampled):
            assert t.method == "quadrature"
            assert abs(e.value - t.value) <= e.std_error + t.std_error
            assert abs(t.value - s.value) <= 4 * s.std_error + t.std_error
        # the cylinder's cells keep their normals, so every bit
        cylinder = cylinder_extend(p, 2)
        assert stability_sweep(cylinder, self.RHOS) == exact
        sampled = stability_sweep(cylinder, self.RHOS, 1_000_000, seed=[64, seed],
                                  mode="monte-carlo")
        for e, s in zip(exact, sampled):
            assert abs(e.value - s.value) <= 4 * s.std_error + e.std_error


class TestBilinear:
    """Two different partitions pair facets (i, j) and (j, i) separately."""

    @pytest.mark.parametrize("seed", range(2))
    def test_negated_cones_are_the_stability_at_minus_rho(self, seed):
        # -Y has correlation -rho with X, so P(X in A, Y in -A) = P_A(-rho)
        p = _family(seed)
        for rho in (-0.7, 0.3, 0.9):
            b = bilinear_stability(p, p.negated(), rho, mode="quadrature")
            s = partition_stability(p, -rho)
            assert b.method == "quadrature"
            assert abs(b.value - s.value) <= b.std_error + s.std_error

    def test_rotated_partner_is_symmetric_and_sampled_alike(self):
        p = _family(2)
        q = p.rotated(random_orthogonal(3, np.random.default_rng(8)))
        for rho in (-0.6, 0.4, 0.85):
            pq = bilinear_stability(p, q, rho, mode="quadrature")
            qp = bilinear_stability(q, p, rho, mode="quadrature")
            assert abs(pq.value - qp.value) <= pq.std_error + qp.std_error
            mc = bilinear_stability(p, q, rho, 1_000_000, seed=3, mode="monte-carlo")
            assert abs(pq.value - mc.value) <= 4 * mc.std_error + pq.std_error


class TestDrho:
    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.3, 0.9, 0.98])
    @pytest.mark.parametrize("name", ["simplex", "random", "negated"])
    def test_is_the_richardson_limit_of_the_p_rows(self, name, rho):
        # Richardson-extrapolated central differences of the P rows with steps
        # k and 2k; their error is the extrapolation's gap term plus the
        # values' errors through the weights
        p = {"simplex": SIMPLEX, "random": _family(1), "negated": _family(0)}[name]
        q = p.negated() if name == "negated" else p
        pairs = list(zip(p.cells, q.cells))
        value, err = pair_drho_sum(pairs, rho)
        k = 1e-3 * (1 - abs(rho))
        rows = pair_sums(pairs, [rho + j * k for j in (-2, -1, 1, 2)])
        vals = np.array([v for v, _ in rows])
        vals -= vals[0]
        errs = np.array([e for _, e in rows])
        ref = (vals @ [1, -8, 8, -1]) / (12 * k)
        ref_err = (abs(vals @ [2, -4, 4, -2]) + errs @ [1, 8, 8, 1]) / (12 * k)
        assert abs(value - ref) <= err + ref_err
        assert ref_err <= 1e-5 * max(1.0, abs(value))


def test_more_facets_decline():
    # each cone over a cube's face has four facets and a fifth, redundant, row
    cube = cone_partition(np.vstack([np.eye(3), -np.eye(3)]))
    pairs = list(zip(cube.cells, cube.cells))
    assert pair_sums(pairs, [0.5]) is None and pair_drho_sum(pairs, 0.5) is None
    assert partition_stability_quadrature(cube, 0.5) is None
    est = partition_stability(cube, 0.5, 20_000, seed=4)
    assert est.method == "monte-carlo" and est.samples == 20_000


#: one partition per route kind of the pair rule
ROUTES = {"halfspace": halfspace_partition([1.0, 0.0], 0.2),
          "sector": simplex_cone_partition(3),
          "cone": SIMPLEX}


@pytest.mark.parametrize("kind", sorted(ROUTES))
@pytest.mark.parametrize("rho", [1.5, -1.0, 1.0, float("nan")])
def test_rho_outside_the_open_interval_raises(kind, rho):
    p = ROUTES[kind]
    pairs = list(zip(p.cells, p.cells))
    cell = p.cells[0]
    for call in (lambda: pair_sums(pairs, [0.5, rho]), lambda: pair_drho_sum(pairs, rho),
                 lambda: cell.pair_exact(cell, rho), lambda: cell.pair_drho_exact(cell, rho),
                 lambda: partition_stability_quadrature(p, rho)):
        with pytest.raises(DomainError):
            call()

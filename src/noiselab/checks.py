"""The verify criteria, each defined once: `noiselab verify` and the
acceptance suite both build their pass/fail records here.

A record {check, value, target, residual, tolerance, pass} passes when the
residual |value - target| ("abs") is <= tolerance.  A one-sided record carries
tolerance 0 and passes on a strict inequality: "lt" when value < target,
"gt" (a negative control) when value > target; its residual, value - target or
target - value, is then < 0.  Each comparison states its one tolerance from
the errors its inputs report, and `SUITES` builds each suite's records at the
CLI's inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import bivariate_normal_cdf, kernel_g, ou_apply, sample_correlated_pair
from .partitions import (
    cone_partition,
    halfspace_partition,
    perturbed_simplex_cones,
    simplex_cone_partition,
    three_sectors_120,
)
from .stability import (
    bilinear_stability,
    half_space_stability_closed_form,
    propeller_functional,
    sheppard_half_space,
)
from .variation import (
    DilationField,
    TranslationField,
    bilinear_variation_suite,
    dilation_eigen_residual,
    first_variation_constancy,
    hyperstability_probe,
    second_variation_translation,
    stability_second_derivative,
    translation_eigen_residual,
)

PROPELLER_BOUND = 9.0 / (8.0 * math.pi)


def check(name, value, tolerance, *, target=0.0, direction="abs") -> dict:
    """One pass/fail record; a one-sided ("lt", "gt") record must have tolerance 0."""
    assert direction == "abs" or tolerance == 0.0, (name, direction, tolerance)
    res = {"abs": abs(value - target), "lt": value - target, "gt": target - value}[direction]
    ok = res <= tolerance if direction == "abs" else res < 0.0
    return {"check": name, "value": value, "target": target, "residual": res,
            "tolerance": tolerance, "pass": bool(ok)}


def scaled(records, scale) -> list[dict]:
    """Every record with a nonzero tolerance, hence an "abs" one, rebuilt by `check` at
    `scale` times that tolerance; a zero tolerance does not scale and keeps its record."""
    return [check(r["check"], r["value"], scale * r["tolerance"], target=r["target"])
            if r["tolerance"] else r for r in records]


def exceeds(name, value, threshold) -> dict:
    """Negative control: `value` exceeds `threshold`."""
    return check(name, value, 0.0, target=threshold, direction="gt")


def identity(name, rep) -> dict:
    """An identity's `ResidualReport` against the tolerance it reports."""
    return check(name, rep.max_residual, rep.tolerance)


def constancy(name, rep) -> dict:
    """First variation: T_rho(1_i - 1_j) is constant on Sigma_ij within 3 SE."""
    return check(name, rep.max_deviation, 3 * rep.pointwise_error)


def deviates(name, rep) -> dict:
    """Control of `constancy`: the deviation exceeds 1e-4 and its own 3 SE."""
    return exceeds(name, rep.max_deviation, max(1e-4, 3 * rep.pointwise_error))


def near(name, est, target=0.0) -> dict:
    """An estimate within 3 SE of `target`."""
    return check(name, est.value, 3 * est.std_error, target=target)


def nonzero(name, est) -> dict:
    """Control of `near`: the estimate is more than 3 SE away from 0."""
    return exceeds(name, abs(est.value), 3 * est.std_error)


def agree(name, est, oracle, factor=1.0) -> dict:
    """factor * est equals its finite-difference oracle within 3 SE of the difference."""
    return check(name, factor * est.value - oracle.value,
                 3 * (factor * est.std_error + oracle.std_error))


def negative(name, est) -> dict:
    """The estimate itself is below 0."""
    return check(name, est.value, 0.0, direction="lt")


def below(name, ests, bound) -> dict:
    """Every estimate plus 3 SE stays below `bound`; the value is the worst."""
    return check(name, max(e.value + 3 * e.std_error for e in ests), 0.0, target=bound,
                 direction="lt")


def pair_eigen(name, rep) -> dict:
    """The bilinear translation identity of a `BilinearReport`."""
    return check(name, rep.eigen_max_residual, rep.eigen_tolerance)


def pair_sign(name, rep) -> dict:
    """The normal component of the bilinear sign check is positive."""
    return exceeds(name, rep.sign_min_normal_component, 0.0)


def containment(name, same, opposite) -> dict:
    """A pair with itself beats the reflected pair by at least 1e-6."""
    return exceeds(name, same.value - opposite.value, 1e-6)


# the suites, at the CLI's inputs


def _first_variation(seed, budget):
    p3 = simplex_cone_partition(3)
    out = [constancy(f"cones-deviation-rho={rho}",
                     first_variation_constancy(p3, rho, 0, 1, 60, budget=budget, seed=[seed, 1]))
           for rho in (0.3, 0.7)]
    bent = first_variation_constancy(perturbed_simplex_cones(3, angle_deg=5.0), 0.3, 0, 1, 60,
                                     budget=budget, seed=[seed, 2])
    return out + [deviates("perturbed-deviation-exceeds", bent)]


def _translation_eigen(seed, budget):
    out = [identity(f"halfspace-a={a}-rho={rho}",
                    translation_eigen_residual(halfspace_partition([1.0, 0.0], a), rho, [1.0, 0.0],
                                               0, 1, 8, budget=budget, seed=[seed, 3]))
           for a in (0.0, 0.5) for rho in (0.3, 0.7)]
    p3 = simplex_cone_partition(3)
    return out + [identity("cones-z1", translation_eigen_residual(
        p3, 0.5, p3.cells[0].generators[0], 0, 1, 12, budget=budget, seed=[seed, 4]))]


def _dilation_eigen(seed, budget):
    return [identity(name, dilation_eigen_residual(p, 0.5, 0, 1, n, budget=budget, seed=[seed, k]))
            for name, p, n, k in (("halfspace-a=1", halfspace_partition([1.0, 0.0], 1.0), 8, 5),
                                  ("cones", simplex_cone_partition(3), 12, 6))]


def _second_variation(seed, budget):
    out = []
    for m, rho in ((2, 0.3), (2, 0.7), (3, 0.3), (3, 0.7)):
        p = halfspace_partition([1.0, 0.0], 0.0) if m == 2 else simplex_cone_partition(3)
        v = np.array([1.0, 0.0]) if m == 2 else p.cells[0].generators[0]
        closed = second_variation_translation(p, rho, v, budget=budget, seed=[seed, 7])
        out.append(agree(f"m={m}-rho={rho}", closed,
                         stability_second_derivative(p, rho, TranslationField(v)), factor=2))
    return out


def _bilinear(seed, budget):
    p = halfspace_partition([1.0], 0.0)
    q = p.negated()
    rep = bilinear_variation_suite(p, q, 0.5, v=[1.0], budget=budget, seed=[seed, 8])
    return [pair_eigen("pair-eigen-residual", rep),
            pair_sign("pair-sign-normal", rep),
            negative("translation-form-nonpositive", rep.translation_form),
            agree("form-vs-fd", rep.translation_form, rep.translation_fd),
            containment("containment-direction", bilinear_stability(p, p, 0.5),
                        bilinear_stability(p, q, 0.5))]


def _hyperstability(seed, budget):
    p3 = simplex_cone_partition(3)
    along = TranslationField(p3.cells[0].generators[0])
    dil = hyperstability_probe(p3, 0.5, DilationField(), budget=budget, seed=[seed, 9])
    trans = hyperstability_probe(p3, 0.5, along, budget=budget, seed=[seed, 10])
    bent = hyperstability_probe(perturbed_simplex_cones(3, angle_deg=5.0), 0.5, along,
                                budget=budget, seed=[seed, 11], volume_policy="skip")
    return [near("cones-dilation-d2s", dil.second_s), near("cones-dilation-mixed", dil.mixed_s_rho),
            near("cones-translation-mixed", trans.mixed_s_rho),
            nonzero("perturbed-flagged", bent.mixed_s_rho)]


def _propeller(seed, budget):
    exact = near("three-sectors-equality", propeller_functional(three_sectors_120()),
                 target=PROPELLER_BOUND)
    gens = np.random.default_rng(seed).standard_normal((10, 4, 3))
    ests = [propeller_functional(cone_partition(g / np.linalg.norm(g, axis=1, keepdims=True)),
                                 budget=budget, seed=[seed, 12]) for g in gens]
    return [exact, below("random-3d-cones-below-bound", ests, PROPELLER_BOUND)]


def _gaussian_core(seed, budget):
    # E[X_0 Y_0] reads one coordinate, so the pairs are drawn in R^1, and the
    # products overwrite X; the tolerance is 3 standard errors of the sample's
    # own X_0 Y_0
    x, y = sample_correlated_pair(0.7, 1, 400_000, seed=seed)
    xy = np.multiply(x[:, 0], y[:, 0], out=x[:, 0])
    hp = halfspace_partition([1.0, 0.0], 0.0).cells[0]
    u, w = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    return [
        check("bvn-independence", bivariate_normal_cdf(0, 0, 1e-12), 1e-9, target=0.25),
        check("bvn-arcsine", bivariate_normal_cdf(0, 0, 0.5), 1e-9, target=1.0 / 3.0),
        check("closed-form-halfspace", half_space_stability_closed_form(0.5, 0.5), 1e-8,
              target=sheppard_half_space(0.5)),
        check("pair-correlation", float(np.mean(xy)), 3 * float(np.std(xy, ddof=1)) / math.sqrt(xy.size),
              target=0.7),
        check("ou-halfspace-center", ou_apply(hp, 0.4, np.zeros(2), budget).value, 1e-9,
              target=0.5),
        check("kernel-symmetry", kernel_g(u, w, 0.4) - kernel_g(w, u, 0.4), 0.0),
    ]


#: suite name -> (seed, budget) -> records, in `noiselab verify` order
SUITES = {"first-variation": _first_variation, "translation-eigen": _translation_eigen,
          "dilation-eigen": _dilation_eigen, "second-variation": _second_variation,
          "bilinear": _bilinear, "hyperstability": _hyperstability, "propeller": _propeller,
          "gaussian-core": _gaussian_core}

"""Variational identities for noise stability, made numerical.

A partition is deformed by flowing its cells along a vector field X; the
deformations used here have exact coordinate maps:

  * translation, X(x) = v: cell -> cell + s v;
  * dilation-weighted, X(x) = x_d * x (last coordinate times position):
    the flow is Psi(x, s) = x / (1 - s x_d).

On each interface the field enters only through its normal component
f_ij(x) = <X(x), N_ij(x)>.  The surface operator

    S(f)(x) = (1-rho^2)^(-d/2) (2 pi)^(-d/2)
              integral_Sigma f(y) exp(-||y - rho x||^2 / (2(1-rho^2))) dy

(with plain surface measure dy) and its two-cell difference S_ij drive the
second-variation quadratic forms and the almost-eigenfunction identities this
module evaluates: constancy of T_rho(1_i - 1_j) on interfaces, the
translation identity S_ij(<v,N>) = <v,N_ij> (1/rho) ||grad T_rho(1_i - 1_j)||,
its dilation analogue with the 1/rho^2 eigenvalue and a d/drho remainder, the
closed-form translation second variation with coefficient (1/rho - 1), the
mixed (s, rho) derivative probe, and the bilinear (two-partition) versions
where the eigenvalue changes sign.

Each identity check pairs a surface-quadrature (or Monte Carlo) evaluation of
the operator side against an independently estimated right-hand side and
reports residuals with combined error figures.  The finite-difference oracles
difference in s only: the exact stability for d^2/ds^2, and its exact d/drho
(Plackett's integrand) for the mixed derivative; Monte Carlo uses an (s, rho) grid.

Every facet integral goes through :meth:`Facet.gauss_integral`, which picks
the facet's route; this module only says whether the field is constant on the
facet.  S(f) on a facet is its integral against N(rho x, (1 - rho^2) I): a
constant field times the facet's closed-form Gaussian mass (points, lines and
the planar-cone facets of cones in R^3), other fields by the batched line rule
on lines, and sampled elsewhere.  Double-surface forms nest S in the gamma_d
integral of the outer facet, batched over its nodes; a form that sampled
anything reports Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gauss import (
    MONTE_CARLO,
    QUADRATURE,
    DomainError,
    Estimate,
    SignedDifference,
    VectorEstimate,
    _check_batch,
    as_rho,
    check_point,
    mc_shard_means,
    mehler_kernel,
    ou_apply,
    ou_gradient,
    ou_gradient_quadrature,
    ou_rho_derivative_exact,
    ou_rho_derivative_heat,
    route,
)
from .partitions import BoundarySample, Facet, PartitionSpec
from .stability import _pair_rule, _tiled_pairs, agreement_values, check_measure_match

VOLUME_TOL = 1e-6
#: translation step of the deterministic finite differences
H_S_QUADRATURE = 1e-3
#: translation step of the Monte Carlo finite differences; indicator
#: differencing needs a coarser step to keep the variance of the second
#: difference under control (it scales like h^(-3))
H_S_MONTE_CARLO = 0.05
#: rho step of the Monte Carlo mixed difference, in units of 1 - |rho|
H_RHO_MONTE_CARLO = 1e-3


class VolumeConditionError(DomainError):
    """The field violates the volume-preservation hypothesis."""


# ---------------------------------------------------------------------------
# boundary fields


@dataclass(frozen=True)
class TranslationField:
    """X(x) = v; on an interface f = <v, N>."""

    v: np.ndarray

    def __init__(self, v):
        object.__setattr__(self, "v", np.asarray(v, dtype=float))

    def values(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return normals @ self.v

    def flowed(self, p: PartitionSpec, s: float) -> PartitionSpec:
        return p.translated(s * self.v)


@dataclass(frozen=True)
class DilationField:
    """The dilation-weighted flow field X(x) = x_d * x (last coordinate times
    position); on an interface f = x_d * <x, N>.  Its flow has the closed form
    Psi(x, s) = x / (1 - s x_d)."""

    def values(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return points[:, -1] * np.einsum("ij,ij->i", points, normals)

    def flowed(self, p: PartitionSpec, s: float) -> PartitionSpec:
        return p.dilation_flowed(s)


@dataclass(frozen=True)
class RadialField:
    """X(x) = x, the generator of dilations; on an interface f = <x, N(x)>.

    This is the boundary function entering the dilation almost-eigenfunction
    identity.  It vanishes identically on cone interfaces."""

    def values(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", points, normals)

    def flowed(self, p: PartitionSpec, s: float) -> PartitionSpec:
        raise DomainError("use scaling directly; the radial flow is not wired up")


@dataclass(frozen=True)
class NormalScalarField:
    """Scalar boundary data f(point, normal) given directly as a callback."""

    fn: object

    def values(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(points, normals), dtype=float)

    def flowed(self, p: PartitionSpec, s: float) -> PartitionSpec:
        raise DomainError("normal-scalar fields carry no coordinate flow")


# ---------------------------------------------------------------------------
# surface operator


def _on_facet(field, facet: Facet, pts: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """The field's values at points of the facet, with normal sign * N."""
    return field.values(pts, np.tile(sign * facet.normal, (pts.shape[0], 1)))


def _facet_field(field, facet: Facet, sign: float):
    """The field on the facet with normal sign * N, as an integrand of
    :meth:`Facet.gauss_integral`: its value where it is constant there, else
    a function of the points."""
    if isinstance(field, TranslationField):
        return sign * float(facet.normal @ field.v)
    if isinstance(field, RadialField):
        # <y, sign * n> = sign * offset everywhere on the hyperplane
        return sign * facet.offset
    return partial(_on_facet, field, facet, sign=sign)


def _s_values(p: PartitionSpec, r: float, cells, field, x: np.ndarray, *, mode: str, budget: int,
              seed) -> VectorEstimate:
    """At each row of the (n, d) batch x, the sum over (cell, cell_sign) in
    ``cells`` of cell_sign times S(f) over the cell's boundary with its
    exterior normal; Monte Carlo with its draws when any facet was sampled."""
    value, err, n_samp = 0.0, 0.0, 0
    for cell, cell_sign in cells:
        for k, (facet, sign) in enumerate(p.cell_boundary(cell)):
            est = facet.gauss_integral(_facet_field(field, facet, sign), r, x, mode=mode,
                                       budget=budget, seed=[seed, cell, k])
            value = value + cell_sign * est.value
            err = err + est.std_error
            n_samp += est.samples
    return VectorEstimate(value, err, n_samp, MONTE_CARLO if n_samp else QUADRATURE)


def s_operator(boundary, rho, field, x) -> Estimate:
    """The surface operator S(f)(x) over one weighted boundary sample.

    ``boundary`` is a :class:`BoundarySample` or a list of
    :class:`BoundaryPoint`; weights must be present (surface-measure units).
    ``field`` is a boundary field or a callable (points, normals) -> values.
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    if isinstance(boundary, BoundarySample):
        pts, nms, wts = boundary.points, boundary.normals, boundary.weights
        strata = boundary.facet_index
    else:
        pts = np.array([b.location for b in boundary], dtype=float)
        nms = np.array([b.normal for b in boundary], dtype=float)
        wts = np.array([b.weight for b in boundary], dtype=float)
        strata = np.zeros(len(boundary), dtype=int)
    if wts is None or np.any(~np.isfinite(wts)) or np.any(wts <= 0):
        raise DomainError("boundary samples must carry positive surface weights")
    fvals = field.values(pts, nms) if hasattr(field, "values") else np.asarray(field(pts, nms))
    terms = wts * fvals * mehler_kernel(pts, xv, r)
    value = float(terms.sum())
    var = 0.0
    for s in np.unique(strata):
        sel = terms[strata == s]
        if sel.size > 1:
            var += sel.size * float(np.var(sel, ddof=1))
    return Estimate(value, math.sqrt(var), int(len(terms)), MONTE_CARLO)


def sij_operator(p: PartitionSpec, rho, i: int, j: int, field, x, *,
                 mode: str = "auto", budget: int = 40_000, seed=0) -> Estimate:
    """S_ij(f)(x): the boundary-of-cell-i minus boundary-of-cell-j operator.

    Integrates f(y, N(y)) K_rho(y, x) over each cell's full reduced boundary
    with its exterior normal orientation and takes the difference.  ``mode``
    (see :func:`noiselab.gauss.route`) picks each facet's route; the result
    reports Monte Carlo and its draws when any facet was sampled.
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x, p.dim)
    s = _s_values(p, r, ((i, 1.0), (j, -1.0)), field, xv[None, :], mode=mode, budget=budget,
                  seed=seed)
    return Estimate(float(s.value[0]), float(s.std_error[0]), s.samples, s.method)


# ---------------------------------------------------------------------------
# pointwise building blocks for the identities


def t_difference(p: PartitionSpec, i: int, j: int, rho, x, *, budget: int = 200_000,
                 seed=0, mode: str = "auto") -> Estimate:
    """T_rho(1_i - 1_j)(x) by :func:`ou_apply`, with its ``mode``."""
    xv = check_point(x, p.dim)
    return ou_apply(SignedDifference(p.cells[i], p.cells[j]), rho, xv, budget, seed=seed,
                    mode=mode)


def _gradient(s, r: float, xv: np.ndarray, *, budget: int, seed, mode: str) -> VectorEstimate:
    """grad T_rho 1_s at a point or each row of an (n, d) batch: the exact route in
    one batch, or Monte Carlo point by point with one seed, as ``mode`` picks."""

    def deterministic():
        try:  # it raises where s has no closed-form gradient; route() wants None
            return ou_gradient_quadrature(s, r, xv)
        except DomainError:
            return None

    return route(mode, deterministic, lambda: _stacked(
        [ou_gradient(s, r, x, budget, seed=seed) for x in np.atleast_2d(xv)], xv.shape))


def _stacked(ests, shape) -> VectorEstimate:
    """Monte Carlo estimates made point by point, as one of the given shape."""
    return VectorEstimate(np.reshape([e.value for e in ests], shape),
                          np.reshape([e.std_error for e in ests], shape),
                          sum(e.samples for e in ests), MONTE_CARLO)


def gradient_difference(p: PartitionSpec, i: int, j: int, rho, x, *,
                        budget: int = 200_000, seed=0, mode: str = "auto") -> VectorEstimate:
    """grad T_rho(1_i - 1_j) at x, one point or an (n, d) batch: the exact
    route of both cells, or Monte Carlo in moment form, as ``mode`` picks."""
    r = as_rho(rho, nonzero=True)
    xv = _check_batch(x, p.dim)
    return _gradient(SignedDifference(p.cells[i], p.cells[j]), r, xv, budget=budget, seed=seed,
                     mode=mode)


# ---------------------------------------------------------------------------
# first variation


@dataclass(frozen=True)
class ConstancyReport:
    mean: float
    max_deviation: float
    pointwise_error: float
    values: np.ndarray
    points: np.ndarray


def first_variation_constancy(p: PartitionSpec, rho, i: int, j: int,
                              n_points: int = 200, *, budget: int = 200_000,
                              seed=0, mode: str = "auto") -> ConstancyReport:
    """Sample T_rho(1_i - 1_j) on Sigma_ij; report mean and max |deviation|.

    On a stability-critical partition the sampled values are constant up to
    estimator error; a perturbed partition shows deviations far beyond it.
    The values are the closed form in one call over the whole sample, or
    :func:`t_difference` by Monte Carlo per point (seed ``[seed, k]`` at point
    k), as ``mode`` (see :func:`noiselab.gauss.route`) picks.
    """
    r = as_rho(rho, nonzero=True)
    sample = p.boundary_sample(i, j, n_points, seed=seed)

    def deterministic():
        res = SignedDifference(p.cells[i], p.cells[j]).ou_exact(r, sample.points)
        return None if res is None else VectorEstimate(
            np.asarray(res[0], dtype=float), np.full(len(sample), res[1], dtype=float), 0,
            QUADRATURE)

    est = route(mode, deterministic, lambda: _stacked(
        [t_difference(p, i, j, r, x, budget=budget, seed=[seed, k], mode=MONTE_CARLO)
         for k, x in enumerate(sample.points)], len(sample)))
    mean = float(est.value.mean())
    return ConstancyReport(mean, float(np.abs(est.value - mean).max()),
                           float(est.std_error.max()), est.value, sample.points)


def first_variation_constants(p: PartitionSpec, rho, *, n_probe: int = 6,
                              budget: int = 100_000, seed=0, mode: str = "auto") -> dict:
    """Mean T_rho(1_i - 1_j) over a few boundary points, per interface."""
    out = {}
    for (i, j) in p.all_interfaces():
        rep = first_variation_constancy(p, rho, i, j, n_probe, budget=budget,
                                        seed=[seed, i, j], mode=mode)
        out[(i, j)] = (rep.mean, rep.pointwise_error)
    return out


# ---------------------------------------------------------------------------
# volume-preservation hypothesis


def cell_volume_rates(p: PartitionSpec, field) -> tuple[np.ndarray, np.ndarray]:
    """First-order rate of change of each cell's Gaussian measure under the field.

    rate_i = sum over the cell's boundary of the gamma-weighted integral of
    the field's exterior-normal component.
    """
    rates, errs = np.zeros((2, p.m))
    for i in range(p.m):
        for facet, sign in p.cell_boundary(i):
            est = facet.gauss_integral(_facet_field(field, facet, sign))
            rates[i], errs[i] = rates[i] + est.value, errs[i] + est.std_error
    return rates, errs


def check_volume_condition(p: PartitionSpec, field, rho=None, *, tol: float = VOLUME_TOL,
                           policy: str = "relaxed", seed=0) -> str:
    """Enforce the volume-preservation hypothesis for a variation field.

    "strict" demands near-zero per-cell volume rates.  "relaxed" additionally
    accepts stability-critical partitions (all first-variation constants
    ~ 0), where the constants multiply every volume-dependent term of the
    second-variation formulas, so the formulas remain exact for the raw flow.
    "skip" bypasses the check (negative controls).
    """
    if policy == "skip":
        return "skipped"
    rates, errs = cell_volume_rates(p, field)
    if np.all(np.abs(rates) <= tol + 3 * errs):
        return "volume-preserved"
    if policy == "relaxed" and rho is not None:
        consts = first_variation_constants(p, rho, seed=seed)
        if consts and all(abs(c) <= 1e-4 + 3 * e for c, e in consts.values()):
            return "critical-partition"
    raise VolumeConditionError(
        f"field changes cell volumes at first order (rates {np.round(rates, 6).tolist()})"
    )


# ---------------------------------------------------------------------------
# almost-eigenfunction residuals


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    tolerance: float
    lhs: np.ndarray
    rhs: np.ndarray
    points: np.ndarray
    interface: tuple[int, int]

    def entries(self) -> list[dict]:
        return [
            {
                "interface": list(self.interface),
                "point": self.points[k].tolist(),
                "lhs": float(self.lhs[k]),
                "rhs": float(self.rhs[k]),
                "residual": float(abs(self.lhs[k] - self.rhs[k])),
                "tolerance": self.tolerance,
            }
            for k in range(len(self.lhs))
        ]


def translation_eigen_residual(p: PartitionSpec, rho, v, i: int, j: int,
                               n_points: int = 40, *, budget: int = 100_000,
                               seed=0, mode: str = "auto") -> ResidualReport:
    """Residual of S_ij(<v,N>) = <v,N_ij> (1/rho) ||grad T_rho(1_i - 1_j)||."""
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)
    sample = p.boundary_sample(i, j, n_points, seed=seed)
    lhs = _s_values(p, r, ((i, 1.0), (j, -1.0)), TranslationField(vv), sample.points, mode=mode,
                    budget=budget, seed=[seed, 3])
    g = _gradient_norms(SignedDifference(p.cells[i], p.cells[j]), r, sample.points, budget=budget,
                        seed=[seed, 4], mode=mode)
    vn = sample.normals @ vv / r
    err = lhs.std_error + np.abs(vn) * g.std_error
    return ResidualReport(float(np.abs(lhs.value - vn * g.value).max()), 3 * float(err.max()) + 1e-9,
                          lhs.value, vn * g.value, sample.points, (i, j))


def dilation_eigen_residual(p: PartitionSpec, rho, i: int, j: int,
                            n_points: int = 40, *, budget: int = 100_000,
                            seed=0, mode: str = "auto",
                            rhs_mode: str | None = None) -> ResidualReport:
    """Residual of the dilation identity

        S_ij(<.,N>)(x) - <x,N_ij> ||grad T_rho(1_i-1_j)(x)||
            = (1/rho^2 - 1) ( <x,N_ij> ||grad T_rho(1_i-1_j)(x)||
                              + rho d/drho T_rho(1_i-1_j)(x) ).

    The left side uses the surface operator and the gradient norm; the right
    side's rho-derivative comes from an independent estimator: the closed form
    in one call over the whole sample, or the heat identity by Monte Carlo per
    point, as ``rhs_mode`` (default ``mode``; see :func:`noiselab.gauss.route`) picks.
    """
    r = as_rho(rho, nonzero=True)
    diff = SignedDifference(p.cells[i], p.cells[j])
    sample = p.boundary_sample(i, j, n_points, seed=seed)
    s_est = _s_values(p, r, ((i, 1.0), (j, -1.0)), RadialField(), sample.points, mode=mode,
                      budget=budget, seed=[seed, 5])
    g = _gradient_norms(diff, r, sample.points, budget=budget, seed=[seed, 6], mode=mode)
    dr = route(mode if rhs_mode is None else rhs_mode,
               lambda: ou_rho_derivative_exact(diff, r, sample.points),
               lambda: _stacked([ou_rho_derivative_heat(diff, r, x, budget, seed=[seed, 7, k])
                                 for k, x in enumerate(sample.points)], len(sample.points)))
    coef = 1.0 / (r * r) - 1.0
    xn = np.einsum("ij,ij->i", sample.points, sample.normals)
    lhs = s_est.value - xn * g.value
    rhs = coef * (xn * g.value + r * dr.value)
    err = s_est.std_error + np.abs(xn) * (1 + coef) * g.std_error + coef * r * dr.std_error
    return ResidualReport(float(np.abs(lhs - rhs).max()), 3 * float(err.max()) + 1e-9, lhs, rhs,
                          sample.points, (i, j))


# ---------------------------------------------------------------------------
# second variations


def _gradient_norms(s, r: float, pts: np.ndarray, *, budget: int, seed, mode: str) -> VectorEstimate:
    """||grad T_rho 1_s|| at each row of pts, with first-order error propagation."""
    g = _gradient(s, r, pts, budget=budget, seed=seed, mode=mode)
    return VectorEstimate(np.linalg.norm(g.value, axis=1), np.sqrt(np.sum(g.std_error**2, axis=1)),
                          g.samples, g.method)


def _form(field, terms) -> Estimate:
    """The sum over (c, facet, k, values, budget, seed) in ``terms`` of c times
    :meth:`Facet.gauss_integral` of f^k values(points) against gamma_d, f the
    field on the facet; the errors of the VectorEstimate ``values`` returns,
    times |f|^k, join the error figure, and any draws (a sampled facet's among
    them) make it Monte Carlo."""
    total, err, draws = 0.0, 0.0, []
    for c, facet, k, values, budget, seed in terms:

        def h(pts):
            w, est = _on_facet(field, facet, pts) ** k, values(pts)
            draws.append(est.samples)
            return w * est.value, np.abs(w) * est.std_error

        est = facet.gauss_integral(h, budget=budget, seed=seed)
        total, err = total + c * float(est.value), err + abs(c) * float(est.std_error)
        draws.append(est.samples)
    return Estimate(total, err, sum(draws), MONTE_CARLO if sum(draws) else QUADRATURE)


def _translation_form(pairs, r: float, vv: np.ndarray, coef: float, *, budget: int, seed,
                      mode: str, tags: tuple[int, int]) -> Estimate:
    """coef times the sum over (own, other) in ``pairs`` and interfaces Sigma_ij
    of ``own`` of the integral of ||grad T_rho(1_{other_i} - 1_{other_j})|| <v, N_ij>^2
    dgamma."""
    terms = []
    for own, other in pairs:
        for (i, j), facets in own.all_interfaces().items():
            diff = SignedDifference(other.cells[i], other.cells[j])
            terms += [(coef, facet, 2, partial(_gradient_norms, diff, r, budget=budget, mode=mode,
                                                seed=[seed, tags[0], fk]),
                       max(budget // 1000, 200), [seed, tags[1], fk])
                      for fk, facet in enumerate(facets) if facet.normal @ vv != 0.0 and facet.mass]
    return _form(TranslationField(vv), terms)


def second_variation_translation(p: PartitionSpec, rho, v, *, budget: int = 100_000,
                                 seed=0, mode: str = "auto",
                                 volume_policy: str = "relaxed") -> Estimate:
    """Closed-form second derivative of stability under translation by v:

        (1/2) d^2/ds^2 = (1/rho - 1) * sum_{i<j} integral over Sigma_ij of
                          ||grad T_rho(1_i - 1_j)|| <v, N_ij>^2 dgamma.
    """
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)
    check_volume_condition(p, TranslationField(vv), rho=r, policy=volume_policy, seed=seed)
    return _translation_form(((p, p),), r, vv, 1.0 / r - 1.0, budget=budget, seed=seed, mode=mode,
                             tags=(8, 9))


def second_variation_general(p: PartitionSpec, rho, field, *, budget: int = 200_000,
                             seed=0, mode: str = "auto",
                             volume_policy: str = "relaxed") -> Estimate:
    """Quadratic form of the second variation for a volume-preserving field.

    Two cells: integral over Sigma x Sigma of G f f minus the gradient-norm
    term, for the first cell's single boundary.  More cells: the sum over
    interfaces of S_ij(f) f_ij minus gradient-norm terms.  S and the gradients
    follow ``mode``; the result reports Monte Carlo and its draws when any of
    them was sampled.
    """
    r = as_rho(rho, nonzero=True)
    check_volume_condition(p, field, rho=r, policy=volume_policy, seed=seed)
    terms = []
    for (i, j), facets in p.all_interfaces().items():
        # two cells: S over cell 0's boundary and the gradient of T_rho 1_0, so
        # a field given without regard to the normal's orientation counts once
        cells = ((0, 1.0),) if p.m == 2 else ((i, 1.0), (j, -1.0))
        s = p.cells[0] if p.m == 2 else SignedDifference(p.cells[i], p.cells[j])
        for fk, facet in enumerate(facets):
            facet_budget = max(budget // 1000, 200)
            terms += [(1.0, facet, 1, partial(_s_values, p, r, cells, field, mode=mode, budget=budget,
                                              seed=[seed, 10, fk]), facet_budget, [seed, 12, fk]),
                      (-1.0, facet, 2, partial(_gradient_norms, s, r, budget=budget, mode=mode,
                                               seed=[seed, 11, fk]), facet_budget, [seed, 13, fk])]
    return _form(field, terms)


def g_form_value(p: PartitionSpec, rho, field, *, seed=0) -> Estimate:
    """The double-surface term alone: integral of G(x,y) f(x) f(y) over
    Sigma x Sigma for the first cell's boundary (positive semidefinite)."""
    r = as_rho(rho, nonzero=True)
    cross = partial(_s_values, p, r, ((0, 1.0),), field, mode="auto", budget=20_000, seed=[seed, 18])
    return _form(field, [(1.0, facet, 1, cross, 2000, [seed, 19, fk])
                         for fk, facet in enumerate(p.interface_facets(0, 1))])


# ---------------------------------------------------------------------------
# finite-difference oracles and the mixed-derivative probe


#: Richardson extrapolation of central differences in s from steps h and 2h: integer
#: weights over 12 h^2 (order 0) or 12 h (order 1) on the values at s = k h, of the
#: extrapolated difference and of its error term, 2/3 of the two differences' gap
_RICHARDSON = ({-2: (-1, -2), -1: (16, 8), 0: (-30, -12), 1: (16, 8), 2: (-1, -2)},
               {-2: (1, 2), -1: (-8, -4), 1: (8, 4), 2: (-1, -2)})


def _flow_difference(moved, rho: float, order: int, *, budget: int, seed, mode: str,
                     n_shards: int, threads: int = 1) -> Estimate:
    """d^2/ds^2 (order 0) or d^2/(ds drho) (order 1) at s = 0 of sum_i P(X in p_i,
    Y in q_i), (p, q) = moved(s), as ``mode`` (see :func:`noiselab.gauss.route`)
    picks: :data:`_RICHARDSON` on the exact P or d/drho P, one
    :func:`noiselab.stability._pair_rule` call over the cell pairs per stencil
    point, with h = H_S_QUADRATURE, its error term plus the values' errors
    through |weights| as the error figure; else
    shared-seed Monte Carlo over an (s, rho) grid with steps H_S_MONTE_CARLO and
    H_RHO_MONTE_CARLO (1 - |rho|), the standard error across shards plus h^2.
    The mixed derivative needs rho -+ its rho step inside (0, 1) on both routes."""
    hr = H_RHO_MONTE_CARLO * (1 - abs(rho))
    if order and not (0.0 < rho - hr and rho + hr < 1.0):
        raise DomainError("rho step leaves (0, 1)")

    def deterministic():
        h, stencil = H_S_QUADRATURE, _RICHARDSON[order]
        ests = [_pair_rule(_tiled_pairs(*moved(k * h)), [rho], drho=bool(order))[0]
                for k in stencil]
        if any(e is None for e in ests):
            return None
        (w, gap), scale = np.array(list(stencil.values())).T, 12 * h ** (2 - order)
        vals, errs = np.array([(e.value, e.std_error) for e in ests]).T
        vals = vals - vals[0]  # the weights add up to 0, and nearby values subtract exactly
        return Estimate(float(w @ vals) / scale, float(abs(gap @ vals) + np.abs(w) @ errs) / scale,
                        0, QUADRATURE)

    def sampled():
        h = H_S_MONTE_CARLO
        grid = ({s: [rho - hr, rho + hr] for s in (-h, h)} if order else
                {-h: [rho], 0.0: [rho], h: [rho]})
        # every grid point reuses the seed, so all see identical draws and the
        # quotient's variance stays bounded as the steps shrink; each flowed
        # partition classifies X once for all its rhos
        means = {}
        for s, rrs in grid.items():
            cols, shard = mc_shard_means(agreement_values(*moved(s), rrs), budget, seed=seed,
                                         n_shards=n_shards, threads=threads)
            means[s] = cols.T
        if order:
            (a, b), (c, d) = means[-h], means[h]
            diffs = (d - b - c + a) / (4 * h * hr)
        else:
            diffs = (means[h][0] - 2 * means[0.0][0] + means[-h][0]) / (h * h)
        se = float(diffs.std(ddof=1) / math.sqrt(n_shards))
        return Estimate(float(diffs.mean()), se + h * h, n_shards * shard, MONTE_CARLO)

    return route(mode, deterministic, sampled)


def _flowed(p: PartitionSpec, field):
    """``moved`` of :func:`_flow_difference` for the stability of p under the field's flow."""
    return lambda s: (field.flowed(p, s) if s else p,) * 2


def stability_second_derivative(p: PartitionSpec, rho, field, *, budget: int = 2_000_000,
                                seed=0, mode: str = "auto", n_shards: int = 32,
                                threads: int = 1) -> Estimate:
    """d^2/ds^2 at s = 0 of the partition stability under the field's flow, by
    :func:`_flow_difference`.  Note this is the full second derivative (no 1/2)."""
    return _flow_difference(_flowed(p, field), as_rho(rho), 0, budget=budget, seed=seed, mode=mode,
                            n_shards=n_shards, threads=threads)


@dataclass(frozen=True)
class HyperstabilityReport:
    second_s: Estimate
    mixed_s_rho: Estimate


def hyperstability_probe(p: PartitionSpec, rho, field, *, budget: int = 2_000_000,
                         seed=0, mode: str = "auto", n_shards: int = 32,
                         threads: int = 1, volume_policy: str = "relaxed") -> HyperstabilityReport:
    """Pure second s-derivative and mixed (s, rho) derivative of stability, by
    :func:`_flow_difference`.  A critical partition is hyperstable when it is
    critical for d/drho too, and then the mixed derivative vanishes.  The
    deterministic route differences the exact d/drho of stability in s only.
    """
    r = as_rho(rho, nonzero=True)
    check_volume_condition(p, field, rho=r, policy=volume_policy, seed=seed)
    route_args = dict(budget=budget, seed=seed, mode=mode, n_shards=n_shards, threads=threads)
    mixed = _flow_difference(_flowed(p, field), r, 1, **route_args)  # first: it checks rho
    return HyperstabilityReport(stability_second_derivative(p, r, field, **route_args), mixed)


# ---------------------------------------------------------------------------
# bilinear (two-partition) suite


def bilinear_second_derivative(p: PartitionSpec, q: PartitionSpec, rho, v, *,
                               budget: int = 2_000_000, seed=0, mode: str = "auto",
                               n_shards: int = 32) -> Estimate:
    """d^2/ds^2 of the bilinear stability when both partitions translate by s v."""
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)

    def moved(s):
        return (p.translated(s * vv), q.translated(s * vv)) if s else (p, q)

    return _flow_difference(moved, r, 0, budget=budget, seed=seed, mode=mode, n_shards=n_shards)


def bilinear_translation_form(p: PartitionSpec, q: PartitionSpec, rho, v, *,
                              budget: int = 100_000, seed=0, mode: str = "auto") -> Estimate:
    """Closed-form bilinear translation second variation:

        (-1/rho + 1) * [ sum_{i<j} int_{Sigma_ij(p)} ||grad T_rho(1_{q_i}-1_{q_j})|| <v,N>^2 dgamma
                       + sum_{i<j} int_{Sigma_ij(q)} ||grad T_rho(1_{p_i}-1_{p_j})|| <v,N'>^2 dgamma ].

    Nonpositive for rho in (0, 1).
    """
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)
    return _translation_form(((p, q), (q, p)), r, vv, -1.0 / r + 1.0, budget=budget, seed=seed,
                             mode=mode, tags=(20, 21))


@dataclass(frozen=True)
class BilinearReport:
    eigen_max_residual: float
    eigen_tolerance: float
    sign_min_normal_component: float
    sign_max_tangential: float
    translation_form: Estimate
    translation_fd: Estimate


def bilinear_variation_suite(p: PartitionSpec, q: PartitionSpec, rho, *,
                             v=None, n_points: int = 20, budget: int = 200_000,
                             seed=0, mode: str = "auto") -> BilinearReport:
    """Identity residuals and sign checks for a candidate bilinear pair.

    Checks, for points x on the second partition's interfaces Sigma'_ij:
    the bilinear translation identity
    S_ij(<v,N>)(x) = -<v, N'_ij(x)> (1/rho) ||grad T_rho(1_{p_i}-1_{p_j})(x)||,
    the sign condition grad T_rho(1_{p_i}-1_{p_j}) = +N'_ij ||grad ...||, and
    the closed-form translation second variation against its
    finite-difference oracle.
    """
    r = as_rho(rho, nonzero=True)
    if p.dim != q.dim or p.m != q.m:
        raise DomainError("bilinear pair must match in dimension and cell count")
    check_measure_match(p, q, seed=seed)
    vv = check_point(v if v is not None else np.eye(p.dim)[0], p.dim)
    field = TranslationField(vv)
    max_res, tol = 0.0, 0.0
    min_inner, max_tan = np.inf, 0.0
    for (i, j) in q.all_interfaces():
        sample = q.boundary_sample(i, j, n_points, seed=[seed, 22, i, j])
        s_est = _s_values(p, r, ((i, 1.0), (j, -1.0)), field, sample.points, mode=mode,
                          budget=budget, seed=[seed, 23])
        g = gradient_difference(p, i, j, r, sample.points, budget=budget, seed=[seed, 24], mode=mode)
        gn, gn_err = np.linalg.norm(g.value, axis=1), np.sqrt(np.sum(g.std_error**2, axis=1))
        vn = sample.normals @ vv / r
        max_res = max(max_res, float(np.abs(s_est.value + vn * gn).max()))
        tol = max(tol, float((s_est.std_error + np.abs(vn) * gn_err).max()))
        inner = np.einsum("ij,ij->i", g.value, sample.normals)
        tang = np.linalg.norm(g.value - inner[:, None] * sample.normals, axis=1)
        min_inner = min(min_inner, float(inner.min()))
        max_tan = max(max_tan, float((tang + g.std_error.sum(axis=1)).max()))
    closed = bilinear_translation_form(p, q, r, vv, budget=budget, seed=seed, mode=mode)
    fd = bilinear_second_derivative(p, q, r, vv, budget=budget, seed=seed, mode=mode)
    return BilinearReport(max_res, 3 * tol + 1e-9, float(min_inner), float(max_tan), closed, fd)

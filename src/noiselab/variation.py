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
reports residuals with combined error figures.  Deterministic quadrature is
preferred for the structured candidates in dimension <= 2, per the module's
accuracy policy; Monte Carlo covers everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .gauss import (
    MONTE_CARLO,
    QUADRATURE,
    DomainError,
    Estimate,
    SignedDifference,
    VectorEstimate,
    as_rho,
    check_point,
    make_seedseq,
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
from .stability import (
    _bilinear_quadrature,
    agreement_values,
    check_measure_match,
    partition_stability_quadrature,
)

VOLUME_TOL = 1e-6
#: default translation step for deterministic finite differences
H_S_QUADRATURE = 1e-3
#: default translation step for Monte Carlo finite differences; indicator
#: differencing needs a coarser step to keep the variance of the second
#: difference under control (it scales like h^(-3))
H_S_MONTE_CARLO = 0.05


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


def _field_const_on_facet(field, facet: Facet, sign: float):
    """The field's value when it is constant on the facet, else None."""
    if isinstance(field, TranslationField):
        return sign * float(facet.normal @ field.v)
    if isinstance(field, RadialField):
        # <y, sign * n> = sign * offset everywhere on the hyperplane
        return sign * facet.offset
    if isinstance(field, DilationField):
        # f = y_d <y, sign*n> = y_d * sign * offset varies with y_d unless it
        # vanishes identically (interfaces through the origin)
        if abs(facet.offset) < 1e-14:
            return 0.0
        return None
    return None


# ---------------------------------------------------------------------------
# surface operator


def _on_facet(field, facet: Facet, pts: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """The field's values at points of the facet, with normal sign * N."""
    return field.values(pts, np.tile(sign * facet.normal, (pts.shape[0], 1)))


def _facet_s(facet: Facet, sign: float, rho: float, field, x: np.ndarray, *, mode: str,
             budget: int, seed) -> Estimate:
    """The integral over the facet of f(y, sign*N) K_rho(y, x) dy, by a rule for
    point, interval and (for a constant field) unconstrained facets, or by
    Gaussian-importance Monte Carlo whose error adds the facet mass's own."""

    def deterministic():
        sig2 = 1.0 - rho * rho
        if facet.mass == 0.0:
            return Estimate(0.0, 0.0, 0, QUADRATURE)

        if facet.kind == "point":
            y = facet.base_point[None, :]
            val = float(_on_facet(field, facet, y, sign)[0] * mehler_kernel(y, x, rho)[0])
            return Estimate(val, 1e-15, 0, QUADRATURE)

        const = _field_const_on_facet(field, facet, sign)
        if const is not None and not facet.constraints:
            # unconstrained hyperplane: tangential Gaussian integrates out
            u = (facet.offset - rho * float(facet.normal @ x)) / math.sqrt(sig2)
            val = const * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi * sig2)
            return Estimate(val, 1e-14, 0, QUADRATURE)

        if facet.kind == "interval":
            lo = max(facet._lo, -40.0)
            hi = min(facet._hi, 40.0)

            def integrand(t):
                y = (facet.base_point + t * facet.tangents[0])[None, :]
                return float(_on_facet(field, facet, y, sign)[0] * mehler_kernel(y, x, rho)[0])

            val, err = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
            return Estimate(float(val), float(err) + 1e-14, 0, QUADRATURE)
        return None

    def sampled():
        rng = np.random.default_rng(make_seedseq(seed))
        pts = facet.sample(rng, budget)
        gam = np.exp(-0.5 * np.sum(pts * pts, axis=1)) * (2 * math.pi) ** (-facet.dim / 2)
        vals = _on_facet(field, facet, pts, sign) * mehler_kernel(pts, x, rho) / gam
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(budget)) if budget > 1 else 0.0
        return Estimate(facet.mass * mean, facet.mass * se + abs(mean) * facet.mass_err, budget,
                        MONTE_CARLO)

    return route(mode, deterministic, sampled)


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
    value, err, n_samp = 0.0, 0.0, 0
    for cell, cell_sign in ((i, 1.0), (j, -1.0)):
        for k, (facet, sign) in enumerate(p.cell_boundary(cell)):
            est = _facet_s(facet, sign, r, field, xv, mode=mode, budget=budget,
                           seed=[seed, cell, k])
            value += cell_sign * est.value
            err += est.std_error
            n_samp += est.samples
    return Estimate(value, err, n_samp, MONTE_CARLO if n_samp else QUADRATURE)


# ---------------------------------------------------------------------------
# pointwise building blocks for the identities


def t_difference(p: PartitionSpec, i: int, j: int, rho, x, *, budget: int = 200_000,
                 seed=0, mode: str = "auto") -> Estimate:
    """T_rho(1_i - 1_j)(x) by :func:`ou_apply`, with its ``mode``."""
    xv = check_point(x, p.dim)
    return ou_apply(SignedDifference(p.cells[i], p.cells[j]), rho, xv, budget, seed=seed,
                    mode=mode)


def _gradient_quadrature_or_none(s, r: float, xv: np.ndarray) -> VectorEstimate | None:
    # ou_gradient_quadrature raises where s has no exact T route; route() wants None
    try:
        return ou_gradient_quadrature(s, r, xv)
    except DomainError:
        return None


def gradient_difference(p: PartitionSpec, i: int, j: int, rho, x, *,
                        budget: int = 200_000, seed=0, mode: str = "auto") -> VectorEstimate:
    """grad T_rho(1_i - 1_j)(x): the exact route of both cells, or Monte Carlo
    in moment form, as ``mode`` picks."""
    r = as_rho(rho, nonzero=True)
    xv = check_point(x, p.dim)
    diff = SignedDifference(p.cells[i], p.cells[j])
    return route(mode, lambda: _gradient_quadrature_or_none(diff, r, xv),
                 lambda: ou_gradient(diff, r, xv, budget, seed=seed))


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
    """
    as_rho(rho, nonzero=True)
    sample = p.boundary_sample(i, j, n_points, seed=seed)
    vals = np.empty(len(sample))
    err = 0.0
    for k in range(len(sample)):
        est = t_difference(p, i, j, rho, sample.points[k], budget=budget,
                           seed=[seed, k], mode=mode)
        vals[k] = est.value
        err = max(err, est.std_error)
    mean = float(vals.mean())
    return ConstancyReport(mean, float(np.abs(vals - mean).max()), err, vals, sample.points)


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
    rates = np.zeros(p.m)
    errs = np.zeros(p.m)
    for i in range(p.m):
        for facet, sign in p.cell_boundary(i):
            v, e = facet.gauss_integral(lambda pts: _on_facet(field, facet, pts, sign))
            rates[i] += v
            errs[i] += e
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
    field = TranslationField(vv)
    sample = p.boundary_sample(i, j, n_points, seed=seed)
    lhs = np.empty(len(sample))
    rhs = np.empty(len(sample))
    tol = 0.0
    for k in range(len(sample)):
        x = sample.points[k]
        s_est = sij_operator(p, r, i, j, field, x, mode=mode, seed=[seed, 3, k])
        g = gradient_difference(p, i, j, r, x, budget=budget, seed=[seed, 4, k], mode=mode)
        gn = g.norm_estimate()
        lhs[k] = s_est.value
        rhs[k] = float(vv @ sample.normals[k]) / r * gn.value
        tol = max(tol, s_est.std_error + abs(float(vv @ sample.normals[k])) / r * gn.std_error)
    return ResidualReport(float(np.abs(lhs - rhs).max()), 3 * tol + 1e-9, lhs, rhs,
                          sample.points, (i, j))


def dilation_eigen_residual(p: PartitionSpec, rho, i: int, j: int,
                            n_points: int = 40, *, budget: int = 100_000,
                            seed=0, mode: str = "auto",
                            rhs_mode: str | None = None) -> ResidualReport:
    """Residual of the dilation identity

        S_ij(<.,N>)(x) - <x,N_ij> ||grad T_rho(1_i-1_j)(x)||
            = (1/rho^2 - 1) ( <x,N_ij> ||grad T_rho(1_i-1_j)(x)||
                              + rho d/drho T_rho(1_i-1_j)(x) ).

    The left side uses the surface operator and the gradient norm; the right
    side's rho-derivative comes from an independent estimator: the exact
    route's central difference in rho, or the heat identity by Monte Carlo,
    as ``rhs_mode`` (default ``mode``; see :func:`noiselab.gauss.route`) picks.
    """
    r = as_rho(rho, nonzero=True)
    field = RadialField()
    diff = SignedDifference(p.cells[i], p.cells[j])
    sample = p.boundary_sample(i, j, n_points, seed=seed)
    lhs = np.empty(len(sample))
    rhs = np.empty(len(sample))
    tol = 0.0
    coef = 1.0 / (r * r) - 1.0
    for k in range(len(sample)):
        x = sample.points[k]
        xn = float(x @ sample.normals[k])
        s_est = sij_operator(p, r, i, j, field, x, mode=mode, seed=[seed, 5, k])
        g = gradient_difference(p, i, j, r, x, budget=budget, seed=[seed, 6, k], mode=mode).norm_estimate()
        dr = route(mode if rhs_mode is None else rhs_mode, lambda: ou_rho_derivative_exact(diff, r, x),
                   lambda: ou_rho_derivative_heat(diff, r, x, budget, seed=[seed, 7, k]))
        lhs[k] = s_est.value - xn * g.value
        rhs[k] = coef * (xn * g.value + r * dr.value)
        tol = max(tol, s_est.std_error + abs(xn) * (1 + coef) * g.std_error + coef * r * dr.std_error)
    return ResidualReport(float(np.abs(lhs - rhs).max()), 3 * tol + 1e-9, lhs, rhs,
                          sample.points, (i, j))


# ---------------------------------------------------------------------------
# second variations


def _translation_form(pairs, r: float, vv: np.ndarray, *, budget: int, seed, mode: str,
                      tags: tuple[int, int]) -> tuple[float, float]:
    """Sum over (own, other) in ``pairs`` and interfaces Sigma_ij of ``own`` of
    the integral of ||grad T_rho(1_{other_i} - 1_{other_j})|| <v, N_ij>^2 dgamma,
    with its error figure."""
    total, err = 0.0, 0.0
    for own, other in pairs:
        for (i, j), facets in own.all_interfaces().items():
            for fk, facet in enumerate(facets):
                vn2 = float(facet.normal @ vv) ** 2
                if vn2 == 0.0 or facet.mass == 0.0:
                    continue

                def h(pts):
                    return np.array([
                        vn2 * gradient_difference(other, i, j, r, x, budget=budget,
                                                  seed=[seed, tags[0], fk], mode=mode)
                        .norm_estimate().value
                        for x in pts
                    ])

                val, e = facet.gauss_integral(h, budget=max(budget // 1000, 200),
                                              seed=[seed, tags[1], fk])
                total += val
                err += e
    return total, err


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
    total, err = _translation_form(((p, p),), r, vv, budget=budget, seed=seed, mode=mode,
                                   tags=(8, 9))
    coef = 1.0 / r - 1.0
    return Estimate(coef * total, abs(coef) * (err + 1e-9), 0, QUADRATURE)


def second_variation_general(p: PartitionSpec, rho, field, *, budget: int = 200_000,
                             seed=0, mode: str = "auto",
                             volume_policy: str = "relaxed") -> Estimate:
    """Quadratic form of the second variation for a volume-preserving field.

    Two cells: integral over Sigma x Sigma of G f f minus the gradient-norm
    term, for the first cell's single boundary.  More cells: the sum over
    interfaces of S_ij(f) f_ij minus gradient-norm terms.
    """
    r = as_rho(rho, nonzero=True)
    check_volume_condition(p, field, rho=r, policy=volume_policy, seed=seed)
    if p.m == 2:
        return _second_variation_two_cells(p, r, field, budget=budget, seed=seed, mode=mode)
    total, err = 0.0, 0.0
    for (i, j), facets in p.all_interfaces().items():
        for fk, facet in enumerate(facets):

            def h_cross(pts):
                out = np.empty(pts.shape[0])
                fv = _on_facet(field, facet, pts)
                for k in range(pts.shape[0]):
                    out[k] = fv[k] * sij_operator(p, r, i, j, field, pts[k],
                                                  mode=mode, seed=[seed, 10, fk]).value
                return out

            def h_grad(pts):
                fv = _on_facet(field, facet, pts)
                return np.array([
                    fv[k] ** 2 * gradient_difference(p, i, j, r, pts[k], budget=budget,
                                                     seed=[seed, 11, fk], mode=mode)
                    .norm_estimate().value
                    for k in range(pts.shape[0])
                ])

            v1, e1 = facet.gauss_integral(h_cross, budget=max(budget // 1000, 200), seed=[seed, 12, fk])
            v2, e2 = facet.gauss_integral(h_grad, budget=max(budget // 1000, 200), seed=[seed, 13, fk])
            total += v1 - v2
            err += e1 + e2
    return Estimate(total, err + 1e-9, 0, QUADRATURE)


def _cross_term(p: PartitionSpec, r: float, field, facet: Facet, seed):
    """x -> f(x) S(f)(x) on ``facet``, with S integrated over the whole
    boundary of cell 0 by facet quadrature."""

    def h(pts):
        fv = _on_facet(field, facet, pts)
        out = np.empty(pts.shape[0])
        for k in range(pts.shape[0]):
            out[k] = fv[k] * sum(
                _facet_s(f2, sign, r, field, pts[k], mode="auto", budget=20_000,
                         seed=[seed, gk]).value
                for gk, (f2, sign) in enumerate(p.cell_boundary(0))
            )
        return out

    return h


def _second_variation_two_cells(p, r, field, *, budget, seed, mode) -> Estimate:
    cell = p.cells[0]
    total, toterr = 0.0, 0.0
    for fk, facet in enumerate(p.interface_facets(0, 1)):

        def h_grad(pts):
            fv = _on_facet(field, facet, pts)
            out = np.empty(pts.shape[0])
            for k in range(pts.shape[0]):
                g = route(mode, lambda: _gradient_quadrature_or_none(cell, r, pts[k]),
                          lambda: ou_gradient(cell, r, pts[k], budget, seed=[seed, 15, fk]))
                out[k] = fv[k] ** 2 * g.norm_estimate().value
            return out

        v1, e1 = facet.gauss_integral(_cross_term(p, r, field, facet, [seed, 14]),
                                      budget=max(budget // 1000, 200), seed=[seed, 16, fk])
        v2, e2 = facet.gauss_integral(h_grad, budget=max(budget // 1000, 200), seed=[seed, 17, fk])
        total += v1 - v2
        toterr += e1 + e2
    return Estimate(total, toterr + 1e-9, 0, QUADRATURE)


def g_form_value(p: PartitionSpec, rho, field, *, seed=0) -> Estimate:
    """The double-surface term alone: integral of G(x,y) f(x) f(y) over
    Sigma x Sigma for the first cell's boundary (positive semidefinite)."""
    r = as_rho(rho, nonzero=True)
    total, toterr = 0.0, 0.0
    for fk, facet in enumerate(p.interface_facets(0, 1)):
        v1, e1 = facet.gauss_integral(_cross_term(p, r, field, facet, [seed, 18]), budget=2000,
                                      seed=[seed, 19, fk])
        total += v1
        toterr += e1
    return Estimate(total, toterr + 1e-9, 0, QUADRATURE)


# ---------------------------------------------------------------------------
# finite-difference oracles and the mixed-derivative probe


def _flow_difference(moved, quadrature, stencil, combine, *, h_s, budget: int, seed,
                     mode: str, n_shards: int, threads: int = 1) -> Estimate:
    """Difference quotient ``combine(*values, step)`` of sum_i P(X in p_i, Y in q_i)
    over the (s, rho) points of ``stencil(step)``, with (p, q) = moved(s):
    ``quadrature(p, q, rho)`` Richardson-extrapolated from steps h and 2h, else
    shared-seed Monte Carlo with a coarser step and the standard error across
    shards, as ``mode`` (see :func:`noiselab.gauss.route`) picks."""

    def deterministic():
        values = {}

        def F(s, rr):
            if (s, rr) not in values:  # second differences share the centre
                est = quadrature(*moved(s), rr)
                values[(s, rr)] = None if est is None else est.value
            return values[(s, rr)]

        def at(step):
            vals = [F(s, rr) for s, rr in stencil(step)]
            return None if any(v is None for v in vals) else combine(*vals, step)

        h = h_s or H_S_QUADRATURE
        d_h = at(h)
        if d_h is None:
            return None
        d_2h = at(2 * h)  # Richardson extrapolation from steps h and 2h
        return Estimate(d_h + (d_h - d_2h) / 3.0, 2 * abs(d_h - d_2h) / 3.0 + 1e-5, 0, QUADRATURE)

    def sampled():
        h = h_s or H_S_MONTE_CARLO
        # every grid point reuses the seed, so all see identical draws and the
        # quotient's variance stays bounded as the steps shrink
        shards = [mc_shard_means(agreement_values(*moved(s), rr), budget, seed=seed,
                                 n_shards=n_shards, threads=threads) for s, rr in stencil(h)]
        diffs = combine(*(means for means, _ in shards), h)
        se = float(diffs.std(ddof=1) / math.sqrt(n_shards))
        return Estimate(float(diffs.mean()), se + h * h, n_shards * shards[0][1], MONTE_CARLO)

    return route(mode, deterministic, sampled)


def _second_difference(lo, mid, hi, step):
    return (hi - 2 * mid + lo) / (step * step)


def _stability_flow_difference(p: PartitionSpec, field, stencil, combine, **route) -> Estimate:
    """:func:`_flow_difference` for the stability of p under the field's flow."""

    def moved(s):
        ps = field.flowed(p, s) if s else p
        return ps, ps

    return _flow_difference(moved, lambda ps, _, rr: partition_stability_quadrature(ps, rr),
                            stencil, combine, **route)


def stability_second_derivative(p: PartitionSpec, rho, field, *, h_s: float | None = None,
                                budget: int = 2_000_000, seed=0, mode: str = "auto",
                                n_shards: int = 32, threads: int = 1) -> Estimate:
    """d^2/ds^2 at s = 0 of the partition stability under the field's flow.

    Deterministic route: Richardson-extrapolated central second differences of
    the quadrature stability (step 1e-3).  Monte Carlo route: shared-seed
    second differences with a coarser step, standard error across shards.
    Note this is the full second derivative (no 1/2).
    """
    r = as_rho(rho)
    return _stability_flow_difference(
        p, field, lambda step: [(-step, r), (0.0, r), (step, r)], _second_difference, h_s=h_s,
        budget=budget, seed=seed, mode=mode, n_shards=n_shards, threads=threads)


@dataclass(frozen=True)
class HyperstabilityReport:
    second_s: Estimate
    mixed_s_rho: Estimate


def hyperstability_probe(p: PartitionSpec, rho, field, *, budget: int = 2_000_000,
                         seed=0, mode: str = "auto", h_s: float | None = None,
                         h_rho: float | None = None, n_shards: int = 32,
                         threads: int = 1, volume_policy: str = "relaxed") -> HyperstabilityReport:
    """Pure second s-derivative and mixed (s, rho) derivative of stability.

    The mixed derivative is a central difference in rho of the central
    difference in s, all grid points evaluated with shared seeds (Monte Carlo
    mode) or by deterministic quadrature.  The probe is evaluated at the
    given rho; steps must keep rho +- h_rho inside (0, 1).
    """
    r = as_rho(rho, nonzero=True)
    check_volume_condition(p, field, rho=r, policy=volume_policy, seed=seed)
    hr = h_rho or (1e-3 * (1.0 - abs(r)))
    if not (0.0 < r - hr and r + hr < 1.0):
        raise DomainError("rho step leaves (0, 1)")

    d2s = stability_second_derivative(p, r, field, h_s=h_s, budget=budget, seed=seed,
                                      mode=mode, n_shards=n_shards, threads=threads)

    def stencil(step):
        return [(s, rr) for s in (-step, step) for rr in (r - hr, r + hr)]

    def mixed(a, b, c, d, step):
        return (d - b - c + a) / (4 * step * hr)

    return HyperstabilityReport(d2s, _stability_flow_difference(
        p, field, stencil, mixed, h_s=h_s, budget=budget, seed=seed, mode=mode,
        n_shards=n_shards, threads=threads))


# ---------------------------------------------------------------------------
# bilinear (two-partition) suite


def bilinear_second_derivative(p: PartitionSpec, q: PartitionSpec, rho, v, *,
                               h_s: float | None = None, budget: int = 2_000_000,
                               seed=0, mode: str = "auto", n_shards: int = 32) -> Estimate:
    """d^2/ds^2 of the bilinear stability when both partitions translate by s v."""
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)

    def moved(s):
        return (p.translated(s * vv), q.translated(s * vv)) if s else (p, q)

    return _flow_difference(moved, _bilinear_quadrature,
                            lambda step: [(-step, r), (0.0, r), (step, r)], _second_difference,
                            h_s=h_s, budget=budget, seed=seed, mode=mode, n_shards=n_shards)


def bilinear_translation_form(p: PartitionSpec, q: PartitionSpec, rho, v, *,
                              budget: int = 100_000, seed=0, mode: str = "auto") -> Estimate:
    """Closed-form bilinear translation second variation:

        (-1/rho + 1) * [ sum_{i<j} int_{Sigma_ij(p)} ||grad T_rho(1_{q_i}-1_{q_j})|| <v,N>^2 dgamma
                       + sum_{i<j} int_{Sigma_ij(q)} ||grad T_rho(1_{p_i}-1_{p_j})|| <v,N'>^2 dgamma ].

    Nonpositive for rho in (0, 1).
    """
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)
    total, err = _translation_form(((p, q), (q, p)), r, vv, budget=budget, seed=seed, mode=mode,
                                   tags=(20, 21))
    coef = -1.0 / r + 1.0
    return Estimate(coef * total, abs(coef) * (err + 1e-9), 0, QUADRATURE)


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
        for k in range(len(sample)):
            x = sample.points[k]
            nprime = sample.normals[k]
            s_est = sij_operator(p, r, i, j, field, x, mode=mode, seed=[seed, 23, k])
            g = gradient_difference(p, i, j, r, x, budget=budget, seed=[seed, 24, k], mode=mode)
            gn = g.norm_estimate()
            rhs = -float(vv @ nprime) / r * gn.value
            max_res = max(max_res, abs(s_est.value - rhs))
            tol = max(tol, s_est.std_error + abs(float(vv @ nprime)) / r * gn.std_error)
            inner = float(g.value @ nprime)
            tang = float(np.linalg.norm(g.value - inner * nprime))
            min_inner = min(min_inner, inner)
            max_tan = max(max_tan, tang + float(np.sum(g.std_error)))
    closed = bilinear_translation_form(p, q, r, vv, budget=budget, seed=seed, mode=mode)
    fd = bilinear_second_derivative(p, q, r, vv, budget=budget, seed=seed, mode=mode)
    return BilinearReport(max_res, 3 * tol + 1e-9, float(min_inner), float(max_tan), closed, fd)

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
    QUADRATURE,
    DomainError,
    Estimate,
    VectorEstimate,
    as_rho,
    check_point,
    make_seedseq,
    mc_shard_means,
    mehler_kernel,
    ou_gradient,
    ou_gradient_quadrature,
    rho_step,
)
from .partitions import BoundarySample, Facet, PartitionSpec

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


def _facet_s_quadrature(facet: Facet, sign: float, rho: float, field, x: np.ndarray,
                        *, budget: int = 20_000, seed=0) -> tuple[float, float]:
    """(integral over the facet of f(y, sign*N) K_rho(y, x) dy, error figure)."""
    sig2 = 1.0 - rho * rho
    if facet.mass == 0.0:
        return 0.0, 0.0

    def f_of(pts):
        return field.values(pts, np.tile(sign * facet.normal, (pts.shape[0], 1)))

    if facet.kind == "point":
        y = facet.base_point[None, :]
        return float(f_of(y)[0] * mehler_kernel(y, x, rho)[0]), 1e-15

    const = _field_const_on_facet(field, facet, sign)
    if const is not None and not facet.constraints:
        # unconstrained hyperplane: tangential Gaussian integrates out
        u = (facet.offset - rho * float(facet.normal @ x)) / math.sqrt(sig2)
        val = const * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi * sig2)
        return val, 1e-14

    if facet.kind == "interval":
        lo = max(facet._lo, -40.0)
        hi = min(facet._hi, 40.0)

        def integrand(t):
            y = (facet.base_point + t * facet.tangents[0])[None, :]
            return float(f_of(y)[0] * mehler_kernel(y, x, rho)[0])

        val, err = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        return float(val), float(err) + 1e-14

    # no deterministic rule: Gaussian-importance Monte Carlo on the facet
    rng = np.random.default_rng(make_seedseq(seed))
    pts = facet.sample(rng, budget)
    gam = np.exp(-0.5 * np.sum(pts * pts, axis=1)) * (2 * math.pi) ** (-facet.dim / 2)
    vals = f_of(pts) * mehler_kernel(pts, x, rho) / gam
    se = float(np.std(vals, ddof=1) / math.sqrt(budget))
    return facet.mass * float(np.mean(vals)), facet.mass * se


def s_operator(boundary, rho, field, x, *, mode: str = "monte-carlo") -> Estimate:
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
    return Estimate(value, math.sqrt(var), int(len(terms)), "monte-carlo")


def sij_operator(p: PartitionSpec, rho, i: int, j: int, field, x, *,
                 mode: str = "auto", budget: int = 40_000, seed=0) -> Estimate:
    """S_ij(f)(x): the boundary-of-cell-i minus boundary-of-cell-j operator.

    Integrates f(y, N(y)) K_rho(y, x) over each cell's full reduced boundary
    with its exterior normal orientation and takes the difference.
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x, p.dim)
    value, err, n_samp = 0.0, 0.0, 0
    used_mc = False
    for cell, cell_sign in ((i, 1.0), (j, -1.0)):
        for k, (facet, sign) in enumerate(p.cell_boundary(cell)):
            if mode in ("auto", "quadrature"):
                v, e = _facet_s_quadrature(facet, sign, r, field, xv,
                                           budget=budget, seed=[seed, cell, k])
            else:
                v, e = _facet_s_mc(facet, sign, r, field, xv, budget, [seed, cell, k])
                used_mc = True
                n_samp += budget
            value += cell_sign * v
            err += e
    return Estimate(value, err, n_samp, "monte-carlo" if used_mc else QUADRATURE)


def _facet_s_mc(facet, sign, rho, field, x, budget, seed):
    rng = np.random.default_rng(make_seedseq(seed))
    pts = facet.sample(rng, budget)
    nms = np.tile(sign * facet.normal, (budget, 1))
    gam = np.exp(-0.5 * np.sum(pts * pts, axis=1)) * (2 * math.pi) ** (-facet.dim / 2)
    vals = field.values(pts, nms) * mehler_kernel(pts, x, rho) / gam
    se = float(np.std(vals, ddof=1) / math.sqrt(budget)) if budget > 1 else 0.0
    return facet.mass * float(np.mean(vals)), facet.mass * se + abs(float(np.mean(vals))) * facet.mass_err


# ---------------------------------------------------------------------------
# pointwise building blocks for the identities


def t_difference(p: PartitionSpec, i: int, j: int, rho, x, *, budget: int = 200_000,
                 seed=0, mode: str = "auto") -> Estimate:
    """T_rho(1_i - 1_j)(x)."""
    r = as_rho(rho)
    xv = check_point(x, p.dim)
    ci, cj = p.cells[i], p.cells[j]
    if mode in ("auto", "exact"):
        ri = ci.ou_exact(r, xv)
        rj = cj.ou_exact(r, xv)
        if ri is not None and rj is not None:
            return Estimate(ri[0] - rj[0], ri[1] + rj[1], 0, QUADRATURE)
        if mode == "exact":
            raise DomainError("no exact T route for these cells")
    sig = math.sqrt(1.0 - r * r)

    def values(rng, k):
        y = r * xv + sig * rng.standard_normal((k, p.dim))
        return ci.contains(y).astype(float) - cj.contains(y).astype(float)

    from .gauss import mc_mean

    return mc_mean(values, budget, seed=seed)


def gradient_difference(p: PartitionSpec, i: int, j: int, rho, x, *,
                        budget: int = 200_000, seed=0, mode: str = "auto") -> VectorEstimate:
    """grad T_rho(1_i - 1_j)(x)."""
    r = as_rho(rho, nonzero=True)
    xv = check_point(x, p.dim)
    ci, cj = p.cells[i], p.cells[j]
    if mode in ("auto", "quadrature"):
        try:
            gi = ou_gradient_quadrature(ci, r, xv)
            gj = ou_gradient_quadrature(cj, r, xv)
            return VectorEstimate(gi.value - gj.value, gi.std_error + gj.std_error, 0, QUADRATURE)
        except DomainError:
            if mode == "quadrature":
                raise
    d = p.dim
    s = 1.0 - r * r
    sig = math.sqrt(s)

    def values(rng, k):
        y = r * xv + sig * rng.standard_normal((k, d))
        w = ci.contains(y).astype(float) - cj.contains(y).astype(float)
        return (r / s) * (y - r * xv) * w[:, None]

    from .gauss import mc_vector_mean

    return mc_vector_mean(values, budget, dim=d, seed=seed)


def t_rho_derivative_difference(p: PartitionSpec, i: int, j: int, rho, x, *,
                                budget: int = 200_000, seed=0, mode: str = "auto") -> Estimate:
    """d/drho of T_rho(1_i - 1_j)(x).

    Exact route: central differences of the deterministic T evaluation.
    Monte Carlo route: the heat identity (1/rho)(-Lap + <x, grad>) in moment
    form with shared draws (an estimator independent of the surface operator).
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x, p.dim)
    h = rho_step(r)
    if not (-1.0 < r - h and r + h < 1.0):
        raise DomainError("rho step leaves (-1, 1)")
    ci, cj = p.cells[i], p.cells[j]
    if mode in ("auto", "exact"):
        up_i = ci.ou_exact(r + h, xv)
        up_j = None if up_i is None else cj.ou_exact(r + h, xv)
        if up_j is not None:
            up = up_i[0] - up_j[0]
            dn = ci.ou_exact(r - h, xv)[0] - cj.ou_exact(r - h, xv)[0]
            return Estimate((up - dn) / (2 * h), h * h + 1e-11 / h, 0, QUADRATURE)
    if mode == "exact":
        raise DomainError("no exact T route for these cells")
    d = p.dim
    s = 1.0 - r * r
    sig = math.sqrt(s)

    def values(rng, k):
        y = r * xv + sig * rng.standard_normal((k, d))
        w = ci.contains(y).astype(float) - cj.contains(y).astype(float)
        centered = y - r * xv
        q = np.einsum("ij,ij->i", centered, centered)
        lap = (r * r / s) * (q / s - d) * w
        grad_dot_x = (r / s) * (centered @ xv) * w
        return (-lap + grad_dot_x) / r

    from .gauss import mc_mean

    return mc_mean(values, budget, seed=seed)


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
            def h(pts, _f=facet, _s=sign):
                return field.values(pts, np.tile(_s * _f.normal, (pts.shape[0], 1)))
            v, e = facet.gauss_integral(h)
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
    side's rho-derivative comes from an independent estimator.
    """
    r = as_rho(rho, nonzero=True)
    field = RadialField()
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
        dr = t_rho_derivative_difference(p, i, j, r, x, budget=budget, seed=[seed, 7, k],
                                         mode=rhs_mode or mode)
        lhs[k] = s_est.value - xn * g.value
        rhs[k] = coef * (xn * g.value + r * dr.value)
        tol = max(tol, s_est.std_error + abs(xn) * (1 + coef) * g.std_error + coef * r * dr.std_error)
    return ResidualReport(float(np.abs(lhs - rhs).max()), 3 * tol + 1e-9, lhs, rhs,
                          sample.points, (i, j))


# ---------------------------------------------------------------------------
# second variations


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
    total, err = 0.0, 0.0
    for (i, j), facets in p.all_interfaces().items():
        for fk, facet in enumerate(facets):
            vn2 = float(facet.normal @ vv) ** 2
            if vn2 == 0.0 or facet.mass == 0.0:
                continue

            def h(pts):
                return np.array([
                    vn2 * gradient_difference(p, i, j, r, q, budget=budget,
                                              seed=[seed, 8, fk], mode=mode).norm_estimate().value
                    for q in pts
                ])

            val, e = facet.gauss_integral(h, budget=max(budget // 1000, 200), seed=[seed, 9, fk])
            total += val
            err += e
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
                nm = np.tile(facet.normal, (pts.shape[0], 1))
                fv = field.values(pts, nm)
                for k in range(pts.shape[0]):
                    out[k] = fv[k] * sij_operator(p, r, i, j, field, pts[k],
                                                  mode=mode, seed=[seed, 10, fk]).value
                return out

            def h_grad(pts):
                nm = np.tile(facet.normal, (pts.shape[0], 1))
                fv = field.values(pts, nm)
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


def _second_variation_two_cells(p, r, field, *, budget, seed, mode) -> Estimate:
    facets = p.interface_facets(0, 1)
    cell = p.cells[0]

    def s_single(x):
        val, err = 0.0, 0.0
        for fk, (facet, sign) in enumerate(p.cell_boundary(0)):
            v, e = _facet_s_quadrature(facet, sign, r, field, x, seed=[seed, 14, fk])
            val += v
            err += e
        return val, err

    total, toterr = 0.0, 0.0
    for fk, facet in enumerate(facets):

        def h_cross(pts):
            nm = np.tile(facet.normal, (pts.shape[0], 1))
            fv = field.values(pts, nm)
            return np.array([fv[k] * s_single(pts[k])[0] for k in range(pts.shape[0])])

        def h_grad(pts):
            nm = np.tile(facet.normal, (pts.shape[0], 1))
            fv = field.values(pts, nm)
            out = np.empty(pts.shape[0])
            for k in range(pts.shape[0]):
                g = ou_gradient_quadrature(cell, r, pts[k]) if mode in ("auto", "quadrature") \
                    else ou_gradient(cell, r, pts[k], budget, seed=[seed, 15, fk])
                out[k] = fv[k] ** 2 * g.norm_estimate().value
            return out

        v1, e1 = facet.gauss_integral(h_cross, budget=max(budget // 1000, 200), seed=[seed, 16, fk])
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

        def h_cross(pts):
            nm = np.tile(facet.normal, (pts.shape[0], 1))
            fv = field.values(pts, nm)
            out = np.empty(pts.shape[0])
            for k in range(pts.shape[0]):
                val = 0.0
                for gk, (f2, sign) in enumerate(p.cell_boundary(0)):
                    v, _ = _facet_s_quadrature(f2, sign, r, field, pts[k], seed=[seed, 18, gk])
                    val += v
                out[k] = fv[k] * val
            return out

        v1, e1 = facet.gauss_integral(h_cross, budget=2000, seed=[seed, 19, fk])
        total += v1
        toterr += e1
    return Estimate(total, toterr + 1e-9, 0, QUADRATURE)


# ---------------------------------------------------------------------------
# finite-difference oracles and the mixed-derivative probe


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

    def F_quad(s):
        from .stability import partition_stability_quadrature

        est = partition_stability_quadrature(field.flowed(p, s) if s else p, r)
        return None if est is None else est.value

    if mode in ("auto", "quadrature"):
        h = h_s or H_S_QUADRATURE
        vals = [F_quad(s) for s in (-2 * h, -h, 0.0, h, 2 * h)]
        if all(v is not None for v in vals):
            d_h = (vals[3] - 2 * vals[2] + vals[1]) / (h * h)
            d_2h = (vals[4] - 2 * vals[2] + vals[0]) / (4 * h * h)
            extrap = d_h + (d_h - d_2h) / 3.0
            err = 2 * abs(d_h - d_2h) / 3.0 + 1e-5
            return Estimate(extrap, err, 0, QUADRATURE)
        if mode == "quadrature":
            raise DomainError("no quadrature stability route for this partition")

    h = h_s or H_S_MONTE_CARLO
    sig = math.sqrt(1.0 - r * r)
    grid = [field.flowed(p, s) if s else p for s in (-h, 0.0, h)]
    means = []
    for ps in grid:
        def values(rng, k, _ps=ps):
            x = rng.standard_normal((k, p.dim))
            y = r * x + sig * rng.standard_normal((k, p.dim))
            return (_ps.membership(x) == _ps.membership(y)).astype(float)

        m, _ = mc_shard_means(values, budget, seed=seed, n_shards=n_shards, threads=threads)
        means.append(m)
    diffs = (means[2] - 2 * means[1] + means[0]) / (h * h)
    se = float(diffs.std(ddof=1) / math.sqrt(n_shards))
    return Estimate(float(diffs.mean()), se + h * h, budget, "monte-carlo")


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

    from .stability import partition_stability_quadrature

    def F_quad(s, rr):
        est = partition_stability_quadrature(field.flowed(p, s) if s else p, rr)
        return None if est is None else est.value

    if mode in ("auto", "quadrature"):
        h = h_s or H_S_QUADRATURE

        def mixed_at(step):
            vals = {}
            for s in (-step, step):
                for rr in (r - hr, r + hr):
                    vals[(s, rr)] = F_quad(s, rr)
            if any(v is None for v in vals.values()):
                return None
            return (
                vals[(step, r + hr)]
                - vals[(-step, r + hr)]
                - vals[(step, r - hr)]
                + vals[(-step, r - hr)]
            ) / (4 * step * hr)

        m_h = mixed_at(h)
        if m_h is not None:
            m_2h = mixed_at(2 * h)
            extrap = m_h + (m_h - m_2h) / 3.0
            err = 2 * abs(m_h - m_2h) / 3.0 + 1e-5
            return HyperstabilityReport(d2s, Estimate(extrap, err, 0, QUADRATURE))
        if mode == "quadrature":
            raise DomainError("no quadrature stability route for this partition")

    h = h_s or H_S_MONTE_CARLO
    shard_means = {}
    for s in (-h, h):
        ps = field.flowed(p, s)
        for rr in (r - hr, r + hr):
            sig = math.sqrt(1.0 - rr * rr)

            def values(rng, k, _ps=ps, _rr=rr, _sig=sig):
                x = rng.standard_normal((k, p.dim))
                y = _rr * x + _sig * rng.standard_normal((k, p.dim))
                return (_ps.membership(x) == _ps.membership(y)).astype(float)

            m, _ = mc_shard_means(values, budget, seed=seed, n_shards=n_shards, threads=threads)
            shard_means[(s, rr)] = m
    mixed_shards = (
        shard_means[(h, r + hr)] - shard_means[(-h, r + hr)]
        - shard_means[(h, r - hr)] + shard_means[(-h, r - hr)]
    ) / (4 * h * hr)
    se = float(mixed_shards.std(ddof=1) / math.sqrt(n_shards))
    mixed = Estimate(float(mixed_shards.mean()), se + h * h, budget, "monte-carlo")
    return HyperstabilityReport(d2s, mixed)


# ---------------------------------------------------------------------------
# bilinear (two-partition) suite


def bilinear_second_derivative(p: PartitionSpec, q: PartitionSpec, rho, v, *,
                               h_s: float | None = None, budget: int = 2_000_000,
                               seed=0, mode: str = "auto", n_shards: int = 32) -> Estimate:
    """d^2/ds^2 of the bilinear stability when both partitions translate by s v."""
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)

    from .stability import _bilinear_quadrature

    def F_quad(s):
        est = _bilinear_quadrature(p.translated(s * vv) if s else p,
                                   q.translated(s * vv) if s else q, r)
        return None if est is None else est.value

    if mode in ("auto", "quadrature"):
        h = h_s or H_S_QUADRATURE
        vals = [F_quad(s) for s in (-2 * h, -h, 0.0, h, 2 * h)]
        if all(u is not None for u in vals):
            d_h = (vals[3] - 2 * vals[2] + vals[1]) / (h * h)
            d_2h = (vals[4] - 2 * vals[2] + vals[0]) / (4 * h * h)
            return Estimate(d_h + (d_h - d_2h) / 3.0, 2 * abs(d_h - d_2h) / 3.0 + 1e-5, 0, QUADRATURE)
        if mode == "quadrature":
            raise DomainError("no quadrature route for this pair")
    h = h_s or H_S_MONTE_CARLO
    sig = math.sqrt(1.0 - r * r)
    means = []
    for s in (-h, 0.0, h):
        ps = p.translated(s * vv) if s else p
        qs = q.translated(s * vv) if s else q

        def values(rng, k, _ps=ps, _qs=qs):
            x = rng.standard_normal((k, p.dim))
            y = r * x + sig * rng.standard_normal((k, p.dim))
            return (_ps.membership(x) == _qs.membership(y)).astype(float)

        m, _ = mc_shard_means(values, budget, seed=seed, n_shards=n_shards)
        means.append(m)
    diffs = (means[2] - 2 * means[1] + means[0]) / (h * h)
    return Estimate(float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(n_shards)) + h * h,
                    budget, "monte-carlo")


def bilinear_translation_form(p: PartitionSpec, q: PartitionSpec, rho, v, *,
                              budget: int = 100_000, seed=0, mode: str = "auto") -> Estimate:
    """Closed-form bilinear translation second variation:

        (-1/rho + 1) * [ sum_{i<j} int_{Sigma_ij(p)} ||grad T_rho(1_{q_i}-1_{q_j})|| <v,N>^2 dgamma
                       + sum_{i<j} int_{Sigma_ij(q)} ||grad T_rho(1_{p_i}-1_{p_j})|| <v,N'>^2 dgamma ].

    Nonpositive for rho in (0, 1).
    """
    r = as_rho(rho, nonzero=True)
    vv = check_point(v, p.dim)
    total, err = 0.0, 0.0
    for own, other in ((p, q), (q, p)):
        for (i, j), facets in own.all_interfaces().items():
            for fk, facet in enumerate(facets):
                vn2 = float(facet.normal @ vv) ** 2
                if vn2 == 0.0 or facet.mass == 0.0:
                    continue

                def h(pts):
                    return np.array([
                        vn2 * gradient_difference(other, i, j, r, x, budget=budget,
                                                  seed=[seed, 20, fk], mode=mode)
                        .norm_estimate().value
                        for x in pts
                    ])

                val, e = facet.gauss_integral(h, budget=max(budget // 1000, 200), seed=[seed, 21, fk])
                total += val
                err += e
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
    from .stability import check_measure_match

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

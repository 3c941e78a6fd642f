"""Gaussian-measure primitives and the Ornstein-Uhlenbeck operator.

Conventions used throughout the package:

    gamma_k(x) = (2*pi)**(-k/2) * exp(-||x||**2 / 2)

is the standard Gaussian density in R^k, and for a correlation rho in (-1, 1)
the Ornstein-Uhlenbeck averaging operator acts on bounded measurable f by

    T_rho f(x) = E f(rho*x + sqrt(1 - rho**2) * Z),    Z ~ gamma_d,

i.e. integration of f against a Gaussian centered at rho*x with covariance
(1 - rho**2) * I.  T_rho is not a semigroup, but T_a T_b = T_{a*b} for
a, b in (0, 1).  A correlated pair (X, Y) with E X_i Y_j = rho * 1_{i=j} is
realized as X ~ gamma_d, Y = rho*X + sqrt(1 - rho**2) * Z.

Every integrating operation returns an :class:`Estimate` (value, error figure,
sample count, method).  Monte Carlo estimators are pure functions of their
seed: the budget is cut into fixed-size shards, each shard draws from a
generator spawned from the root seed by counter, and partial sums are reduced
in shard order, so results are reproducible even when shards are evaluated by
a thread pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, owens_t

MONTE_CARLO = "monte-carlo"
QUADRATURE = "quadrature"
CLOSED_FORM = "closed-form"

#: evaluation radius for improper integrals; Gaussian mass beyond it is
#: far below double precision
TRUNCATION_RADIUS = 40.0

_SHARD = 1 << 17


class DomainError(ValueError):
    """An argument is outside the operation's documented domain."""


@dataclass(frozen=True)
class Correlation:
    """A noise correlation, strictly inside (-1, 1).

    Operations that carry a 1/rho factor additionally reject rho = 0; pass
    ``nonzero=True`` to :func:`as_rho` (or call :meth:`require_nonzero`)
    to get that check.
    """

    rho: float

    def __post_init__(self):
        r = self.rho
        if not math.isfinite(r) or not -1.0 < r < 1.0:
            raise DomainError(f"correlation must lie strictly in (-1, 1), got {r!r}")

    def require_nonzero(self) -> float:
        if self.rho == 0.0:
            raise DomainError("this operation divides by rho and rejects rho = 0")
        return self.rho


def as_rho(rho, *, nonzero: bool = False) -> float:
    """Validate a correlation given as a float or a :class:`Correlation`."""
    c = rho if isinstance(rho, Correlation) else Correlation(float(rho))
    return c.require_nonzero() if nonzero else c.rho


@dataclass(frozen=True)
class Estimate:
    """A numeric result with its error figure.

    ``std_error`` is the empirical standard error of the mean for Monte Carlo
    results and a deterministic error bound for quadrature and closed forms.
    """

    value: float
    std_error: float
    samples: int
    method: str

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        if self.method not in (MONTE_CARLO, QUADRATURE, CLOSED_FORM):
            raise ValueError(f"unknown method {self.method!r}")

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "method": self.method,
        }


@dataclass(frozen=True)
class VectorEstimate:
    """Componentwise estimate of a vector quantity."""

    value: np.ndarray
    std_error: np.ndarray
    samples: int
    method: str

    def norm_estimate(self) -> Estimate:
        """Estimate of the Euclidean norm, with first-order error propagation."""
        err = float(np.sqrt(np.sum(self.std_error**2)))
        return Estimate(float(np.linalg.norm(self.value)), err, self.samples, self.method)


def check_point(x, d: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally of prescribed length."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DomainError("expected a single point (1-d coordinate array)")
    if not np.all(np.isfinite(v)):
        raise DomainError("coordinates must be finite")
    if d is not None and v.shape[0] != d:
        raise DomainError(f"dimension mismatch: expected {d}, got {v.shape[0]}")
    return v


# ---------------------------------------------------------------------------
# densities and sampling


def gaussian_density(x, k: int | None = None) -> float:
    """Standard Gaussian density gamma_k at x; k defaults to len(x)."""
    v = check_point(x)
    if k is not None and k != v.shape[0]:
        raise DomainError(f"dimension mismatch: x has {v.shape[0]} coordinates, k={k}")
    k = v.shape[0]
    return (2.0 * math.pi) ** (-k / 2.0) * math.exp(-0.5 * float(v @ v))


def norm_pdf(a):
    return np.exp(-0.5 * np.square(a)) / math.sqrt(2.0 * math.pi)


def make_seedseq(seed) -> np.random.SeedSequence:
    """SeedSequence from an int or an arbitrarily nested tuple/list of ints."""
    if isinstance(seed, np.random.SeedSequence):
        return seed

    def flat(s):
        if isinstance(s, (list, tuple)):
            for t in s:
                yield from flat(t)
        elif s is None:
            yield 0
        else:
            yield int(s)

    return np.random.SeedSequence(list(flat(seed)))


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one root seed, by counter."""
    return [np.random.default_rng(child) for child in make_seedseq(seed).spawn(n)]


def sample_correlated_pair(rho, d: int, n: int = 1, *, seed=0):
    """Draw n correlated standard Gaussian pairs (X, Y) in R^d.

    X ~ gamma_d and Y = rho*X + sqrt(1-rho^2)*Z with Z independent, so
    E X_i Y_j = rho * 1_{i=j}.  Deterministic given the seed.
    """
    r = as_rho(rho)
    if d < 1:
        raise DomainError("dimension must be >= 1")
    rng = np.random.default_rng(make_seedseq(seed))
    x = rng.standard_normal((n, d))
    z = rng.standard_normal((n, d))
    y = r * x + math.sqrt(1.0 - r * r) * z
    return x, y


def kernel_g(x, y, rho) -> float:
    """Two-point heat kernel against which noise stability is a double integral.

    G(x, y) = (1-rho^2)^(-d/2) (2 pi)^(-d)
              exp((-||x||^2 - ||y||^2 + 2 rho <x,y>) / (2 (1-rho^2))).

    Symmetric and strictly positive; integrating G(x, .) over a set equals
    gamma_d(x) * T_rho 1_set(x).
    """
    r = as_rho(rho)
    xv = check_point(x)
    yv = check_point(y, xv.shape[0])
    d = xv.shape[0]
    s = 1.0 - r * r
    expo = (-float(xv @ xv) - float(yv @ yv) + 2.0 * r * float(xv @ yv)) / (2.0 * s)
    return s ** (-d / 2.0) * (2.0 * math.pi) ** (-d) * math.exp(expo)


def mehler_kernel(y: np.ndarray, x: np.ndarray, rho: float) -> np.ndarray:
    """(1-rho^2)^(-d/2) (2 pi)^(-d/2) exp(-||y - rho x||^2 / (2(1-rho^2))).

    This is G(x, y) / gamma_d(x); it is the surface-operator kernel and the
    density of N(rho x, (1-rho^2) I) evaluated at y.  ``y`` may be (n, d).
    """
    d = x.shape[-1]
    s = 1.0 - rho * rho
    diff = np.atleast_2d(y) - rho * x
    q = np.einsum("ij,ij->i", diff, diff)
    return s ** (-d / 2.0) * (2.0 * math.pi) ** (-d / 2.0) * np.exp(-q / (2.0 * s))


# ---------------------------------------------------------------------------
# Monte Carlo plumbing


def _shard_sizes(n: int, shard: int = _SHARD) -> list[int]:
    sizes = [shard] * (n // shard)
    if n % shard:
        sizes.append(n % shard)
    return sizes


def mc_mean(values_fn, n: int, *, seed=0, threads: int = 1) -> Estimate:
    """Mean and standard error of ``values_fn(rng, k)`` over n draws.

    ``values_fn`` must return a length-k array of sample values.  Shards are
    reduced in counter order regardless of thread scheduling.
    """
    if n <= 0:
        raise DomainError("Monte Carlo budget must be positive")
    sizes = _shard_sizes(n)
    rngs = spawn_rngs(seed, len(sizes))

    def run(idx):
        vals = np.asarray(values_fn(rngs[idx], sizes[idx]), dtype=float)
        return float(vals.sum()), float((vals * vals).sum())

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    else:
        parts = [run(i) for i in range(len(sizes))]
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    return Estimate(mean, math.sqrt(var / n), n, MONTE_CARLO)


def mc_vector_mean(values_fn, n: int, dim: int, *, seed=0, threads: int = 1) -> VectorEstimate:
    """Vector-valued analogue of :func:`mc_mean`; values_fn returns (k, dim)."""
    if n <= 0:
        raise DomainError("Monte Carlo budget must be positive")
    sizes = _shard_sizes(n)
    rngs = spawn_rngs(seed, len(sizes))

    def run(idx):
        vals = np.asarray(values_fn(rngs[idx], sizes[idx]), dtype=float).reshape(sizes[idx], dim)
        return vals.sum(axis=0), (vals * vals).sum(axis=0)

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    else:
        parts = [run(i) for i in range(len(sizes))]
    s1 = np.sum([p[0] for p in parts], axis=0)
    s2 = np.sum([p[1] for p in parts], axis=0)
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    return VectorEstimate(mean, np.sqrt(var / n), n, MONTE_CARLO)


def mc_shard_means(values_fn, n: int, *, seed=0, n_shards: int = 32, threads: int = 1):
    """Per-shard means of ``values_fn(rng, k)``, for correlated-difference work.

    Returns (means, shard_size).  All shards share one root seed, so two calls
    with the same seed and budget see identical underlying draws; this is what
    makes shared-seed finite differences well-defined.
    """
    shard = max(n // n_shards, 1)
    rngs = spawn_rngs(seed, n_shards)
    def run(idx):
        return float(np.mean(values_fn(rngs[idx], shard)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            means = list(pool.map(run, range(n_shards)))
    else:
        means = [run(i) for i in range(n_shards)]
    return np.asarray(means), shard


# ---------------------------------------------------------------------------
# the operator T_rho and its derivatives


def _eval_on_points(f, pts: np.ndarray) -> np.ndarray:
    if hasattr(f, "contains"):
        return f.contains(pts).astype(float)
    return np.asarray(f(pts), dtype=float)


def ou_apply(f, rho, x, budget: int = 200_000, *, seed=0, mode: str = "auto",
             threads: int = 1) -> Estimate:
    """Evaluate T_rho f(x) for a set indicator or a bounded callable.

    ``f`` is either a set object exposing ``contains`` (indicator mode, and
    ``ou_exact`` when the set has closed or one-dimensional structure) or a
    callable mapping an (n, d) array of points to n values.

    mode: "auto" prefers an exact/quadrature route when the set provides one
    and falls back to Monte Carlo; "exact" demands it; "monte-carlo" forces
    sampling; "quadrature" uses a tensor Gauss-Hermite rule (d <= 3).
    """
    r = as_rho(rho)
    xv = check_point(x)
    if budget <= 0:
        raise DomainError("integration budget must be positive")
    d = xv.shape[0]

    if mode in ("auto", "exact") and hasattr(f, "ou_exact"):
        res = f.ou_exact(r, xv)
        if res is not None:
            value, err = res
            return Estimate(float(value), float(err), 0, QUADRATURE)
        if mode == "exact":
            raise DomainError("no exact T_rho evaluation available for this set")
    if mode == "exact" and not hasattr(f, "ou_exact"):
        raise DomainError("no exact T_rho evaluation available for this input")

    if mode == "quadrature" or (mode == "auto" and not hasattr(f, "contains") and d <= 3):
        return _ou_apply_gh(f, r, xv, budget)
    sigma = math.sqrt(1.0 - r * r)

    def values(rng, k):
        y = r * xv + sigma * rng.standard_normal((k, d))
        return _eval_on_points(f, y)

    return mc_mean(values, budget, seed=seed, threads=threads)


def _gh_nodes(n: int):
    t, w = np.polynomial.hermite_e.hermegauss(n)
    return t, w / math.sqrt(2.0 * math.pi)


def _ou_apply_gh(f, rho: float, x: np.ndarray, budget: int) -> Estimate:
    d = x.shape[0]
    n = int(round(budget ** (1.0 / d)))
    n = min(max(n, 8), 160)

    def integral(nodes):
        t, w = _gh_nodes(nodes)
        grids = np.meshgrid(*([t] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        wts = np.ones(pts.shape[0])
        for g in np.meshgrid(*([w] * d), indexing="ij"):
            wts *= g.ravel()
        y = rho * x + math.sqrt(1.0 - rho * rho) * pts
        return float(np.dot(wts, _eval_on_points(f, y)))

    hi = integral(n)
    lo = integral(max(n // 2, 4))
    err = max(abs(hi - lo), 1e-14)
    return Estimate(hi, err, n**d, QUADRATURE)


def ou_gradient(set_spec, rho, x, budget: int = 200_000, *, seed=0,
                threads: int = 1) -> VectorEstimate:
    """Monte Carlo estimate of the spatial gradient of T_rho 1_set at x.

    Uses the moment form: grad T_rho 1_A(x) = rho/(1-rho^2) *
    E[(Y - rho x) 1_A(Y)] with Y ~ N(rho x, (1-rho^2) I); no finite
    differencing of T itself is involved.  Rejects rho = 0.
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    d = xv.shape[0]
    s = 1.0 - r * r
    sig = math.sqrt(s)
    scale = r / s

    def values(rng, k):
        y = r * xv + sig * rng.standard_normal((k, d))
        ind = set_spec.contains(y).astype(float)
        return scale * (y - r * xv) * ind[:, None]

    return mc_vector_mean(values, budget, dim=d, seed=seed, threads=threads)


def ou_gradient_quadrature(set_spec, rho, x, *, step: float = 3e-4) -> VectorEstimate:
    """Deterministic gradient of T_rho 1_set for sets with an exact T route.

    Closed form for half-spaces; otherwise central differences of the exact
    T evaluation (error ~ step^2 plus quadrature noise / step), with the
    whole 2d-point stencil evaluated in one batch.
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    grad = getattr(set_spec, "ou_gradient_exact", None)
    if grad is not None:
        res = grad(r, xv)
        if res is not None:
            g, err = res
            return VectorEstimate(np.asarray(g, float), np.full(len(g), err), 0, CLOSED_FORM)
    d = xv.shape[0]
    shifts = step * np.eye(d)
    exact = getattr(set_spec, "ou_exact", None)
    res = None if exact is None else exact(r, np.concatenate([xv + shifts, xv - shifts]))
    if res is None:
        raise DomainError("set does not support exact T_rho evaluation")
    vals, _ = res
    g = (vals[:d] - vals[d:]) / (2.0 * step)
    err = step**2 + 2e-12 / step
    return VectorEstimate(g, np.full(d, err), 0, QUADRATURE)


def ou_divergence_mc(set_spec, rho, x, budget: int = 200_000, *, seed=0,
                     threads: int = 1) -> Estimate:
    """Monte Carlo estimate of div grad T_rho 1_set(x) (the Laplacian).

    Moment form: with Y ~ N(rho x, (1-rho^2) I),
    Lap = E[ rho^2 (||Y - rho x||^2/(1-rho^2) - d) / (1-rho^2) * 1_A(Y) ].
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    d = xv.shape[0]
    s = 1.0 - r * r
    sig = math.sqrt(s)

    def values(rng, k):
        y = r * xv + sig * rng.standard_normal((k, d))
        ind = set_spec.contains(y).astype(float)
        q = np.einsum("ij,ij->i", y - r * xv, y - r * xv)
        return (r * r / s) * (q / s - d) * ind

    return mc_mean(values, budget, seed=seed, threads=threads)


@dataclass(frozen=True)
class RhoDerivative:
    """d/drho of T_rho 1_set at a point, by two independent routes."""

    finite_difference: Estimate
    divergence_form: Estimate


def rho_step(rho: float) -> float:
    """Central-difference step in rho keeping rho +- h inside (-1, 1)."""
    return max(1e-4, 1e-3 * (1.0 - abs(rho)))


def ou_rho_derivative(set_spec, rho, x, budget: int = 200_000, *, seed=0,
                      threads: int = 1) -> RhoDerivative:
    """Estimate d/drho T_rho 1_set(x) two independent ways.

    (a) central finite differences of T_rho in rho (exact T route when the
        set provides one, otherwise Monte Carlo with shared draws), and
    (b) the heat identity (1/rho) * (-Lap T + <x, grad T>), with the
        Laplacian and gradient taken in divergence/moment form.

    Both results are returned so callers can cross-validate.  Rejects rho = 0
    and steps that leave (-1, 1).
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    d = xv.shape[0]
    h = rho_step(r)
    if not (-1.0 < r - h and r + h < 1.0):
        raise DomainError("rho finite-difference step leaves (-1, 1)")

    exact = getattr(set_spec, "ou_exact", None)
    up = None if exact is None else exact(r + h, xv)
    if up is not None:
        vp, ep = up
        vm, em = exact(r - h, xv)
        fd = Estimate((vp - vm) / (2.0 * h), h * h + (ep + em) / (2.0 * h), 0, QUADRATURE)
    else:
        s_p, s_m = math.sqrt(1 - (r + h) ** 2), math.sqrt(1 - (r - h) ** 2)

        def diff_values(rng, k):
            z = rng.standard_normal((k, d))
            up = set_spec.contains((r + h) * xv + s_p * z).astype(float)
            dn = set_spec.contains((r - h) * xv + s_m * z).astype(float)
            return (up - dn) / (2.0 * h)

        fd = mc_mean(diff_values, budget, seed=seed, threads=threads)
        fd = Estimate(fd.value, fd.std_error + h * h, fd.samples, MONTE_CARLO)

    s = 1.0 - r * r
    sig = math.sqrt(s)

    def heat_values(rng, k):
        y = r * xv + sig * rng.standard_normal((k, d))
        ind = set_spec.contains(y).astype(float)
        centered = y - r * xv
        q = np.einsum("ij,ij->i", centered, centered)
        lap = (r * r / s) * (q / s - d) * ind
        grad_dot_x = (r / s) * (centered @ xv) * ind
        return (-lap + grad_dot_x) / r

    div = mc_mean(heat_values, budget, seed=seed, threads=threads)
    return RhoDerivative(fd, div)


# ---------------------------------------------------------------------------
# bivariate normal CDF oracle


def _owens_t_ratio(h: np.ndarray, k: np.ndarray, r: float, s: float) -> np.ndarray:
    """T(h, (k - r h)/(h s)), with T(0, +-inf) = +-1/4 taking the sign of k.

    k - r h is formed as (k - h) + (1 - r) h, or as (k + h) - (1 + r) h when
    r < 0, so it keeps its digits as rho -> +-1 with k near +-h.
    """
    num = (k - h) + (1.0 - r) * h if r >= 0.0 else (k + h) - (1.0 + r) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        t = owens_t(h, num / (h * s))
    return np.where(h == 0.0, 0.25 * np.sign(num), t)


def bivariate_normal_cdf(a, b, rho):
    """P(X <= a, Y <= b) for standard bivariate normal with correlation rho.

    Owen's (1956) closed form in his T function, exact to rounding for every
    rho in (-1, 1): with h = a, k = b and s = sqrt(1 - rho^2),

        Phi2 = Phi(h)/2 + Phi(k)/2 - T(h, (k - rho h)/(h s))
               - T(k, (h - rho k)/(k s)) - beta,

    where beta = 1/2 when h and k have opposite signs, or one is 0 and
    h + k < 0, else 0.  ``a`` and ``b`` broadcast against each other; scalar
    arguments give a float.
    """
    r = as_rho(rho)
    h, k = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.isnan(h).any() or np.isnan(k).any():
        raise DomainError("arguments must not be NaN")
    # Gaussian mass beyond the radius is below double precision; clipping
    # also keeps infinite arguments out of the ratios
    h = np.clip(h, -TRUNCATION_RADIUS, TRUNCATION_RADIUS)
    k = np.clip(k, -TRUNCATION_RADIUS, TRUNCATION_RADIUS)
    s = math.sqrt((1.0 - r) * (1.0 + r))  # no cancellation as |rho| -> 1
    # from the signs, not from h k, which can underflow to 0
    beta = 0.5 * np.where((h == 0.0) | (k == 0.0), h + k < 0.0, (h < 0.0) != (k < 0.0))
    val = (0.5 * (ndtr(h) + ndtr(k)) - _owens_t_ratio(h, k, r, s)
           - _owens_t_ratio(k, h, r, s) - beta)
    val = np.where((h == 0.0) & (k == 0.0), 0.25 + math.asin(r) / (2.0 * math.pi), val)
    val = np.clip(val, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val

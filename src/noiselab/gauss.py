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
from functools import lru_cache, partialmethod

import numpy as np
from scipy.special import ndtr, owens_t

MONTE_CARLO = "monte-carlo"
QUADRATURE = "quadrature"
CLOSED_FORM = "closed-form"

#: evaluation radius for improper integrals; Gaussian mass beyond it is
#: far below double precision
TRUNCATION_RADIUS = 40.0

#: rounding error of a closed form per unit of its terms' summed magnitudes;
#: Phi_2 was within 16 ulps of Phi(a) + Phi(b)
ROUNDING = 64 * float(np.finfo(float).eps)

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


def check_point(x, d: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally of prescribed length."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DomainError("expected a single point (1-d coordinate array)")
    return _check_batch(v, d)


def _check_batch(x, d: int | None = None) -> np.ndarray:
    """Coerce to a finite point (d,) or batch (n, d) of points, as floats."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2):
        raise DomainError("expected a point or an (n, d) batch of points")
    if not np.all(np.isfinite(v)):
        raise DomainError("coordinates must be finite")
    if d is not None and v.shape[-1] != d:
        raise DomainError(f"dimension mismatch: expected {d}, got {v.shape[-1]}")
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


def noisy_copies(rng, rho: float, x: np.ndarray, k: int) -> np.ndarray:
    """k draws of rho*x + sqrt(1-rho^2)*Z with Z ~ gamma_d; ``x`` is one point
    or a (k, d) batch."""
    return rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal((k, x.shape[-1]))


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
    return x, noisy_copies(rng, r, x, n)


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
# Monte Carlo plumbing and route choice


def _shard_sizes(n: int, shard: int = _SHARD) -> list[int]:
    sizes = [shard] * (n // shard)
    if n % shard:
        sizes.append(n % shard)
    return sizes


def _shard_loop(values_fn, rngs, sizes, reduce, threads: int = 1) -> list:
    """``reduce(values_fn(rngs[i], sizes[i]))`` for every shard, in shard order.

    A thread pool only changes which worker evaluates a shard, never its draws
    or the order of the results.
    """
    def run(idx):
        vals = np.asarray(values_fn(rngs[idx], sizes[idx]))
        return reduce(vals if vals.dtype == bool else vals.astype(float, copy=False))

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(sizes))))
    return [run(i) for i in range(len(sizes))]


def _sums(vals):
    """Column sums of the values and of their squares; 0/1 draws given as bools
    are counted, which are the same sums exactly."""
    if vals.dtype == bool:
        hits = np.count_nonzero(vals, axis=0).astype(float)
        return hits, hits
    return vals.sum(axis=0), (vals * vals).sum(axis=0)


def mean_over_shards(values_fn, rngs, sizes, threads: int = 1) -> Estimate | VectorEstimate:
    """Mean and standard error of ``values_fn(rng, k)`` over the given shards.

    A callback that returns k values gives an :class:`Estimate`; one that
    returns a (k, dim) array gives a componentwise :class:`VectorEstimate`.
    """
    n = sum(sizes)
    parts = _shard_loop(values_fn, rngs, sizes, _sums, threads)
    # seeded results depend on the order: scalars add by shard, vectors via numpy
    s1, s2 = (np.sum(col, axis=0) if np.ndim(col[0]) else sum(col) for col in zip(*parts))
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0) * (n / max(n - 1, 1))
    se = np.sqrt(var / n)
    if np.ndim(mean) == 0:
        return Estimate(float(mean), float(se), n, MONTE_CARLO)
    return VectorEstimate(mean, se, n, MONTE_CARLO)


def mc_mean(values_fn, n: int, *, seed=0, threads: int = 1) -> Estimate | VectorEstimate:
    """Mean and standard error of ``values_fn(rng, k)`` over n draws.

    ``values_fn`` returns k sample values (the result is an
    :class:`Estimate`) or a (k, dim) array of vector samples (a
    :class:`VectorEstimate`).  Shards are reduced in counter order regardless
    of thread scheduling.
    """
    if n <= 0:
        raise DomainError("Monte Carlo budget must be positive")
    sizes = _shard_sizes(n)
    return mean_over_shards(values_fn, spawn_rngs(seed, len(sizes)), sizes, threads)


def mc_shard_means(values_fn, n: int, *, seed=0, n_shards: int = 32, threads: int = 1):
    """Per-shard means of ``values_fn(rng, k)``, for correlated-difference work.

    Returns (means, shard_size); n_shards * shard_size draws are made.  A
    callback that returns k values gives n_shards means, one that returns a
    (k, cols) array gives an (n_shards, cols) array of column means.  All
    shards share one root seed, so two calls with the same seed and budget see
    identical underlying draws; this is what makes shared-seed finite
    differences well-defined.
    """
    if n <= 0:
        raise DomainError("Monte Carlo budget must be positive")
    shard = max(n // n_shards, 1)
    means = _shard_loop(values_fn, spawn_rngs(seed, n_shards), [shard] * n_shards,
                        lambda vals: vals.mean(axis=0), threads)
    return np.asarray(means), shard


def route(mode: str, deterministic, sampled):
    """Run the route ``mode`` picks; the one place where a ``mode`` is read.

    ``deterministic()`` returns a result, or None where no quadrature or
    closed form covers the input; ``sampled()`` runs Monte Carlo.  "auto"
    samples only where the deterministic route declines, "quadrature" raises
    :class:`DomainError` there, "monte-carlo" always samples, and any other
    mode raises :class:`DomainError`.
    """
    if mode not in ("auto", QUADRATURE, MONTE_CARLO):
        raise DomainError(f"unknown mode {mode!r}; use auto, quadrature or monte-carlo")
    if mode != MONTE_CARLO:
        res = deterministic()
        if res is not None:
            return res
        if mode != "auto":
            raise DomainError(f"mode {mode!r}: no deterministic route covers this input")
    return sampled()


# ---------------------------------------------------------------------------
# the operator T_rho and its derivatives


class SignedDifference:
    """The signed indicator 1_a - 1_b of two cells, as input to the T_rho routes.

    T_rho is linear, so every route applies to the difference cell by cell:
    the exact routes return (value_a - value_b, error_a + error_b) and decline
    when either cell declines, and the Monte Carlo integrands, which weight
    each draw by ``contains``, see weights in {-1, 0, 1}.
    """

    def __init__(self, a, b):
        self.a, self.b = a, b

    def contains(self, points) -> np.ndarray:
        return (np.asarray(self.a.contains(points), dtype=float)
                - np.asarray(self.b.contains(points), dtype=float))

    def _both(self, route: str, rho, x):
        ra = getattr(self.a, route)(rho, x)
        rb = None if ra is None else getattr(self.b, route)(rho, x)
        return None if rb is None else (ra[0] - rb[0], ra[1] + rb[1])

    ou_exact = partialmethod(_both, "ou_exact")
    ou_gradient_exact = partialmethod(_both, "ou_gradient_exact")
    ou_drho_exact = partialmethod(_both, "ou_drho_exact")


def _eval_on_points(f, pts: np.ndarray) -> np.ndarray:
    if hasattr(f, "contains"):
        return f.contains(pts).astype(float)
    return np.asarray(f(pts), dtype=float)


def ou_apply(f, rho, x, budget: int = 200_000, *, seed=0, mode: str = "auto",
             threads: int = 1) -> Estimate:
    """Evaluate T_rho f(x) for a set indicator or a bounded callable.

    ``f`` is either a set object exposing ``contains`` (indicator mode, and
    ``ou_exact`` when the set has closed or one-dimensional structure) or a
    callable mapping an (n, d) array of points to n values.  The
    deterministic route is the set's ``ou_exact``, or a tensor Gauss-Hermite
    rule for a callable in d <= 3; ``mode``: see :func:`route`.
    """
    r = as_rho(rho)
    xv = check_point(x)
    if budget <= 0:
        raise DomainError("integration budget must be positive")

    def deterministic():
        exact = getattr(f, "ou_exact", None)
        res = None if exact is None else exact(r, xv)
        if res is not None:
            return Estimate(float(res[0]), float(res[1]), 0, QUADRATURE)
        if not hasattr(f, "contains") and xv.shape[0] <= 3:
            return _ou_apply_gh(f, r, xv, budget)
        return None

    def values(rng, k):
        return _eval_on_points(f, noisy_copies(rng, r, xv, k))

    return route(mode, deterministic, lambda: mc_mean(values, budget, seed=seed, threads=threads))


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
    scale = r / (1.0 - r * r)

    def values(rng, k):
        y = noisy_copies(rng, r, xv, k)
        ind = set_spec.contains(y).astype(float)
        return scale * (y - r * xv) * ind[:, None]

    return mc_mean(values, budget, seed=seed, threads=threads)


def ou_gradient_quadrature(set_spec, rho, x) -> VectorEstimate:
    """Closed-form gradient of T_rho 1_set at one point or an (n, d) batch: the
    set's ``ou_gradient_exact`` (rho/sigma times its moment at the shifted apex)
    with its rounding bound; raises :class:`DomainError` where it has none."""
    res = set_spec.ou_gradient_exact(as_rho(rho, nonzero=True), _check_batch(x))
    if res is None:
        raise DomainError("set has no closed-form gradient of T_rho")
    return VectorEstimate(*res, 0, CLOSED_FORM)


@dataclass(frozen=True)
class RhoDerivative:
    """d/drho of T_rho 1_set at a point, by two independent routes."""

    finite_difference: Estimate
    divergence_form: Estimate


def rho_step(rho: float) -> float:
    """Step in rho of the sampled central difference of :func:`ou_rho_derivative`."""
    return max(1e-4, 1e-3 * (1.0 - abs(rho)))


def ou_rho_derivative_exact(set_spec, rho, x) -> Estimate | VectorEstimate | None:
    """Closed-form d/drho T_rho 1_set at one point (an :class:`Estimate`) or each
    row of an (n, d) batch (a :class:`VectorEstimate`): the set's ``ou_drho_exact``
    (-<M, dq'/drho>, M its moment at the shifted apex q'), else None."""
    xv = _check_batch(x)
    res = set_spec.ou_drho_exact(as_rho(rho, nonzero=True), xv)
    if res is None:
        return None
    return (VectorEstimate(*res, 0, CLOSED_FORM) if xv.ndim == 2
            else Estimate(float(res[0]), float(res[1]), 0, CLOSED_FORM))


def ou_rho_derivative_heat(set_spec, rho, x, budget: int = 200_000, *, seed=0,
                           threads: int = 1) -> Estimate:
    """d/drho T_rho 1_set(x) by the heat identity (1/rho) * (-Lap T + <x, grad T>),
    with both terms in moment form (Monte Carlo, no differencing).

    With Y ~ N(rho x, (1-rho^2) I) and w = 1_A(Y) (any weight ``contains``
    returns), E[rho^2 (||Y - rho x||^2/(1-rho^2) - d) / (1-rho^2) * w] is the
    Laplacian and E[rho/(1-rho^2) <Y - rho x, x> w] is <x, grad>.
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    s = 1.0 - r * r

    def values(rng, k):
        y = noisy_copies(rng, r, xv, k)
        w = set_spec.contains(y).astype(float)
        centered = y - r * xv
        q = np.einsum("ij,ij->i", centered, centered)
        lap = (r * r / s) * (q / s - xv.shape[0]) * w
        grad_dot_x = (r / s) * (centered @ xv) * w
        return (-lap + grad_dot_x) / r

    return mc_mean(values, budget, seed=seed, threads=threads)


def ou_rho_derivative(set_spec, rho, x, budget: int = 200_000, *, seed=0,
                      threads: int = 1) -> RhoDerivative:
    """Estimate d/drho T_rho 1_set(x) two independent ways.

    (a) :func:`ou_rho_derivative_exact` where the set has the closed form, else
        a shared-draw Monte Carlo central difference in rho (:func:`rho_step`), and
    (b) the heat identity of :func:`ou_rho_derivative_heat`.

    Both results are returned so callers can cross-validate.  Rejects rho = 0,
    and on the sampled route steps that leave (-1, 1).
    """
    r = as_rho(rho, nonzero=True)
    xv = check_point(x)
    fd = ou_rho_derivative_exact(set_spec, r, xv)
    if fd is None:
        h = rho_step(r)
        if not (-1.0 < r - h and r + h < 1.0):
            raise DomainError("rho finite-difference step leaves (-1, 1)")
        s_p, s_m = math.sqrt(1 - (r + h) ** 2), math.sqrt(1 - (r - h) ** 2)

        def diff_values(rng, k):
            z = rng.standard_normal((k, xv.shape[0]))
            up = set_spec.contains((r + h) * xv + s_p * z).astype(float)
            dn = set_spec.contains((r - h) * xv + s_m * z).astype(float)
            return (up - dn) / (2.0 * h)

        fd = mc_mean(diff_values, budget, seed=seed, threads=threads)
        fd = Estimate(fd.value, fd.std_error + h * h, fd.samples, MONTE_CARLO)
    heat = ou_rho_derivative_heat(set_spec, r, xv, budget, seed=seed, threads=threads)
    return RhoDerivative(fd, heat)


# ---------------------------------------------------------------------------
# quadrature tables and block sums


def _jacobi_kronrod(n: int) -> list[float]:
    """b_0 = 2, b_1, ..., b_2n: the squared off-diagonal entries of the
    Jacobi-Kronrod matrix of the Legendre weight on [-1, 1], by Laurie's
    algorithm (Math. Comp. 66:1133, 1997) with its diagonal terms, all 0 for
    this even weight, left out."""
    b = [2.0] + [k * k / (4.0 * k * k - 1) for k in range(1, (3 * n + 1) // 2 + 1)]
    b += [0.0] * (2 * n + 1 - len(b))
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        acc = 0.0
        for j in range((m + 1) // 2, -1, -1):
            acc += b[j + n + 1] * s[j] - b[m - j] * s[j + 1]
            s[j + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = 0.0
        for j in range(m + 1 - n, (m - 1) // 2 + 1):
            i = n - 1 - m + j
            acc += b[m - j] * s[i + 2] - b[j + n + 1] * s[i + 1]
            s[i + 1] = acc
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[i + 1] / s[i + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=None)
def _kronrod(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2n+1-node Gauss-Kronrod rule on [-1, 1] that extends the n-node
    Gauss-Legendre rule: (nodes, Kronrod weights, Gauss weights), the n Gauss
    nodes first, then the n+1 Kronrod nodes, each group ascending.  Built
    once per n at first use; every caller shares the arrays, so they are
    read-only.

    The nodes are the roots of the characteristic polynomial p_2n+1 = P_n
    E_n+1 of the Jacobi-Kronrod matrix, evaluated by its three-term
    recurrence at x + ih with h = 1e-30, so the imaginary part carries h
    p'(x) and needs no recurrence of its own.  The Aberth iteration (Newton's
    step, deflated by the other roots) starts from the angles of the nodes
    of a Chebyshev-like rule, the Gauss nodes at the odd ones, scaled by
    Tricomi's factor, and stops when no node moves by more than rounding.
    Each weight is the Christoffel function 2 / sum_k q_k(x)^2 of the
    orthonormal recurrence, over k <= 2n for the Kronrod rule and k < n for
    the Gauss rule: a sum of squares, which moves little with a node's
    rounding."""
    b = _jacobi_kronrod(n)
    theta = math.pi * (np.arange(2 * n + 1) + 0.5) / (2 * n + 1)
    x = -(1 - (n - 1) / (8 * n ** 3)) * np.cos(np.concatenate([theta[1::2], theta[::2]]))
    apart = ~np.eye(2 * n + 1, dtype=bool)
    while True:
        z = x + 1e-30j
        prev, p = np.zeros_like(z), np.ones_like(z)
        for b_k in b:
            prev, p = p, z * p - b_k * prev
        newton = p.real / (1e30 * p.imag)
        others = (1 / np.where(apart, x[:, None] - x, np.inf)).sum(axis=1)
        step = newton / (1 - newton * others)
        if np.max(np.abs(step)) <= 2 * np.finfo(float).eps:
            break
        x = x - step
    c = [math.sqrt(b_k) for b_k in b]
    prev, q, total = np.zeros_like(x), np.ones_like(x), np.ones_like(x)
    for k in range(1, 2 * n + 1):
        if k == n:
            w_g = 2 / total[:n]
        prev, q = q, (x * q - c[k - 1] * prev) / c[k]
        total += q * q
    tables = (x, 2 / total, w_g)
    for t in tables:
        t.flags.writeable = False
    return tables


def _block_sums(rows, sizes):
    """The sum of each block of ``sizes`` consecutive rows of ``rows``, one row
    per block, each block added alone and in its order."""
    ends = np.cumsum(sizes)
    return np.array([rows[hi - n:hi].sum(axis=0) for n, hi in zip(sizes, ends)])


# ---------------------------------------------------------------------------
# bivariate normal CDF oracle


def _owens_t_ratio(h: np.ndarray, k: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """T(h, (k - r h)/(h s)), with T(0, +-inf) = +-1/4 taking the sign of k.

    k - r h is formed as (k - h) + (1 - r) h, or as (k + h) - (1 + r) h where
    r < 0, so it keeps its digits as rho -> +-1 with k near +-h.
    """
    num = np.where(r >= 0.0, (k - h) + (1.0 - r) * h, (k + h) - (1.0 + r) * h)
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
    h + k < 0, else 0.  ``a``, ``b`` and ``rho`` broadcast against each other,
    an array ``rho`` to the scalar values bit for bit; scalars give a float.
    """
    r = np.asarray(as_rho(rho) if np.ndim(rho) == 0 else rho, dtype=float)
    if not np.all(np.abs(r) < 1.0):  # NaN fails too
        raise DomainError("correlations must lie strictly in (-1, 1)")
    h, k, r = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float), r)
    if np.isnan(h).any() or np.isnan(k).any():
        raise DomainError("arguments must not be NaN")
    # Gaussian mass beyond the radius is below double precision; clipping
    # also keeps infinite arguments out of the ratios
    h = np.clip(h, -TRUNCATION_RADIUS, TRUNCATION_RADIUS)
    k = np.clip(k, -TRUNCATION_RADIUS, TRUNCATION_RADIUS)
    s = np.sqrt((1.0 - r) * (1.0 + r))  # no cancellation as |rho| -> 1
    # from the signs, not from h k, which can underflow to 0
    beta = 0.5 * np.where((h == 0.0) | (k == 0.0), h + k < 0.0, (h < 0.0) != (k < 0.0))
    val = (0.5 * (ndtr(h) + ndtr(k)) - _owens_t_ratio(h, k, r, s)
           - _owens_t_ratio(k, h, r, s) - beta)
    val = np.where((h == 0.0) & (k == 0.0), 0.25 + np.arcsin(r) / (2.0 * math.pi), val)
    val = np.clip(val, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val

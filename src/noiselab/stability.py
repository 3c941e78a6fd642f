"""Noise-stability functionals for sets and partitions.

The noise stability of a set A at correlation rho is P((X, Y) in A x A) for a
rho-correlated standard Gaussian pair, equivalently the integral of
1_A * T_rho 1_A against the Gaussian measure.  For a partition the cell
stabilities are summed; the bilinear form pairs two partitions,
sum_i P(X in p_i, Y in q_i).

Monte Carlo estimates share one correlated-pair stream across all cells (one
membership evaluation per point) and across a whole rho grid: each shard
draws X and Z once, classifies X once, and forms Y = rho X + sqrt(1 - rho^2) Z
per rho, so a grid costs one pass and each of its values equals the one-rho
estimate at the same seed and budget.  Comparisons between candidate
partitions run with positively correlated errors when they reuse a seed.
Closed forms and deterministic quadratures are used where the geometry
allows: half-space pairs reduce to the bivariate normal CDF, planar
sector-like partitions to the shifted-sector quadrature, and rho = 0 to sums
of squared measures.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from .gauss import (
    CLOSED_FORM,
    MONTE_CARLO,
    QUADRATURE,
    DomainError,
    Estimate,
    VectorEstimate,
    as_rho,
    bivariate_normal_cdf,
    make_seedseq,
    mc_mean,
    route,
    spawn_rngs,
)
from .partitions import (
    Complement,
    ExplicitCell,
    PartitionSpec,
    ProductWithR,
    SetSpec,
    _halfspace_side,
    gaussian_measure,
    shifted_sector_moment,
    shifted_sector_pair_stability,
    shifted_sector_stability,
)

def _pair_values(classify, match, rhos, d):
    """Integrand of a correlated pair (X, Y) with one column per rho of ``rhos``:
    ``match(classify(X), Y)``.  A shard draws X, then Z, as
    :func:`noiselab.gauss.noisy_copies` does, classifies X once, and forms
    Y = rho X + sqrt(1 - rho^2) Z with that function's expression, one Y at a
    time, so each column is the one-rho integrand to the bit."""
    rs = [float(r) for r in rhos]

    def values(rng, k):
        x = rng.standard_normal((k, d))
        z = rng.standard_normal((k, d))
        cx = classify(x)
        out = np.empty((k, len(rs)))
        for c, r in enumerate(rs):
            out[:, c] = match(cx, r * x + math.sqrt(1.0 - r * r) * z)
        return out

    return values


def _column(est: VectorEstimate, c: int) -> Estimate:
    return Estimate(float(est.value[c]), float(est.std_error[c]), est.samples, est.method)


def agreement_values(p: PartitionSpec, q: PartitionSpec, rhos):
    """Monte Carlo integrand of sum_i P(X in p_i, Y in q_i) for rho-correlated
    pairs, one 0/1 column per rho of ``rhos``: 1 where X and Y fall in cells of
    the same index.  X is classified once for all the rhos."""
    return _pair_values(p.membership, lambda cx, y: cx == q.membership(y), rhos, p.dim)


def noise_stability(s: SetSpec, rho, budget: int = 1_000_000, *, seed=0,
                    threads: int = 1, mode: str = "auto") -> Estimate:
    """P((X, Y) in s x s) for a rho-correlated Gaussian pair; at rho = 0 the
    deterministic route is the squared measure."""
    r = as_rho(rho)

    def deterministic():
        if r != 0.0:
            return _set_stability_exact(s, r)
        mu = gaussian_measure(s, budget, seed=seed, threads=threads, mode=mode)
        return Estimate(mu.value**2, 2 * mu.value * mu.std_error, mu.samples, mu.method)

    def sampled():
        values = _pair_values(s.contains, lambda in_x, y: in_x & s.contains(y), [r], s.dim)
        return _column(mc_mean(values, budget, seed=seed, threads=threads), 0)

    return route(mode, deterministic, sampled)


def _set_stability_exact(s: SetSpec, rho: float) -> Estimate | None:
    side = _halfspace_side(s)
    if side is not None:
        n, a, le = side
        inside = bivariate_normal_cdf(a, a, rho)
        if le:
            return Estimate(inside, 1e-10, 0, QUADRATURE)
        return Estimate(1.0 - 2.0 * ndtr(a) + inside, 1e-10, 0, QUADRATURE)
    deco = s.sector_decomposition()
    if deco is not None:
        apex, arcs = deco
        if len(arcs) == 1:
            a, b = arcs[0]
            val = shifted_sector_stability(apex, a, b, rho)
            return Estimate(val, 1e-9, 0, QUADRATURE)
    if isinstance(s, ProductWithR):
        return _set_stability_exact(s.base, rho)
    return None


def stability_sweep(p: PartitionSpec, rhos, budget: int = 1_000_000, *, seed=0,
                    threads: int = 1, mode: str = "auto") -> list[Estimate]:
    """:func:`partition_stability` at every rho of ``rhos``, in order.

    Each rho takes its own route: the quadrature, or at rho = 0 the sum of
    squared cell measures.  The rhos left to sampling share one Monte Carlo
    pair stream (one :func:`noiselab.gauss.mc_mean` call), so every row equals
    the one-rho call at the same seed and budget, bit for bit.
    """
    rs = [as_rho(r) for r in rhos]
    to_sample = []

    def row(r):
        def deterministic():
            if r != 0.0:
                return partition_stability_quadrature(p, r)
            # independence: the stability is the sum of the cells' squared measures
            root = make_seedseq(seed).generate_state(1)[0]
            cells = [noise_stability(c, 0.0, budget, seed=[root, k], threads=threads, mode=mode)
                     for k, c in enumerate(p.cells)]
            method = MONTE_CARLO if any(e.method == MONTE_CARLO for e in cells) else CLOSED_FORM
            return Estimate(sum(e.value for e in cells), sum(e.std_error for e in cells),
                            sum(e.samples for e in cells), method)

        def mark_sampled():
            to_sample.append(r)  # the row stays None until the shared pass below

        return route(mode, deterministic, mark_sampled)

    rows = [row(r) for r in rs]
    if to_sample:
        cols = list(dict.fromkeys(to_sample))
        est = mc_mean(agreement_values(p, p, cols), budget, seed=seed, threads=threads)
        rows = [_column(est, cols.index(r)) if e is None else e for r, e in zip(rs, rows)]
    return rows


def partition_stability(p: PartitionSpec, rho, budget: int = 1_000_000, *, seed=0,
                        threads: int = 1, mode: str = "auto") -> Estimate:
    """sum_i P((X, Y) in cell_i x cell_i), shared pairs across cells; at
    rho = 0 the deterministic route sums squared cell measures.  The one-rho
    case of :func:`stability_sweep`."""
    return stability_sweep(p, [rho], budget, seed=seed, threads=threads, mode=mode)[0]


def partition_stability_quadrature(p: PartitionSpec, rho: float) -> Estimate | None:
    """Deterministic stability for the structured partition families.

    Handles cylinders over a supported base, half-space pairs in any
    dimension, and planar partitions whose cells are (shifted) sectors.
    """
    cells = p.cells
    if all(isinstance(c, ProductWithR) for c in cells):
        extra = cells[0].extra
        if all(c.extra == extra for c in cells):
            return partition_stability_quadrature(PartitionSpec([c.base for c in cells]), rho)
    if p.m == 2:
        si = _halfspace_side(cells[0])
        sj = _halfspace_side(cells[1])
        if si is not None and sj is not None:
            n, a, le = si if si[2] else sj
            inside = bivariate_normal_cdf(a, a, rho)
            val = 1.0 - 2.0 * ndtr(a) + 2.0 * inside
            return Estimate(val, 2e-10, 0, QUADRATURE)
    decos = [c.sector_decomposition() for c in cells]
    if p.dim == 2 and all(d is not None and len(d[1]) == 1 for d in decos):
        total = 0.0
        for apex, arcs in decos:
            a, b = arcs[0]
            total += shifted_sector_stability(apex, a, b, rho)
        return Estimate(total, 1e-9 * p.m, 0, QUADRATURE)
    return None


def bilinear_stability(p: PartitionSpec, q: PartitionSpec, rho,
                       budget: int = 1_000_000, *, seed=0, threads: int = 1,
                       mode: str = "auto", measure_tol_scale: float = 1.0) -> Estimate:
    """sum_i P(X in p_i, Y in q_i) for a rho-correlated pair.

    Requires matching dimension and cell count, and matching cell measures
    within 3 * combined standard error (scaled by ``measure_tol_scale``).
    """
    r = as_rho(rho)
    if p.dim != q.dim:
        raise DomainError("partitions must share a dimension")
    if p.m != q.m:
        raise DomainError("partitions must have the same cell count")
    check_measure_match(p, q, scale=measure_tol_scale, seed=seed)
    return route(mode, lambda: _bilinear_quadrature(p, q, r),
                 lambda: _column(mc_mean(agreement_values(p, q, [r]), budget, seed=seed,
                                         threads=threads), 0))


def check_measure_match(p: PartitionSpec, q: PartitionSpec, *, scale: float = 1.0,
                        budget: int = 400_000, seed=0) -> None:
    root = make_seedseq(seed).generate_state(1)[0]
    for k, (a, b) in enumerate(zip(p.cells, q.cells)):
        ma = gaussian_measure(a, budget, seed=[root, 1, k])
        mb = gaussian_measure(b, budget, seed=[root, 2, k])
        tol = scale * (3.0 * (ma.std_error + mb.std_error) + 1e-9)
        if abs(ma.value - mb.value) > tol:
            raise DomainError(
                f"cell {k} measures differ: {ma.value:.6f} vs {mb.value:.6f} (tol {tol:.2g})"
            )


def _bilinear_quadrature(p: PartitionSpec, q: PartitionSpec, rho: float) -> Estimate | None:
    if p.dim == 2:
        dp = [c.sector_decomposition() for c in p.cells]
        dq = [c.sector_decomposition() for c in q.cells]
        if all(d is not None and len(d[1]) == 1 for d in dp + dq):
            total = 0.0
            for (qa, arcs_a), (qb, arcs_b) in zip(dp, dq):
                (a0, a1), (b0, b1) = arcs_a[0], arcs_b[0]
                total += shifted_sector_pair_stability(qa, a0, a1, qb, b0, b1, rho)
            return Estimate(total, 1e-9 * p.m, 0, QUADRATURE)
    if p.m != 2:
        return None
    sp = [_halfspace_side(c) for c in p.cells]
    sq = [_halfspace_side(c) for c in q.cells]
    if any(s is None for s in sp + sq):
        return None
    # orient both partitions by their first cell: cell0 = {s*(n.x - a) <= 0}
    def oriented(side):
        n, a, le = side
        return (n, a) if le else (-n, -a)

    n1, a1 = oriented(sp[0])
    n2, a2 = oriented(sq[0])
    rc = rho * float(n1 @ n2)
    if abs(rc) >= 1.0:
        rc = math.copysign(1.0 - 1e-15, rc)
    inside = bivariate_normal_cdf(a1, a2, rc)
    val = inside + 1.0 - float(ndtr(a1)) - float(ndtr(a2)) + inside
    return Estimate(val, 2e-10, 0, QUADRATURE)


# ---------------------------------------------------------------------------
# the first-moment (propeller) functional


def cell_moment(s: SetSpec, budget: int = 400_000, *, seed=0, mode: str = "auto") -> VectorEstimate:
    """integral of x * gamma_d(x) over the cell."""

    def deterministic():
        exact = _cell_moment_exact(s)
        return None if exact is None else VectorEstimate(exact, np.full(s.dim, 1e-12), 0, QUADRATURE)

    def values(rng, k):
        x = rng.standard_normal((k, s.dim))
        return x * s.contains(x).astype(float)[:, None]

    return route(mode, deterministic, lambda: mc_mean(values, budget, seed=seed))


def _cell_moment_exact(s: SetSpec) -> np.ndarray | None:
    side = _halfspace_side(s)
    if side is not None:
        n, a, le = side
        phi_a = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
        return -n * phi_a if le else n * phi_a
    deco = s.sector_decomposition()
    if deco is not None:
        apex, arcs = deco
        return np.sum([shifted_sector_moment(apex, a, b) for a, b in arcs], axis=0)
    if isinstance(s, ProductWithR):
        inner = _cell_moment_exact(s.base)
        if inner is not None:
            return np.concatenate([inner, np.zeros(s.extra)])
    if isinstance(s, ExplicitCell) and not s.halfspaces:
        return np.zeros(s.dim)  # odd symmetry of the moment over R^d
    if isinstance(s, Complement):
        inner = _cell_moment_exact(s.base)
        if inner is not None:
            return -inner
    return None


def propeller_functional(p: PartitionSpec, budget: int = 1_000_000, *, seed=0,
                         mode: str = "auto", n_batches: int = 32) -> Estimate:
    """sum_i || integral_{cell_i} x gamma(x) dx ||^2.

    Exact for half-spaces and planar sector-like cells.  In Monte Carlo mode
    one shared Gaussian stream feeds every cell's moment; the squared norms
    are estimated without plug-in bias by cross products of moments from
    independent batch pairs, with the standard error taken across pairs.
    """

    def deterministic():
        moments = [_cell_moment_exact(c) for c in p.cells]
        if any(m is None for m in moments):
            return None
        return Estimate(float(sum(float(m @ m) for m in moments)), 1e-10, 0, QUADRATURE)

    def sampled():
        batches = n_batches + n_batches % 2
        per = max(budget // batches, 1)
        moments = np.zeros((batches, p.m, p.dim))
        for b, rng in enumerate(spawn_rngs(seed, batches)):
            x = rng.standard_normal((per, p.dim))
            idx = p.membership(x)
            for i in range(p.m):
                moments[b, i] = x[idx == i].sum(axis=0) / per
        pair_vals = np.einsum("pid,pid->p", moments[0::2], moments[1::2])
        se = float(pair_vals.std(ddof=1) / math.sqrt(len(pair_vals)))
        return Estimate(float(pair_vals.mean()), se, per * batches, MONTE_CARLO)

    return route(mode, deterministic, sampled)


def half_space_stability_closed_form(measure: float, rho) -> float:
    """Noise stability of a half-space of the given Gaussian measure.

    This is the benchmark value maximizing noise stability at fixed measure:
    Phi2(a, a; rho) with a = Phi^{-1}(measure).  Deterministic to 1e-10.
    """
    r = as_rho(rho)
    if not 0.0 < measure < 1.0:
        raise DomainError("measure must lie strictly in (0, 1)")
    a = float(ndtri(measure))
    return bivariate_normal_cdf(a, a, r)


def sheppard_half_space(rho: float) -> float:
    """1/4 + arcsin(rho) / (2 pi): stability of the measure-1/2 half-space."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)

"""Noise-stability functionals for sets and partitions.

The noise stability of a set A at correlation rho is P((X, Y) in A x A) for a
rho-correlated standard Gaussian pair, equivalently the integral of
1_A * T_rho 1_A against the Gaussian measure.  For a partition the cell
stabilities are summed; the bilinear form pairs two partitions,
sum_i P(X in p_i, Y in q_i).

Monte Carlo estimates share one correlated-pair stream across all cells and
across a whole rho grid: each shard draws X and then Z once, so a grid costs
one pass and each of its values equals the one-rho estimate at the same seed
and budget.  Two partitions whose membership is one argmax of inner products
(:attr:`noiselab.partitions.PartitionSpec.argmax_form`) are counted in score
space: the scores of Y = rho X + sqrt(1 - rho^2) Z are rho <z, X> +
sqrt(1 - rho^2) <z, Z> - <z, c>, so X and Z are drawn over the base
coordinates only and projected block by block of a shard, and each rho costs
a few passes over each block's (m, block) score array, with no Y and no
argmax.  Two equal
scores, a null event, count for every tied cell rather than the first.  Other
partitions classify X once and form each Y.  Comparisons between candidate
partitions run with positively correlated errors when they reuse a seed.

Every deterministic route is a sum of pair probabilities P(X in a, Y in b),
or of their d/drho, over cell pairs: over (s, s) for a set, (p_i, p_i) for a
partition and (p_i, q_i) for a bilinear form.  One helper, :func:`_pair_rule`,
takes them all, at every rho, rho = 0 included, from one batched call of
:func:`noiselab.partitions.pair_sums`, for P and for d/drho P alike, on the
routes of :meth:`noiselab.partitions.SetSpec.pair_exact` (the bivariate
normal CDF for two half-spaces, Plackett's identity in arcsin(rho) for two
planar sectors, and for two central cones in R^3 with three facets that
identity over facet pairs with a second Plackett integral for the
conditional orthant; d/drho P is each kind's Plackett integrand at rho), for
all the cell pairs and every rho of the grid at once; each row still equals
the one-rho call bit for bit.  Only where the pair rule declines does
rho = 0, where X and Y are independent, fall back to the sum of products of
closed-form cell measures (cones in R^3 with more facets); otherwise rho = 0
is sampled like any other rho.  A partition takes these routes only when its
cell measures add up to 1, so cells that overlap are sampled by first claim.
This module knows no cell kind.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import ndtri

from .gauss import (
    CLOSED_FORM,
    MONTE_CARLO,
    QUADRATURE,
    ROUNDING,
    DomainError,
    Estimate,
    VectorEstimate,
    as_rho,
    bivariate_normal_cdf,
    make_seedseq,
    mc_mean,
    mc_shard_means,
    route,
)
from .partitions import PartitionSpec, SetSpec, gaussian_measure, pair_sums

#: pairs per block of a shard in :func:`_score_values`
_SCORE_BLOCK = 1 << 12


def _pair_values(classify, match, rhos, d):
    """Integrand of a correlated pair (X, Y) with one bool column per rho of
    ``rhos``: ``match(classify(X), Y)``.  A shard draws X, then Z, as
    :func:`noiselab.gauss.noisy_copies` does, classifies X once, and forms
    Y = rho X + sqrt(1 - rho^2) Z with that function's expression, one Y at a
    time, so each column is the one-rho integrand to the bit."""
    rs = [float(r) for r in rhos]

    def values(rng, k):
        x = rng.standard_normal((k, d))
        z = rng.standard_normal((k, d))
        cx = classify(x)
        out = np.empty((k, len(rs)), dtype=bool)
        for c, r in enumerate(rs):
            out[:, c] = match(cx, r * x + math.sqrt(1.0 - r * r) * z)
        return out

    return values


def _score_values(p: PartitionSpec, q: PartitionSpec, rhos):
    """:func:`agreement_values` of two argmax partitions, in score space.

    With generators Z_p, Z_q, shifts c_p, c_q and the first ``base_dim``
    coordinates of X and Z (drawn as :func:`_pair_values` draws them, over
    those coordinates only), X is in the cell of the largest entry of
    Z_p X - Z_p c_p.  Y = rho X + sigma Z, sigma = sqrt(1 - rho^2) > 0, is in
    the cell of the largest of its scores over sigma, (rho/sigma) Z_q X +
    Z_q Z - Z_q c_q/sigma.  A shard draws all of X, then all of Z, and is
    scored in blocks of _SCORE_BLOCK pairs: both projections of Z_q are
    formed once per block in (m, block) layout, each rho adds them into one
    reused buffer, and a pair agrees where the rows that attain the column
    maxima of X and of Y meet.  The blocks keep the scores' temporaries to a
    few hundred kilobytes, so a shard's thread holds little beyond its draws.
    A tie, which needs two scores equal (a null event with distinct
    generators), lights every tied row rather than the first."""
    zp, cp, d = p.argmax_form
    zq, cq, _ = q.argmax_form
    same = zp is zq or np.array_equal(zp, zq)
    off_p = zp @ cp if cp.any() else None
    off_q = zq @ cq if cq.any() else None
    steps = []
    for r in rhos:
        s = math.sqrt(1.0 - r * r)
        steps.append((r / s, None if off_q is None else off_q[:, None] / s))

    def values(rng, k):
        x = rng.standard_normal((k, d))
        z = rng.standard_normal((k, d))
        out = np.empty((len(steps), k), dtype=bool)
        for lo in range(0, k, _SCORE_BLOCK):
            hi = min(lo + _SCORE_BLOCK, k)
            px = zq @ x[lo:hi].T
            sx = px if same else zp @ x[lo:hi].T
            if off_p is not None:
                sx = sx - off_p[:, None]
            hot_x = sx == sx.max(axis=0)
            pz = zq @ z[lo:hi].T
            buf, top = np.empty_like(px), np.empty(hi - lo)
            hot = np.empty(px.shape, dtype=bool)
            for c, (t, off) in enumerate(steps):
                np.multiply(px, t, out=buf)
                buf += pz
                if off is not None:
                    buf -= off
                np.equal(buf, buf.max(axis=0, out=top), out=hot)
                hot &= hot_x
                np.logical_or.reduce(hot, axis=0, out=out[c, lo:hi])
        return out.T

    return values


def _distinct(z: np.ndarray) -> bool:
    """Whether the rows of z differ pairwise, so that scores tie only on a null set."""
    return np.count_nonzero((z[:, None, :] == z[None, :, :]).all(axis=2)) == len(z)


def _column(est: VectorEstimate, c: int) -> Estimate:
    return Estimate(float(est.value[c]), float(est.std_error[c]), est.samples, est.method)


def agreement_values(p: PartitionSpec, q: PartitionSpec, rhos):
    """Monte Carlo integrand of sum_i P(X in p_i, Y in q_i) for rho-correlated
    pairs, one bool column per rho of ``rhos``: True where X and Y fall in
    cells of the same index.  Two argmax partitions with one ``base_dim``, one
    cell count and distinct generators take :func:`_score_values`; any other
    pair classifies X once for all the rhos and each Y by ``membership``."""
    fp, fq = p.argmax_form, q.argmax_form
    if (fp is not None and fq is not None and fp[2] == fq[2] and p.m == q.m
            and _distinct(fp[0]) and _distinct(fq[0])):
        return _score_values(p, q, rhos)
    return _pair_values(p.membership, lambda cx, y: cx == q.membership(y), rhos, p.dim)


def _closed_measures(cells):
    """The cells' closed-form measures as (value, error) pairs, or None unless
    every cell has one."""
    measures = [c.gaussian_measure_exact() for c in cells]
    return None if any(m is None for m in measures) else measures


def _tiles(measures) -> bool:
    """Whether closed-form cell measures add up to 1, as when the cells meet
    only on measure-zero sets; the per-cell routes hold only then."""
    return measures is not None and abs(sum(v for v, _ in measures) - 1.0) <= 1e-9


def _tiled_pairs(p: PartitionSpec, q: PartitionSpec):
    """The cell pairs (p_i, q_i) when the closed-form cell measures of both
    partitions tile, else None."""
    tiles = _tiles(_closed_measures(p.cells)) and (q is p or _tiles(_closed_measures(q.cells)))
    return list(zip(p.cells, q.cells)) if tiles else None


def _pair_rule(pairs, rhos, *, drho: bool = False) -> list[Estimate | None]:
    """At each rho of ``rhos``, the sum over the cell ``pairs`` (a, b) of
    P(X in a, Y in b), or of its d/drho, by the pair rule
    (:func:`noiselab.partitions.pair_sums`, one batched call for the whole
    grid, one integrand call per route kind).  Where the pair rule
    declines a pair, P at rho = 0, where X and Y are independent, is the sum
    of the products gamma(a) gamma(b) of closed-form cell measures.  None
    where neither route applies, and at every rho when ``pairs`` is None."""
    if pairs is None:
        return [None] * len(rhos)
    sums = pair_sums(pairs, rhos, drho=drho) or [None] * len(rhos)
    still = None
    if not drho and 0.0 in rhos and None in sums:
        ma, mb = _closed_measures(a for a, _ in pairs), _closed_measures(b for _, b in pairs)
        if ma is not None and mb is not None:
            still = Estimate(sum(va * vb for (va, _), (vb, _) in zip(ma, mb)),
                             sum(va * eb + vb * ea for (va, ea), (vb, eb) in zip(ma, mb)),
                             0, CLOSED_FORM)
    return [Estimate(*v, 0, QUADRATURE) if v is not None else still if r == 0.0 else None
            for v, r in zip(sums, rhos)]


def noise_stability(s: SetSpec, rho, budget: int = 1_000_000, *, seed=0,
                    threads: int = 1, mode: str = "auto") -> Estimate:
    """P((X, Y) in s x s) for a rho-correlated Gaussian pair; the
    deterministic route is :func:`_pair_rule` over the pair (s, s)."""
    r = as_rho(rho)

    def sampled():
        values = _pair_values(s.contains, lambda in_x, y: in_x & s.contains(y), [r], s.dim)
        return _column(mc_mean(values, budget, seed=seed, threads=threads), 0)

    return route(mode, lambda: _pair_rule([(s, s)], [r])[0], sampled)


def stability_sweep(p: PartitionSpec, rhos, budget: int = 1_000_000, *, seed=0,
                    threads: int = 1, mode: str = "auto") -> list[Estimate]:
    """:func:`partition_stability` at every rho of ``rhos``, in order.

    The deterministic rows come from one :func:`_pair_rule` call for the
    whole grid; each still equals the one-rho call bit for bit.  ``mode`` is
    applied row by row.  The rhos left to sampling share one Monte Carlo pair
    stream (one :func:`noiselab.gauss.mc_mean` call), so every row equals the
    one-rho call at the same seed and budget, bit for bit.
    """
    rs = [as_rho(r) for r in rhos]
    # the deterministic rows, computed together the first time a row asks
    exact = functools.cache(lambda: _pair_rule(_tiled_pairs(p, p), rs))
    to_sample = []  # a sampled row stays None until the shared pass below
    rows = [route(mode, lambda k=k: exact()[k], lambda r=r: to_sample.append(r))
            for k, r in enumerate(rs)]
    if to_sample:
        cols = list(dict.fromkeys(to_sample))
        est = mc_mean(agreement_values(p, p, cols), budget, seed=seed, threads=threads)
        rows = [_column(est, cols.index(r)) if e is None else e for r, e in zip(rs, rows)]
    return rows


def partition_stability(p: PartitionSpec, rho, budget: int = 1_000_000, *, seed=0,
                        threads: int = 1, mode: str = "auto") -> Estimate:
    """sum_i P((X, Y) in cell_i x cell_i), shared pairs across cells.  The
    one-rho case of :func:`stability_sweep`."""
    return stability_sweep(p, [rho], budget, seed=seed, threads=threads, mode=mode)[0]


def partition_stability_quadrature(p: PartitionSpec, rho: float) -> Estimate | None:
    """Deterministic stability: the sum over cells of P(X in p_i, Y in p_i) by
    :func:`_pair_rule`, as :func:`partition_stability` takes it, or None where
    that has no route: when a cell is neither a half-space, a planar sector
    nor a central cone in R^3 with three facets and, at rho = 0, also lacks a
    closed-form measure, or when the cells' closed-form measures do not tile.  A rho outside (-1, 1) raises
    :class:`DomainError`."""
    return _pair_rule(_tiled_pairs(p, p), [as_rho(rho)])[0]


def bilinear_stability(p: PartitionSpec, q: PartitionSpec, rho,
                       budget: int = 1_000_000, *, seed=0, threads: int = 1,
                       mode: str = "auto") -> Estimate:
    """sum_i P(X in p_i, Y in q_i) for a rho-correlated pair.

    Requires matching dimension and cell count, and matching cell measures
    within 3 * combined standard error.
    """
    r = as_rho(rho)
    if p.dim != q.dim:
        raise DomainError("partitions must share a dimension")
    if p.m != q.m:
        raise DomainError("partitions must have the same cell count")
    check_measure_match(p, q, seed=seed)
    return route(mode, lambda: _pair_rule(_tiled_pairs(p, q), [r])[0],
                 lambda: _column(mc_mean(agreement_values(p, q, [r]), budget, seed=seed,
                                         threads=threads), 0))


def check_measure_match(p: PartitionSpec, q: PartitionSpec, *, budget: int = 400_000,
                        seed=0) -> None:
    root = make_seedseq(seed).generate_state(1)[0]
    for k, (a, b) in enumerate(zip(p.cells, q.cells)):
        ma = gaussian_measure(a, budget, seed=[root, 1, k])
        mb = gaussian_measure(b, budget, seed=[root, 2, k])
        tol = 3.0 * (ma.std_error + mb.std_error) + 1e-9
        if abs(ma.value - mb.value) > tol:
            raise DomainError(
                f"cell {k} measures differ: {ma.value:.6f} vs {mb.value:.6f} (tol {tol:.2g})"
            )


# ---------------------------------------------------------------------------
# the first-moment (propeller) functional


def propeller_functional(p: PartitionSpec, budget: int = 1_000_000, *, seed=0,
                         mode: str = "auto") -> Estimate:
    """sum_i || integral_{cell_i} x gamma(x) dx ||^2.

    Deterministic when every cell has a closed-form moment (half-spaces,
    planar sectors and central cones in R^3) and the closed-form measures add
    up to 1.  A moment m with componentwise error e moves the squared norm by
    at most sum_c (2 |m_c| + e_c) e_c, which joins the rounding of the sum.
    In Monte Carlo mode one shared Gaussian stream feeds every cell's moment;
    the squared norms are estimated without plug-in bias by cross products of
    moments from independent shard pairs, with the standard error taken
    across pairs.
    """

    def deterministic():
        moments = [c.moment_exact() for c in p.cells]
        if any(m is None for m in moments) or not _tiles(_closed_measures(p.cells)):
            return None
        value = sum(float(m @ m) for m, _ in moments)
        err = sum(float((2 * np.abs(m) + e) @ e) for m, e in moments)
        return Estimate(value, err + ROUNDING * value, 0, QUADRATURE)

    def values(rng, k):
        # column block i holds x where x falls in cell i and 0 elsewhere
        x = rng.standard_normal((k, p.dim))
        out = np.zeros((k, p.m, p.dim))
        out[np.arange(k), p.membership(x)] = x
        return out.reshape(k, -1)

    def sampled():
        means, shard = mc_shard_means(values, budget, seed=seed)
        moments = means.reshape(len(means), p.m, p.dim)
        pair_vals = np.einsum("pid,pid->p", moments[0::2], moments[1::2])
        se = float(pair_vals.std(ddof=1) / math.sqrt(len(pair_vals)))
        return Estimate(float(pair_vals.mean()), se, shard * len(means), MONTE_CARLO)

    return route(mode, deterministic, sampled)


def half_space_stability_closed_form(measure: float, rho) -> float:
    """Noise stability of a half-space of the given Gaussian measure.

    This is the benchmark value maximizing noise stability at fixed measure:
    Phi2(a, a; rho) with a = Phi^{-1}(measure), by Owen's closed form: exact
    to rounding.
    """
    r = as_rho(rho)
    if not 0.0 < measure < 1.0:
        raise DomainError("measure must lie strictly in (0, 1)")
    a = float(ndtri(measure))
    return bivariate_normal_cdf(a, a, r)


def sheppard_half_space(rho: float) -> float:
    """1/4 + arcsin(rho) / (2 pi): stability of the measure-1/2 half-space."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)

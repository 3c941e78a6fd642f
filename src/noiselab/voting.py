"""Discrete voting rules: influences, the m-ary noise operator, plurality.

Functions map vote profiles in {0, ..., m-1}^n (n voters, m candidates) to
points of the probability simplex Delta_m.  The noise operator rerandomizes
each vote independently: a vote stays put with probability (1 + (m-1) rho)/m
and moves to each of the other m-1 values with probability (1 - rho)/m, which
is the unique normalization with uniform off-diagonal weight reducing to the
classical binary operator at m = 2.  Both weights are nonnegative exactly for
-1/(m-1) < rho < 1.

Noise stability of a simplex-valued f is S_rho f = sum_i S_rho f_i with
S_rho g = E[g(w) g(d)] over the joint vote/noisy-vote chain.  Exact values of
a tabulated f come from applying the single-vote kernel along each tensor
axis; Monte Carlo comes from sampling the chain.

Plurality depends on a profile only through its vote histogram, so its exact
stability also has a route that builds no m^n table.  Given hist(w) = c, the
noisy histogram hist(d) has the generating function prod_a (K_a . x)^(c_a),
where K_a is row a of the noise kernel.  The route evaluates that product on
the (n+1)^(m-1) DFT grid for each histogram up to relabelling of candidates
(a partition of n into at most m parts), pairs it with the DFT of plurality's
values on the grid, and weights each histogram by its orbit size times its
multinomial probability.  The exponents c_a are integers 0..n, so the
products come from a table of integer powers (K_a . x)^k built by repeated
multiplication at each grid point: a histogram's product is m rows gathered
from the table and multiplied, with no exp, log or trigonometric call per
histogram.  The plurality table takes whichever exact route costs less and
samples only when both refuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gauss import DomainError, Estimate, mc_mean
from .partitions import halfspace_partition, simplex_cone_partition
from .stability import partition_stability

EXACT_TABLE_LIMIT = 10_000_000
#: largest n * m^(n+1) that exact stability may cost (see _exact_affordable)
EXACT_PAIR_LIMIT = 6_000_000
#: byte cap, at 16 bytes per grid point, on each (rows x half DFT grid) array
#: of the histogram route: the m transformed plurality columns, each
#: (m x (n+1) x columns) table of powers, and each block of gathered rows
HISTOGRAM_BLOCK_BYTES = 16 << 20
#: largest histograms * half grid * m that the histogram route may cost: about
#: 2 ns a unit on 2 CPUs, so (3, 201) at 2.1e8 takes 0.4 s, where the sampled
#: row it replaces holds samples x n votes (0.22 GB at (3, 101), 200,000 samples)
HISTOGRAM_PAIR_LIMIT = 500_000_000
#: cache-sized bytes of the histogram route's power table per block of grid
#: columns, and of each block of histogram rows gathered from it
_POWER_BYTES = 1 << 20
_GATHER_BYTES = 1 << 19
#: votes per Monte Carlo shard of the chain samplers, whose pairs depend on n alone
_SHARD_VOTES = 1 << 22
SIMPLEX_TOL = 1e-12


def noise_alphabet_range(m: int) -> tuple[float, float]:
    return (-1.0 / (m - 1), 1.0)


def noise_kernel(m: int, rho: float) -> np.ndarray:
    """Single-vote transition matrix; rows sum to one exactly.

    The diagonal is the correctly rounded value of 1 - (m-1)*move computed in
    exact rational arithmetic, which keeps every row's true sum within half an
    ulp of 1 (naive float evaluation can drift a full ulp below 1).
    """
    if m < 2:
        raise DomainError("alphabet size must be >= 2")
    lo, hi = noise_alphabet_range(m)
    if not lo < rho < hi:
        raise DomainError(f"rho must lie in ({lo:.6f}, 1) for m={m}")
    move = (1.0 - rho) / m
    stay = float(Fraction(1) - (m - 1) * Fraction(move))
    kernel = np.full((m, m), move)
    np.fill_diagonal(kernel, stay)
    return kernel


@dataclass(frozen=True)
class DiscreteFunction:
    """A map {0..m-1}^n -> Delta_m stored as an explicit (m^n, m) table.

    Row order is lexicographic in the profile, least-significant voter first:
    profile w has row index sum_i w_i * m^i.
    """

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.m < 2 or self.n < 1:
            raise DomainError("need m >= 2 candidates and n >= 1 voters")
        if self.m**self.n > EXACT_TABLE_LIMIT:
            raise DomainError("table exceeds the exact-mode size limit")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.m**self.n, self.m):
            raise DomainError(f"table must have shape ({self.m ** self.n}, {self.m})")
        if np.any(vals < -SIMPLEX_TOL) or np.any(np.abs(vals.sum(axis=1) - 1.0) > SIMPLEX_TOL):
            raise DomainError("rows must lie on the probability simplex")
        object.__setattr__(self, "values", vals)

    def profile_index(self, profile) -> int:
        w = np.asarray(profile, dtype=int)
        if w.shape != (self.n,) or w.min() < 0 or w.max() >= self.m:
            raise DomainError("profile must be n votes in {0..m-1}")
        return int(np.dot(w, self.m ** np.arange(self.n)))

    def __call__(self, profile) -> np.ndarray:
        return self.values[self.profile_index(profile)]

    def coordinate(self, j: int) -> np.ndarray:
        if not 0 <= j < self.m:
            raise DomainError("coordinate index out of range")
        return self.values[:, j]


def _as_tensor(table: np.ndarray, m: int, n: int) -> np.ndarray:
    # axis i indexes voter i
    return np.asarray(table, dtype=float).reshape((m,) * n, order="F")


def influence(table, m: int, n: int, voter: int) -> float:
    """Inf_voter(g) = E[(g - E_voter g)^2] under the uniform measure (exact)."""
    if not 0 <= voter < n:
        raise DomainError("voter index out of range")
    g = _as_tensor(table, m, n)
    centered = g - g.mean(axis=voter, keepdims=True)
    return float(np.mean(centered**2))


def apply_noise(table, m: int, n: int, rho: float) -> np.ndarray:
    """The noise operator applied to a real table, one tensor axis at a time."""
    kernel = noise_kernel(m, rho)
    g = _as_tensor(table, m, n)
    for axis in range(n):
        g = np.moveaxis(np.tensordot(kernel, np.moveaxis(g, axis, 0), axes=(1, 0)), 0, axis)
    return g.reshape(-1, order="F")


def discrete_noise_stability(f, rho: float) -> float:
    """Exact S_rho: E[g(w) g(d)] summed over simplex coordinates.

    Accepts a DiscreteFunction only and raises DomainError on anything else;
    coordinate_stability takes a single real table with its m and n.
    """
    if isinstance(f, DiscreteFunction):
        return sum(coordinate_stability(f.coordinate(j), f.m, f.n, rho) for j in range(f.m))
    raise DomainError("expected a DiscreteFunction; use coordinate_stability for raw tables")


def _exact_affordable(m: int, n: int) -> bool:
    """Whether exact S_rho of an m^n table is within the limit: the noise
    operator costs n * m^(n+1) per coordinate, and the limit is where the
    exact plurality row (its table included) stops beating the sampled one."""
    return n * m ** (n + 1) <= EXACT_PAIR_LIMIT


def coordinate_stability(table, m: int, n: int, rho: float) -> float:
    """Exact S_rho g for one real-valued table g."""
    if not _exact_affordable(m, n):
        raise DomainError("exact stability exceeds the exact-mode cost limit; use the MC variant")
    g = np.asarray(table, dtype=float)
    return float(np.mean(g * apply_noise(g, m, n, rho)))


def sample_noisy_profiles(m: int, n: int, rho: float, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """k i.i.d. pairs (w, d) from the uniform/noise joint chain, as (k, n) arrays.

    The votes w are drawn, then whether each vote moves, then a shift 1..m-1
    for each; d = (w + shift * move) mod m.  The votes and shifts are drawn
    directly in the smallest unsigned type that holds w + shift <= 2m - 2,
    and d is formed in place in it.  The move draw is a float64 uniform: a
    float32 one would bias the move probability by up to 2^-24.
    """
    stay = float(noise_kernel(m, rho)[0, 0])
    small = np.min_scalar_type(2 * m - 2)
    w = rng.integers(0, m, size=(k, n), dtype=small)
    move = rng.random((k, n)) >= stay
    d = rng.integers(1, m, size=(k, n), dtype=small)
    d *= move
    d += w
    d %= m
    return w, d


def discrete_noise_stability_mc(f: DiscreteFunction, rho: float, samples: int = 200_000,
                                *, seed=0) -> Estimate:
    """Unbiased Monte Carlo for S_rho f over the product chain."""
    powers = f.m ** np.arange(f.n)

    def values(rng, k):
        w, d = sample_noisy_profiles(f.m, f.n, rho, k, rng)
        return np.einsum("ij,ij->i", f.values[w @ powers], f.values[d @ powers])

    return mc_mean(values, samples, seed=seed, shard=max(_SHARD_VOTES // f.n, 1))


def plurality(m: int, n: int) -> DiscreteFunction:
    """The plurality rule: the strict winner's basis vector, or the uniform
    simplex point on any tie."""
    size = m**n
    if size > EXACT_TABLE_LIMIT:
        raise DomainError("table exceeds the exact-mode size limit")
    profiles = np.stack([np.arange(size) // m**i % m for i in range(n)], axis=1)
    return DiscreteFunction(m, n, plurality_values(m, profiles))


def plurality_values(m: int, profiles: np.ndarray) -> np.ndarray:
    """PLUR evaluated directly on a (k, n) array of profiles (oracle mode)."""
    return plurality_of_counts(np.stack([np.count_nonzero(profiles == c, axis=1)
                                         for c in range(m)], axis=1))


def plurality_of_counts(counts: np.ndarray) -> np.ndarray:
    """PLUR of a (k, m) array of vote counts: the strict winner's basis
    vector, or the uniform simplex point on any tie."""
    winners = counts == counts.max(axis=1)[:, None]
    vals = np.full(counts.shape, 1.0 / counts.shape[1])
    strict = winners.sum(axis=1) == 1
    vals[strict] = winners[strict].astype(float)
    return vals


def _histogram_count(m: int, n: int) -> int:
    # partitions of n into at most m parts, counted as partitions with parts <= m
    ways = [1] + [0] * n
    for part in range(1, m + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _histogram_cost(m: int, n: int) -> int | None:
    """Histograms x half grid x m, the histogram route's cost, or None when it
    refuses: the m transformed plurality columns must fit one block, and the
    cost the pair limit."""
    grid = (n + 1) ** (m - 2) * ((n + 1) // 2 + 1)
    if 16 * grid * m > HISTOGRAM_BLOCK_BYTES:
        return None
    cost = _histogram_count(m, n) * grid * m
    return cost if cost <= HISTOGRAM_PAIR_LIMIT else None


def _sorted_histograms(m: int, n: int) -> np.ndarray:
    """Every histogram of n votes over m candidates up to relabelling: the
    partitions of n into at most m parts, largest first, zero-padded."""
    out = []

    def extend(prefix, left):
        slots = m - len(prefix)
        if slots == 0:
            out.append(prefix)
            return
        for first in range(min(left, prefix[-1] if prefix else n), -(-left // slots) - 1, -1):
            extend(prefix + (first,), left - first)

    extend((), n)
    return np.array(out)


def _histogram_weights(reps: np.ndarray, m: int, n: int) -> np.ndarray:
    """P(hist(w) lands in the orbit of each sorted histogram): orbit size times
    multinomial over m^n, each an exact integer divided once by m^n."""
    fact = [1]
    for k in range(1, max(m, n) + 1):
        fact.append(fact[-1] * k)
    # a run of k equal counts in a sorted row divides the orbit by k!, which is
    # the product of each entry's rank 1..k within its run
    rank = np.ones(reps.shape, dtype=int)
    for a in range(1, m):
        rank[:, a] = np.where(reps[:, a] == reps[:, a - 1], rank[:, a - 1] + 1, 1)
    numerator, scale = fact[m] * fact[n], m**n
    return np.array([numerator // (math.prod(r) * math.prod([fact[a] for a in c])) / scale
                     for c, r in zip(reps.tolist(), rank.tolist())])


def plurality_stability_histogram(m: int, n: int, rho: float) -> float:
    """Exact S_rho PLUR_{m,n} from the vote histogram; no m^n table is built.

    For each histogram c up to relabelling, E[PLUR(hist d) | c] is the
    pairing of the generating function prod_a (K_a . x)^(c_a) on the DFT grid
    with the DFT of plurality's values there.  Both are conjugate-symmetric,
    so only the half grid of a real FFT is evaluated.  The counts c_a are
    integers 0..n, so the products are read from a table of the powers
    (K_a . x)^k, k = 0..n, built by repeated multiplication for a block of
    grid columns: each histogram's row is m gathered table rows multiplied
    together, and one real matrix product sums the rows, weighted, per
    candidate.  The m transformed plurality columns, each power table and
    each block of gathered rows stay under HISTOGRAM_BLOCK_BYTES.
    """
    if n < 1:
        raise DomainError("need n >= 1 voters")
    kernel = noise_kernel(m, rho)
    if _histogram_cost(m, n) is None:
        raise DomainError("the histogram route exceeds its cost limit; use the MC variant")
    # plurality's values on the grid of noisy histograms (e_0..e_{m-2}, n - sum)
    shape = (n + 1,) * (m - 1)
    full = np.indices(shape).reshape(m - 1, -1)
    counts = np.vstack([full, n - full.sum(axis=0)]).T
    values = plurality_of_counts(counts) * (counts[:, -1] >= 0)[:, None]
    spectrum = np.fft.rfftn(values.reshape(shape + (m,)), axes=tuple(range(m - 1)))
    half = spectrum.shape[:-1]
    # a real FFT keeps last-axis indices 0..(n+1)//2; all but 0 and (n+1)/2
    # stand for a conjugate pair, which the real part counts twice
    fold = np.full(half[-1], 2.0)
    fold[0] = 1.0
    if n % 2:
        fold[-1] = 1.0
    spectrum = (spectrum * (fold[:, None] / full.shape[1])).reshape(-1, m)
    # sum Re(spectrum * u) is the float dot of conj(spectrum) with u
    paired = np.ascontiguousarray(spectrum.conj().T).view(float)
    # K_a . x on the half grid, with x_{m-1} = 1
    t = np.indices(half).reshape(m - 1, -1)
    gen = kernel @ np.vstack([np.exp(2j * np.pi / (n + 1) * t), np.ones((1, t.shape[1]))])
    reps = _sorted_histograms(m, n)
    scaled = (_histogram_weights(reps, m, n)[:, None] * plurality_of_counts(reps)).T.copy()
    # row a * (n+1) + c_a of the flattened power table holds (K_a . x)^(c_a)
    index = reps + (n + 1) * np.arange(m)
    grid = t.shape[1]
    cols = min(grid, max(1, min(_POWER_BYTES, HISTOGRAM_BLOCK_BYTES) // (16 * m * (n + 1))))
    rows = min(len(reps), max(1, min(_GATHER_BYTES, HISTOGRAM_BLOCK_BYTES) // (16 * cols)))
    # flat buffers, so that the narrower last column block is contiguous too
    powers = np.empty(m * (n + 1) * cols, complex)
    z, factor = np.empty(rows * cols, complex), np.empty(rows * cols, complex)
    total = 0.0
    for g in range(0, grid, cols):
        width = min(cols, grid - g)
        pw = powers[:m * (n + 1) * width].reshape(m, n + 1, width)
        pw[:, 0] = 1.0
        for k in range(1, n + 1):
            np.multiply(pw[:, k - 1], gen[:, g:g + width], out=pw[:, k])
        table = pw.reshape(m * (n + 1), width)
        u = np.zeros((m, 2 * width))
        for s in range(0, len(reps), rows):
            block = index[s:s + rows]
            zb = z[:len(block) * width].reshape(-1, width)
            fb = factor[:len(block) * width].reshape(-1, width)
            # every index is in range; mode="clip" lets take write into out
            # directly, where mode="raise" would buffer it
            np.take(table, block[:, 0], axis=0, out=zb, mode="clip")
            for a in range(1, m):
                np.take(table, block[:, a], axis=0, out=fb, mode="clip")
                zb *= fb
            u += scaled[:, s:s + rows] @ zb.view(float)
        # einsum, not a BLAS dot: at m = 5 a dot this long wakes a second
        # thread, and (5, 8) took 24 ms instead of 4 ms on 2 CPUs
        total += float(np.einsum("ij,ij->", paired[:, 2 * g:2 * (g + width)], u))
    return total


def plurality_stability_mc(m: int, n: int, rho: float, samples: int = 200_000,
                           *, seed=0) -> Estimate:
    """Monte Carlo S_rho PLUR_{m,n} without tabulating the rule."""

    def values(rng, k):
        w, d = sample_noisy_profiles(m, n, rho, k, rng)
        return np.einsum("ij,ij->i", plurality_values(m, w), plurality_values(m, d))

    return mc_mean(values, samples, seed=seed, shard=max(_SHARD_VOTES // n, 1))


def plurality_stability_table(m: int, rho: float, n_list, samples: int = 200_000,
                              *, seed=0, benchmark_budget: int = 400_000,
                              threads: int = 1) -> list[dict]:
    """S_rho of plurality for each n, plus the continuous cone benchmark.

    Rows carry (m, n, rho, value, std_error, method); the final row reports
    the simplex-cone partition stability at the same rho (the conjectured
    large-n comparison point), with n = "limit", sampled on ``threads``
    threads where it has no deterministic route.  Each row takes the cheaper
    exact route, the histogram or the tensor contraction, and samples only
    when both refuse.
    """
    rows = []
    for k, n in enumerate(n_list):
        val = _exact_plurality_stability(m, n, rho)
        if val is not None:
            rows.append({"m": m, "n": n, "rho": rho, "value": val,
                         "std_error": 0.0, "method": "exact"})
        else:
            est = plurality_stability_mc(m, n, rho, samples, seed=[seed, k])
            rows.append({"m": m, "n": n, "rho": rho, "value": est.value,
                         "std_error": est.std_error, "method": est.method})
    rows.append(_continuous_benchmark(m, rho, benchmark_budget, seed, threads))
    return rows


def _exact_plurality_stability(m: int, n: int, rho: float) -> float | None:
    """S_rho PLUR_{m,n} by the cheaper exact route, or None when both refuse."""
    histogram = _histogram_cost(m, n)
    tensor = n * m ** (n + 1) if _exact_affordable(m, n) else None
    if histogram is not None and (tensor is None or histogram <= tensor):
        return plurality_stability_histogram(m, n, rho)
    if tensor is not None:
        return discrete_noise_stability(plurality(m, n), rho)
    return None


def _continuous_benchmark(m: int, rho: float, budget: int, seed, threads: int) -> dict:
    # m = 2 cones in R^1 are the opposing half-lines; use the half-space
    # representation so the closed-form route applies
    part = halfspace_partition([1.0], 0.0) if m == 2 else simplex_cone_partition(m)
    est = partition_stability(part, rho, budget, seed=seed, threads=threads)
    return {"m": m, "n": "limit", "rho": rho, "value": est.value,
            "std_error": est.std_error, "method": f"continuous-simplex-cones/{est.method}"}

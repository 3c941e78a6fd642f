"""Discrete voting rules: influences, the m-ary noise operator, plurality.

Functions map vote profiles in {0, ..., m-1}^n (n voters, m candidates) to
points of the probability simplex Delta_m.  The noise operator rerandomizes
each vote independently: a vote stays put with probability (1 + (m-1) rho)/m
and moves to each of the other m-1 values with probability (1 - rho)/m, which
is the unique normalization with uniform off-diagonal weight reducing to the
classical binary operator at m = 2.  Both weights are nonnegative exactly for
-1/(m-1) < rho < 1.

Noise stability of a simplex-valued f is S_rho f = sum_i S_rho f_i with
S_rho g = E[g(w) g(d)] over the joint vote/noisy-vote chain; exact values
come from applying the single-vote kernel along each tensor axis, Monte Carlo
from sampling the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gauss import DomainError, Estimate, make_seedseq, mean_over_shards
from .partitions import halfspace_partition, simplex_cone_partition
from .stability import partition_stability

EXACT_TABLE_LIMIT = 10_000_000
#: largest n * m^(n+1) that exact stability may cost (see _exact_affordable)
EXACT_PAIR_LIMIT = 6_000_000
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

    Accepts a DiscreteFunction (sums its coordinates) or a single real table
    (pass m, n via a DiscreteFunction for validation-sensitive uses).
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
    """k i.i.d. pairs (w, d) from the uniform/noise joint chain."""
    stay = float(noise_kernel(m, rho)[0, 0])
    w = rng.integers(0, m, size=(k, n))
    move = rng.random((k, n)) >= stay
    shift = rng.integers(1, m, size=(k, n))
    d = np.where(move, (w + shift) % m, w)
    return w, d


def discrete_noise_stability_mc(f: DiscreteFunction, rho: float, samples: int = 200_000,
                                *, seed=0) -> Estimate:
    """Unbiased Monte Carlo for S_rho f over the product chain."""
    powers = f.m ** np.arange(f.n)

    def values(rng, k):
        w, d = sample_noisy_profiles(f.m, f.n, rho, k, rng)
        return np.einsum("ij,ij->i", f.values[w @ powers], f.values[d @ powers])

    return _chain_mean(values, samples, seed)


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
    counts = np.stack([(profiles == c).sum(axis=1) for c in range(m)], axis=1)
    winners = counts == counts.max(axis=1)[:, None]
    n_winners = winners.sum(axis=1)
    vals = np.full((profiles.shape[0], m), 1.0 / m)
    strict = n_winners == 1
    vals[strict] = winners[strict].astype(float)
    return vals


def plurality_stability_mc(m: int, n: int, rho: float, samples: int = 200_000,
                           *, seed=0) -> Estimate:
    """Monte Carlo S_rho PLUR_{m,n} without tabulating the rule."""

    def values(rng, k):
        w, d = sample_noisy_profiles(m, n, rho, k, rng)
        return np.einsum("ij,ij->i", plurality_values(m, w), plurality_values(m, d))

    return _chain_mean(values, samples, seed)


def _chain_mean(values_fn, samples: int, seed) -> Estimate:
    # the chain is one shard drawn from the seed's root generator: that
    # layout fixes the seeded values these estimators report
    if samples <= 0:
        raise DomainError("sample budget must be positive")
    return mean_over_shards(values_fn, [np.random.default_rng(make_seedseq(seed))], [samples])


def plurality_stability_table(m: int, rho: float, n_list, samples: int = 200_000,
                              *, seed=0, benchmark_budget: int = 400_000) -> list[dict]:
    """S_rho of plurality for each n, plus the continuous cone benchmark.

    Rows carry (m, n, rho, value, std_error, method); the final row reports
    the simplex-cone partition stability at the same rho (the conjectured
    large-n comparison point), with n = "limit".
    """
    rows = []
    for k, n in enumerate(n_list):
        if _exact_affordable(m, n):
            val = discrete_noise_stability(plurality(m, n), rho)
            rows.append({"m": m, "n": n, "rho": rho, "value": val,
                         "std_error": 0.0, "method": "exact"})
        else:
            est = plurality_stability_mc(m, n, rho, samples, seed=[seed, k])
            rows.append({"m": m, "n": n, "rho": rho, "value": est.value,
                         "std_error": est.std_error, "method": est.method})
    rows.append(_continuous_benchmark(m, rho, benchmark_budget, seed))
    return rows


def _continuous_benchmark(m: int, rho: float, budget: int, seed) -> dict:
    # m = 2 cones in R^1 are the opposing half-lines; use the half-space
    # representation so the closed-form route applies
    part = halfspace_partition([1.0], 0.0) if m == 2 else simplex_cone_partition(m)
    est = partition_stability(part, rho, budget, seed=seed)
    return {"m": m, "n": "limit", "rho": rho, "value": est.value,
            "std_error": est.std_error, "method": f"continuous-simplex-cones/{est.method}"}

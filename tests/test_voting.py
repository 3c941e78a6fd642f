"""Tests for influences, the m-ary noise operator, and plurality stability."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselab import voting
from noiselab.gauss import DomainError
from noiselab.voting import (
    DiscreteFunction,
    coordinate_stability,
    discrete_noise_stability,
    discrete_noise_stability_mc,
    influence,
    noise_kernel,
    plurality,
    plurality_stability_histogram,
    plurality_stability_mc,
    plurality_stability_table,
    plurality_values,
)


def orbit_weight(c, m: int, n: int) -> float:
    """P(hist(w) is a relabelling of c), rounded once from the exact fraction."""
    orbit = math.factorial(m)
    for k in Counter(c).values():
        orbit //= math.factorial(k)
    multinomial = math.factorial(n)
    for a in c:
        multinomial //= math.factorial(a)
    return float(Fraction(orbit * multinomial, m**n))


def convolution_stability(m: int, n: int, rho: float) -> float:
    """Independent oracle for the histogram route at large n: for each
    histogram up to relabelling, the law of the noisy histogram is built by
    convolving in one voter's kernel row at a time (no DFT, no power table)."""
    stay, move = (1 + (m - 1) * rho) / m, (1 - rho) / m
    hists = [c for c in itertools.combinations_with_replacement(range(n, -1, -1), m)
             if sum(c) == n]
    # voter t of histogram h votes votes[h, t]; the law is over the counts of
    # candidates 0..m-2, the last count being n minus their sum
    votes = np.array([np.repeat(np.arange(m), c) for c in hists])
    law = np.zeros((len(hists),) + (n + 1,) * (m - 1))
    law[(slice(None),) + (0,) * (m - 1)] = 1.0
    for t in range(n):
        grown = np.zeros_like(law)
        for b in range(m):
            coef = np.where(votes[:, t] == b, stay, move).reshape((-1,) + (1,) * (m - 1))
            if b == m - 1:
                grown += coef * law
            else:
                to = [slice(None)] * m
                to[b + 1] = slice(1, None)
                frm = [slice(None)] * m
                frm[b + 1] = slice(None, -1)
                grown[tuple(to)] += coef * law[tuple(frm)]
        law = grown

    def rule(counts):
        # the strict winner's basis vector, else the uniform point
        top = counts == counts.max(axis=1, keepdims=True)
        return np.where(top.sum(axis=1, keepdims=True) == 1, top, 1.0 / m)

    grid = np.indices((n + 1,) * (m - 1)).reshape(m - 1, -1).T
    noisy = rule(np.column_stack([grid, n - grid.sum(axis=1)]))
    agree = rule(np.array(hists)) @ noisy.T
    weights = np.array([orbit_weight(c, m, n) for c in hists])
    return float(weights @ np.einsum("hg,hg->h", law.reshape(len(hists), -1), agree))


def brute_force_stability(f: DiscreteFunction, rho: float) -> float:
    """Independent oracle: direct enumeration of all (profile, noisy) pairs."""
    m, n = f.m, f.n
    stay = (1 + (m - 1) * rho) / m
    move = (1 - rho) / m
    total = 0.0
    for w in itertools.product(range(m), repeat=n):
        fw = f.values[f.profile_index(w)]
        for d in itertools.product(range(m), repeat=n):
            weight = 1.0
            for a, b in zip(w, d):
                weight *= stay if a == b else move
            total += weight * float(fw @ f.values[f.profile_index(d)])
    return total / m**n


class TestNoiseKernel:
    def test_rows_sum_to_one_exactly(self):
        for m in (2, 3, 4, 7):
            for rho in (0.37, 0.9, -0.2 / (m - 1)):
                kernel = noise_kernel(m, rho)
                assert all(math.fsum(row) == 1.0 for row in kernel)

    @given(st.integers(2, 8), st.floats(-0.99, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_property(self, m, rho):
        lo, hi = -1.0 / (m - 1), 1.0
        if not lo < rho < hi:
            with pytest.raises(DomainError):
                noise_kernel(m, rho)
            return
        kernel = noise_kernel(m, rho)
        assert all(math.fsum(row) == 1.0 for row in kernel)
        assert np.all(kernel >= 0)

    def test_second_eigenvalue_is_rho(self):
        kernel = noise_kernel(5, 0.43)
        eigs = sorted(np.linalg.eigvalsh(kernel), reverse=True)
        assert eigs[0] == pytest.approx(1.0, abs=1e-12)
        assert eigs[1] == pytest.approx(0.43, abs=1e-12)

    def test_binary_case_classical(self):
        kernel = noise_kernel(2, 0.6)
        assert kernel[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert kernel[0, 1] == pytest.approx(0.2, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            noise_kernel(3, -0.5)
        with pytest.raises(DomainError):
            noise_kernel(3, 1.0)


class TestInfluence:
    def test_single_voter_indicator(self):
        # g(w) = 1_{w_0 = 0}, m = 3, n = 2: Inf_0 = E[(g - 1/3)^2] = 2/9
        g = np.array([1.0 if (i % 3) == 0 else 0.0 for i in range(9)])
        assert influence(g, 3, 2, 0) == pytest.approx(2.0 / 9.0, abs=1e-14)
        assert influence(g, 3, 2, 1) == 0.0

    def test_constant_function(self):
        g = np.full(27, 0.4)
        for voter in range(3):
            assert influence(g, 3, 3, voter) == pytest.approx(0.0, abs=1e-30)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            influence(np.zeros(9), 3, 2, 2)

    def test_plurality_influence_decreasing_in_n(self):
        vals = []
        for n in (1, 3, 5):
            f = plurality(3, n)
            vals.append(influence(f.coordinate(0), 3, n, 0))
        assert vals[0] > vals[1] > vals[2]

    def test_influence_symmetric_across_voters(self):
        f = plurality(3, 3)
        g = f.coordinate(1)
        infs = [influence(g, 3, 3, v) for v in range(3)]
        assert infs[0] == pytest.approx(infs[1], abs=1e-14)
        assert infs[0] == pytest.approx(infs[2], abs=1e-14)


class TestDiscreteFunction:
    def test_simplex_validation(self):
        with pytest.raises(DomainError):
            DiscreteFunction(2, 1, np.array([[0.5, 0.6], [1.0, 0.0]]))
        with pytest.raises(DomainError):
            DiscreteFunction(2, 1, np.array([[-0.1, 1.1], [1.0, 0.0]]))

    def test_profile_indexing(self):
        f = plurality(3, 2)
        assert f.profile_index([2, 1]) == 2 + 3
        with pytest.raises(DomainError):
            f.profile_index([3, 0])


class TestExactStability:
    def test_dictator(self):
        for rho in (0.0, 0.25, 0.7, -0.3):
            f = plurality(3, 1)
            assert discrete_noise_stability(f, rho) == pytest.approx(
                (1 + 2 * rho) / 3.0, abs=1e-13
            )

    def test_against_brute_force(self):
        f = plurality(3, 2)
        for rho in (0.4, -0.2):
            assert discrete_noise_stability(f, rho) == pytest.approx(
                brute_force_stability(f, rho), abs=1e-11
            )

    def test_rho_zero_gives_squared_mean(self):
        f = plurality(3, 4)
        assert discrete_noise_stability(f, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        g = f.coordinate(0)
        assert coordinate_stability(g, 3, 4, 0.0) == pytest.approx(
            float(np.mean(g)) ** 2, abs=1e-12
        )

    def test_rho_near_one_gives_second_moment(self):
        f = plurality(3, 3)
        g = f.coordinate(0)
        val = coordinate_stability(g, 3, 3, 1 - 1e-9)
        assert val == pytest.approx(float(np.mean(g * g)), abs=1e-6)

    def test_stability_in_unit_interval(self):
        for n in (1, 2, 3, 4):
            for rho in (-0.4, 0.1, 0.8):
                val = discrete_noise_stability(plurality(3, n), rho)
                assert -1e-12 <= val <= 1 + 1e-12

    def test_candidate_relabeling_symmetry(self):
        # permuting the alphabet leaves plurality stability unchanged exactly
        m, n, rho = 3, 3, 0.45
        f = plurality(m, n)
        perm = np.array([2, 0, 1])
        size = m**n
        profiles = np.stack([np.arange(size) // m**i % m for i in range(n)], axis=1)
        relabeled_rows = (perm[profiles] * (m ** np.arange(n))).sum(axis=1)
        new_vals = np.empty_like(f.values)
        new_vals[relabeled_rows] = f.values[:, np.argsort(perm)][np.arange(size)]
        g = DiscreteFunction(m, n, new_vals)
        assert discrete_noise_stability(g, rho) == discrete_noise_stability(f, rho)

    def test_expected_plurality_is_uniform(self):
        f = plurality(3, 4)
        mean = f.values.mean(axis=0)
        assert np.allclose(mean, 1.0 / 3.0, atol=1e-14)

    def test_exact_mode_limits(self):
        with pytest.raises(DomainError):
            plurality(10, 8)  # 10^8 rows exceeds the table limit


class TestPlurality:
    def test_strict_winner(self):
        f = plurality(3, 3)
        assert np.array_equal(f([0, 0, 1]), [1.0, 0.0, 0.0])
        assert np.array_equal(f([2, 1, 2]), [0.0, 0.0, 1.0])

    def test_tie_gives_uniform_point(self):
        f = plurality(3, 3)
        assert np.allclose(f([0, 1, 2]), [1 / 3, 1 / 3, 1 / 3])

    def test_single_voter_is_dictator(self):
        f = plurality(3, 1)
        for w in range(3):
            expect = np.zeros(3)
            expect[w] = 1.0
            assert np.array_equal(f([w]), expect)


class TestMonteCarlo:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_exact(self, n):
        rho = 0.4
        f = plurality(3, n)
        exact = discrete_noise_stability(f, rho)
        est = discrete_noise_stability_mc(f, rho, 200_000, seed=n)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_oracle_variant_matches_exact(self):
        exact = discrete_noise_stability(plurality(3, 5), 0.4)
        est = plurality_stability_mc(3, 5, 0.4, 300_000, seed=7)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_constant_uniform_function(self):
        vals = np.full((9, 3), 1.0 / 3.0)
        f = DiscreteFunction(3, 2, vals)
        for rho in (0.3, -0.2):
            assert discrete_noise_stability(f, rho) == pytest.approx(1 / 3, abs=1e-13)
            est = discrete_noise_stability_mc(f, rho, 10_000, seed=8)
            assert est.value == pytest.approx(1 / 3, abs=1e-12)


class TestStabilityTable:
    def test_exact_rows_and_benchmark(self):
        rows = plurality_stability_table(3, 0.4, [1, 3, 5], seed=9,
                                         benchmark_budget=200_000)
        assert [r["n"] for r in rows] == [1, 3, 5, "limit"]
        assert rows[0]["value"] == pytest.approx((1 + 0.8) / 3.0, abs=1e-13)
        assert all(r["method"] == "exact" for r in rows[:3])
        assert rows[-1]["method"].startswith("continuous-simplex-cones")

    def test_small_n_decreasing_toward_limit(self):
        # for positive correlation the early odd-n values decrease (ties
        # depress stability before the large-n recovery)
        rows = plurality_stability_table(3, 0.4, [1, 3, 5], seed=10,
                                         benchmark_budget=100_000)
        vals = [r["value"] for r in rows[:3]]
        assert vals[0] > vals[1] > vals[2]

    def test_rho_zero_rows(self):
        rows = plurality_stability_table(3, 0.0, [1, 2, 3], seed=11,
                                         benchmark_budget=100_000)
        for r in rows[:3]:
            assert r["value"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_binary_matches_halfspace_benchmark(self):
        rows = plurality_stability_table(2, 0.5, [1], seed=12, benchmark_budget=100_000)
        bench = rows[-1]
        # opposing half-lines at rho = 0.5 score 2/3
        assert bench["value"] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_exact_rows_follow_the_cost(self):
        # exact by the cheaper route, which is the histogram for both
        for m, n in ((3, 9), (4, 7)):
            row = plurality_stability_table(m, 0.4, [n], benchmark_budget=1_000)[0]
            mc = plurality_stability_mc(m, n, 0.4, 200_000, seed=14)
            assert row["method"] == "exact"
            assert abs(row["value"] - mc.value) <= 4 * mc.std_error
        # at m = 17 the histogram grid is far too large; 4 * 17^5 fits the
        # tensor route, and 10 * 17^11 refuses both exact routes
        rows = plurality_stability_table(17, 0.4, [4, 10], samples=1_000, benchmark_budget=1_000)
        assert [r["method"] for r in rows[:2]] == ["exact", "monte-carlo"]

    def test_large_n_uses_monte_carlo(self):
        rows = plurality_stability_table(17, 0.4, [10], samples=50_000, seed=13,
                                         benchmark_budget=50_000)
        assert rows[0]["method"] == "monte-carlo"
        assert rows[0]["std_error"] > 0


class TestOneCopyPerRule:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (3, 1), (3, 3), (3, 5), (4, 2), (4, 3)])
    def test_plurality_table_matches_a_direct_count(self, m, n):
        # the tie rule written out independently of plurality_values
        profiles = np.array(list(itertools.product(range(m), repeat=n)))[:, ::-1]
        expect = np.full((m**n, m), 1.0 / m)
        for row, w in enumerate(profiles):
            counts = np.bincount(w, minlength=m)
            if (counts == counts.max()).sum() == 1:
                expect[row] = np.eye(m)[counts.argmax()]
        assert np.array_equal(plurality(m, n).values, expect)
        assert np.array_equal(plurality(m, n).values, plurality_values(m, profiles))

    def test_stability_is_the_sum_of_coordinate_stabilities(self):
        f = plurality(3, 5)
        total = sum(coordinate_stability(f.coordinate(j), 3, 5, 0.4) for j in range(3))
        assert discrete_noise_stability(f, 0.4) == total == 0.4589945679012346

    def test_pair_limit_guard(self):
        # exact stability costs n * m^(n+1) multiply-adds: 14 * 3^15 > the limit,
        # and the guard refuses before it reads the table
        with pytest.raises(DomainError):
            coordinate_stability(np.zeros(1), 3, 14, 0.4)

    def test_seeded_chain_estimates(self):
        # literals recorded when the chains moved onto mc_mean's vote-sized
        # shards, each within 4 SE of the exact value
        est = discrete_noise_stability_mc(plurality(3, 3), 0.4, 200_000, seed=20)
        assert (est.value, est.samples, est.method) == (0.501585, 200_000, "monte-carlo")
        assert est.std_error == pytest.approx(0.0009109472659451468, rel=1e-12)
        assert abs(est.value - discrete_noise_stability(plurality(3, 3), 0.4)) <= 4 * est.std_error
        est = plurality_stability_mc(3, 5, 0.4, 200_000, seed=21)
        assert (est.value, est.samples) == (0.45995166666666665, 200_000)
        assert est.std_error == pytest.approx(0.000773344310815725, rel=1e-12)
        assert abs(est.value - plurality_stability_histogram(3, 5, 0.4)) <= 4 * est.std_error
        with pytest.raises(DomainError):
            plurality_stability_mc(3, 5, 0.4, 0)

    def test_sampler_memory(self):
        # votes are held in one byte each: 50,000 profiles of 101 votes traced
        # 167 MB when each pair of draws was held in int64
        tracemalloc.start()
        try:
            est = plurality_stability_mc(3, 101, 0.4, 50_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.samples == 50_000
        assert peak <= 80e6

    def test_sampler_dtype_holds_the_shifted_vote(self):
        # w + shift reaches 2m - 2 = 254 at m = 128, past a signed byte
        w, d = voting.sample_noisy_profiles(128, 3, 0.0, 2_000, np.random.default_rng(5))
        assert w.dtype == d.dtype == np.uint8
        assert d.max() < 128 and np.any(d >= 64)
        w, d = voting.sample_noisy_profiles(129, 3, 0.0, 10, np.random.default_rng(5))
        assert d.dtype == np.uint16


class TestHistogramRoute:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_the_tensor_contraction(self, m):
        lo = -1.0 / (m - 1)
        affordable = [n for n in range(1, 10) if voting._exact_affordable(m, n)]
        assert affordable[-1] == {2: 9, 3: 9, 4: 8, 5: 7}[m]
        for n in affordable:
            f = plurality(m, n)
            for rho in (lo + 1e-6, 0.6 * lo, 0.0, 0.4, 0.99):
                tensor = discrete_noise_stability(f, rho)
                assert abs(plurality_stability_histogram(m, n, rho) - tensor) <= 1e-13

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 150), (3, 11), (3, 51), (4, 21), (5, 12)])
    def test_rho_zero_is_one_over_m(self, m, n):
        assert abs(plurality_stability_histogram(m, n, 0.0) - 1.0 / m) <= 1e-14

    @pytest.mark.parametrize("m,n", [(2, 150), (3, 51), (4, 21)])
    def test_matches_the_sampler(self, m, n):
        est = plurality_stability_mc(m, n, 0.4, 200_000, seed=[22, m, n])
        assert abs(plurality_stability_histogram(m, n, 0.4) - est.value) <= 4 * est.std_error

    def test_table_rows_build_no_plurality_table(self, monkeypatch):
        def refuse(m, n):
            raise AssertionError(f"plurality({m}, {n}) tabulated")

        monkeypatch.setattr(voting, "plurality", refuse)
        rows = plurality_stability_table(3, 0.4, [11, 51], benchmark_budget=1_000)
        rows += plurality_stability_table(4, 0.4, [21], benchmark_budget=1_000)
        assert [r["method"] for r in rows if r["n"] != "limit"] == ["exact"] * 3

    @pytest.mark.parametrize("m,n,cap", [(3, 51, 70_000), (4, 21, 371_712)])
    def test_block_cap_bounds_memory(self, monkeypatch, m, n, cap):
        # (3, 51) has 243 sorted histograms on a 52 x 27 half grid, whose three
        # transformed columns take 67,392 bytes; (4, 21) has a 22 x 22 x 12
        # half grid, whose four columns take exactly 371,712.  Each cap blocks
        # the power table to 28 and 264 grid columns
        whole = plurality_stability_histogram(m, n, 0.4)
        monkeypatch.setattr(voting, "HISTOGRAM_BLOCK_BYTES", cap)
        tracemalloc.start()
        try:
            blocked = plurality_stability_histogram(m, n, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(blocked - whole) <= 1e-15
        assert peak <= 20 * cap

    @pytest.mark.parametrize("m,n", [(3, 25), (3, 51), (4, 9), (4, 21), (5, 8)])
    def test_matches_direct_convolution(self, m, n):
        for rho in (-1.0 / (m - 1) + 1e-6, 0.4, 0.99):
            expect = convolution_stability(m, n, rho)
            assert abs(plurality_stability_histogram(m, n, rho) - expect) <= 1e-13

    @pytest.mark.parametrize("m,n", [(3, 51), (4, 21)])
    def test_weights_are_the_rounded_fractions(self, m, n):
        reps = voting._sorted_histograms(m, n)
        expect = [orbit_weight(c, m, n) for c in reps.tolist()]
        assert voting._histogram_weights(reps, m, n).tolist() == expect

    def test_refusals(self):
        with pytest.raises(DomainError):
            plurality_stability_histogram(17, 10, 0.4)  # the grid exceeds one block
        with pytest.raises(DomainError):
            plurality_stability_histogram(3, 5, -0.5)  # rho below -1/(m-1)

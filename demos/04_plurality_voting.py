"""Discrete elections: influences and the stability of plurality.

Votes live in {0, ..., m-1}^n; noise rerandomizes each vote independently.
The stability of a voting rule is the chance the noisy election agrees with
the original.  Plurality is the conjectured most stable low-influence rule;
its finite-n stability is computable exactly, at large n from the vote
histogram alone, and approaches the continuous simplex-cone benchmark.
"""

from noiselab import influence, plurality
from noiselab.voting import (
    discrete_noise_stability,
    discrete_noise_stability_mc,
    noise_kernel,
    plurality_stability_table,
)

m, rho = 3, 0.4
print(f"{m} candidates, vote-retention correlation rho = {rho}\n")

print("Single-vote noise kernel (rows sum to one):")
print(noise_kernel(m, rho), "\n")

print("Voter influences shrink as the electorate grows:")
for n in (1, 3, 5, 7):
    f = plurality(m, n)
    inf = influence(f.coordinate(0), m, n, 0)
    print(f"  n={n}: Inf_0(PLUR coordinate) = {inf:.5f}")
print()

print("Exact stability by tensor contraction vs Monte Carlo:")
for n in (1, 3, 5):
    f = plurality(m, n)
    exact = discrete_noise_stability(f, rho)
    mc = discrete_noise_stability_mc(f, rho, 200_000, seed=n)
    print(f"  n={n}: exact {exact:.6f}   MC {mc.value:.6f} +- {mc.std_error:.6f}")
print()

print("The full table, with the continuous simplex-cone benchmark appended")
print("(ties depress the small-n values before the large-n recovery).  Every")
print("finite row is exact, by the cheaper of the tensor contraction and the")
print("vote histogram; n = 51 is far past what a tabulated rule allows.")
rows = plurality_stability_table(m, rho, [1, 3, 5, 7, 9, 12, 51], samples=400_000, seed=1)
limit = rows[-1]["value"]
for r in rows:
    err = f" +- {r['std_error']:.5f}" if r["std_error"] else ""
    gap = "" if r["n"] == "limit" else f"   (S - limit) sqrt(n) = {(r['value'] - limit) * r['n'] ** 0.5:+.4f}"
    print(f"  n={r['n']!s:>5}: {r['value']:.6f}{err}   [{r['method']}]{gap}")
print("Under an n^(-1/2) rate, (S - limit) sqrt(n) stays of order one as n grows.")

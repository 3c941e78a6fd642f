"""The first-moment functional and two-partition (bilinear) stability.

For any partition A_1, ..., A_m, the sum of squared Gaussian first moments
sum_i ||int_{A_i} x gamma(x) dx||^2 is at most 9/(8 pi), attained by three
120-degree sectors.  The bilinear form sum_i P(X in p_i, Y in q_i) compares
two partitions at once; reflected pairs minimize it, and the translation
second variation flips sign relative to the one-partition problem.
"""

import math

import numpy as np

from noiselab import bilinear_stability, propeller_functional
from noiselab.partitions import (
    cone_partition,
    halfspace_partition,
    simplex_cone_partition,
    three_sectors_120,
)
from noiselab.variation import bilinear_translation_form, bilinear_variation_suite

BOUND = 9.0 / (8.0 * math.pi)
print(f"moment-functional bound: 9/(8 pi) = {BOUND:.9f}\n")

print("Three 120-degree sectors attain it exactly:")
est = propeller_functional(three_sectors_120())
print(f"  sectors : {est.value:.9f}")
est = propeller_functional(halfspace_partition([1.0, 0.0], 0.0))
print(f"  opposing half-planes: {est.value:.9f}  (= 1/pi)")
rng = np.random.default_rng(3)
print("  random 4-cell cone partitions of R^3 stay below (closed forms: solid")
print("  angles and facet wedge angles):")
for k in range(4):
    gens = rng.standard_normal((4, 3))
    gens /= np.linalg.norm(gens, axis=1, keepdims=True)
    est = propeller_functional(cone_partition(gens))
    print(f"    partition {k}: {est.value:.12f} +- {est.std_error:.1e}  ({est.method})")
print()

rho = 0.5
p = halfspace_partition([1.0], 0.0)
q = p.negated()
print("Bilinear stability of half-line pairs at rho = 0.5:")
print(f"  aligned pair  : {bilinear_stability(p, p, rho).value:.6f}")
print(f"  reflected pair: {bilinear_stability(p, q, rho).value:.6f}"
      "   <- the minimizing configuration\n")

print("For the reflected pair the translation second variation is negative")
print("(the eigenvalue -1/rho + 1 < 0 flips the one-partition sign):")
for r in (0.3, 0.5, 0.7):
    form = bilinear_translation_form(p, q, r, [1.0], seed=5)
    expect = -(2 / math.pi) * math.sqrt((1 - r) / (1 + r))
    print(f"  rho={r}: {form.value:+.8f}   (analytic {expect:+.8f})")
print()

print("Full identity suite on the reflected planar cones:")
cones = simplex_cone_partition(3)
rep = bilinear_variation_suite(cones, cones.negated(), rho, n_points=8, seed=6)
print(f"  eigen-identity residual : {rep.eigen_max_residual:.2e}")
print(f"  gradient along +N'      : min inner product {rep.sign_min_normal_component:.4f}")
print(f"  translation form        : {rep.translation_form.value:+.6f}"
      f"  vs finite differences {rep.translation_fd.value:+.6f}")

"""Variational identities at stability-critical partitions.

The three maximal-inner-product cones over the regular-triangle directions
are the conjectured optimal 3-cell partition of the plane.  At such critical
partitions a family of exact identities holds on the interfaces; this script
evaluates each one numerically and shows a perturbed partition failing the
same checks.
"""

import numpy as np

from noiselab import (
    TranslationField,
    dilation_eigen_residual,
    first_variation_constancy,
    hyperstability_probe,
    second_variation_translation,
    stability_second_derivative,
    translation_eigen_residual,
)
from noiselab.partitions import (
    perturbed_simplex_cones,
    simplex_cone_partition,
    simplex_generators,
)
from noiselab.variation import DilationField

rho = 0.5
cones = simplex_cone_partition(3)
z = simplex_generators(3, 2)

print("1. First variation: T_rho(1_i - 1_j) is constant on every interface.")
rep = first_variation_constancy(cones, rho, 0, 1, 100, seed=1)
print(f"   cones:     mean {rep.mean:+.2e}, max deviation {rep.max_deviation:.2e}")
bad = perturbed_simplex_cones(3, angle_deg=5.0)
ctl = first_variation_constancy(bad, rho, 0, 1, 100, seed=2)
print(f"   perturbed: mean {ctl.mean:+.2e}, max deviation {ctl.max_deviation:.2e}"
      "   <- no longer constant\n")

print("2. Translations are almost-eigenfunctions of the surface operator,")
print("   with eigenvalue 1/rho:")
rep = translation_eigen_residual(cones, rho, z[0], 0, 1, 20, seed=3)
print(f"   max |S_ij(<v,N>) - <v,N> (1/rho)||grad||| = {rep.max_residual:.2e}"
      f"  (tolerance {rep.tolerance:.1e})\n")

print("3. The dilation direction picks up a d/drho remainder; on cones the")
print("   radial component vanishes and both sides collapse to zero:")
rep = dilation_eigen_residual(cones, rho, 0, 1, 20, seed=4)
print(f"   max residual = {rep.max_residual:.2e}  (tolerance {rep.tolerance:.1e})\n")

print("4. Second variation of translations: the closed-form boundary integral")
print("   against a finite-difference derivative of the stability itself:")
closed = second_variation_translation(cones, rho, z[0], seed=5)
fd = stability_second_derivative(cones, rho, TranslationField(z[0]))
print(f"   2 * closed form = {2 * closed.value:.8f}")
print(f"   d2/ds2 by FD    = {fd.value:.8f}\n")

print("5. The mixed (s, rho) derivative vanishes at the critical cones and")
print("   not at the perturbed partitions, even with one generator turned by 1 degree:")
probe = hyperstability_probe(cones, rho, TranslationField(z[0]), seed=6)
print(f"   cones:     mixed = {probe.mixed_s_rho.value:+.2e} +- {probe.mixed_s_rho.std_error:.1e}")
for label, angle, seed in (("1 degree: ", 1.0, 7), ("5 degrees:", 5.0, 8)):
    probe = hyperstability_probe(perturbed_simplex_cones(3, angle_deg=angle), rho,
                                 TranslationField(z[0]), seed=seed, volume_policy="skip")
    print(f"   {label} mixed = {probe.mixed_s_rho.value:+.2e} +- {probe.mixed_s_rho.std_error:.1e}")
probe = hyperstability_probe(cones, rho, DilationField(), seed=9)
print(f"   cones under the dilation-weighted flow: d2s = {probe.second_s.value:+.1e}"
      f" +- {probe.second_s.std_error:.1e}, mixed = {probe.mixed_s_rho.value:+.1e}"
      f" +- {probe.mixed_s_rho.std_error:.1e} (cones are dilation invariant)")

"""noiselab: Gaussian noise stability of Euclidean partitions and voting rules.

A numerical laboratory for computing noise stability of structured Euclidean
partitions (half-spaces, simplex cones, planar sectors, cylinders) and of
discrete voting functions, and for verifying the variational identities that
characterize stability-critical partitions: first-variation constancy on
interfaces, translation and dilation almost-eigenfunction equations of the
boundary surface operator, closed-form second variations against
finite-difference oracles, the mixed (deformation, correlation) derivative,
bilinear two-partition comparisons, and the first-moment (propeller)
functional with its 9/(8 pi) extremal value.
"""

__version__ = "0.1.0"

from .gauss import (
    Correlation,
    DomainError,
    Estimate,
    VectorEstimate,
    bivariate_normal_cdf,
    gaussian_density,
    kernel_g,
    ou_apply,
    ou_gradient,
    ou_rho_derivative,
    sample_correlated_pair,
)
from .partitions import (
    BoundaryPoint,
    Complement,
    ConeCell,
    CoverageError,
    EmptyInterfaceError,
    ExplicitCell,
    HalfSpace,
    OracleSet,
    PartitionSpec,
    ProductWithR,
    Sector2D,
    cone_partition,
    cylinder_extend,
    gaussian_measure,
    halfspace_partition,
    partition_from_json,
    partition_to_json,
    perturbed_simplex_cones,
    sector_partition,
    simplex_cone_partition,
    simplex_generators,
    three_sectors_120,
)
from .stability import (
    bilinear_stability,
    half_space_stability_closed_form,
    noise_stability,
    partition_stability,
    propeller_functional,
    stability_sweep,
)
from .variation import (
    DilationField,
    NormalScalarField,
    RadialField,
    TranslationField,
    bilinear_variation_suite,
    dilation_eigen_residual,
    first_variation_constancy,
    hyperstability_probe,
    s_operator,
    second_variation_general,
    second_variation_translation,
    sij_operator,
    stability_second_derivative,
    translation_eigen_residual,
)
from .voting import (
    DiscreteFunction,
    discrete_noise_stability,
    discrete_noise_stability_mc,
    influence,
    noise_kernel,
    plurality,
    plurality_stability_table,
)

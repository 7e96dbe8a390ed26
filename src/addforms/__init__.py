"""Exact desk-scale additive combinatorics on finite abelian groups:
subset densities and energies, linear-form system densities, polynomial
transforms, the reduction/witness pipeline, and inequality checkers."""

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    GroupSubset,
    additive_energy,
    additive_energy_raw,
    doubling_constant,
    element_add,
    element_scale,
    parse_group,
    parse_subset,
    representation_counts,
    signed_iterated_sumset,
    stabilizer,
    sumset,
)
from .bounds import (
    bollobas_h,
    check_energy_bound,
    check_energy_doubling,
    check_kneser,
    check_plunnecke_ruzsa,
    delta,
    delta_double_prime,
    delta_prime,
    energy_upper_bound,
    in_region_R_energy,
    in_region_R_graph,
    verify_delta_derivative_claims,
)
from .errors import AddformsError, CapExceeded, GroupMismatchError, ParseError
from .fourier import (
    Spectrum,
    character,
    convolve,
    energy_fourier,
    fourier_transform,
    parseval_check,
)
from .linform import (
    LinearForm,
    LinearSystem,
    QuantumSystem,
    estimate_density,
    eval_density,
    eval_density_fixed,
    eval_form,
    eval_quantum,
    parse_quantum,
    parse_system,
)
from .polynomial import (
    IntPolynomial,
    parse_poly,
    partial_derivative,
    poly_eval,
    sup_bound_unit_box,
    transform_p_from_q,
    transform_q_from_p,
    transform_qstar,
)
from .reduction import (
    DirectedCayleyGraph,
    ReductionBundle,
    WitnessSpec,
    build_E,
    build_L,
    build_M,
    build_T,
    build_V,
    build_psi,
    build_witness,
    compute_B_C,
    graph_densities,
    verify_homdensity_identity,
    verify_pinpoint,
    verify_witness,
)

__version__ = "0.1.0"

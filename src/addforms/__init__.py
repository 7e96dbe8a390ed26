"""Exact desk-scale additive combinatorics on finite abelian groups:
subset densities and energies, linear-form system densities, polynomial
transforms, the reduction/witness pipeline, and inequality checkers.

Importing the package loads none of its modules.  Each public name below,
and each submodule, is loaded on its first use (`addforms.sumset`,
`from addforms import linform`), so a command-line verb loads only the
modules it calls."""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "abelian": (
        "FiniteAbelianGroup",
        "GroupElement",
        "GroupSubset",
        "additive_energy",
        "additive_energy_raw",
        "doubling_constant",
        "element_add",
        "element_scale",
        "parse_group",
        "parse_subset",
        "representation_counts",
        "signed_iterated_sumset",
        "stabilizer",
        "sumset",
    ),
    "bounds": (
        "bollobas_h",
        "check_energy_bound",
        "check_energy_doubling",
        "check_kneser",
        "check_plunnecke_ruzsa",
        "delta",
        "delta_double_prime",
        "delta_prime",
        "energy_upper_bound",
        "in_region_R_energy",
        "in_region_R_graph",
        "verify_delta_derivative_claims",
    ),
    "errors": ("AddformsError", "CapExceeded", "GroupMismatchError", "ParseError"),
    "fourier": (
        "Spectrum",
        "character",
        "convolve",
        "energy_fourier",
        "fourier_transform",
        "parseval_check",
    ),
    "linform": (
        "LinearForm",
        "LinearSystem",
        "QuantumSystem",
        "estimate_density",
        "eval_density",
        "eval_density_fixed",
        "eval_form",
        "eval_quantum",
        "parse_quantum",
        "parse_system",
    ),
    "polynomial": (
        "IntPolynomial",
        "parse_poly",
        "partial_derivative",
        "poly_eval",
        "sup_bound_unit_box",
        "transform_p_from_q",
        "transform_q_from_p",
        "transform_qstar",
    ),
    "reduction": (
        "DirectedCayleyGraph",
        "ReductionBundle",
        "WitnessSpec",
        "build_E",
        "build_L",
        "build_M",
        "build_T",
        "build_V",
        "build_psi",
        "build_witness",
        "compute_B_C",
        "graph_densities",
        "verify_homdensity_identity",
        "verify_pinpoint",
        "verify_witness",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "report")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

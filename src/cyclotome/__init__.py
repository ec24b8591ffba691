"""cyclotome: exact combinatorics of ADE quantum groups at a 2h-th root of unity.

The library builds, for any oriented ADE Dynkin quiver, the cyclic index sets
living over the derived window of indecomposables, the l-dominant pair
calculus with its triangular decomposition and enumeration, every bilinear
form and exponent attached to the twisted Grothendieck-ring product, and a
relation verifier that certifies the Chevalley-generator relations as exact
identities.
"""

from .quiver import (
    DynkinQuiver,
    NotADEError,
    NotATreeError,
    NotSimplyLacedError,
    all_orientations,
    cartan_entry,
    euler_form,
    height_function,
    load_quiver,
    make_dynkin_quiver,
    orient,
    some_orientations,
    unit_vector,
)
from .derived import ARQuiver, DerivedObject, MixedSignClassError, knit
from .reflections import ReflectionWalkError, hom_dim_bruteforce
from .cyclic import CycIndex, IndexInvariantError, build_index
from .dominance import (
    Cones,
    DecompositionFailureError,
    EnumerationMismatchError,
    LiftInvariantError,
    NotDominantError,
    NotInWPlusError,
    UnsupportedWeightError,
    VWPair,
    cones,
    decompose,
    enumerate_l_dominant,
    enumerate_l_dominant_bruteforce,
    iota,
    iota_additive,
    is_l_dominant,
    kostant_multisets,
    kostant_partitions,
    positive_roots,
    residual,
    solve_w_tilde,
    solve_w_tilde_bruteforce,
    validate_pair,
    v_f,
    v_sigma_f,
    w_f,
)
from .forms import (
    GradedClass,
    NotIndecomposableError,
    d_form,
    deg_phi,
    euler_a,
    euler_sym,
    hl_extension,
    hl_form,
    leading_exponent,
    leading_exponent_tilde,
    n_phi,
    phi,
    script_n,
    twist_exponent,
    window_height,
)
from .laurent import FormalSum, HalfInt, HalfLaurent, quantum_int
from .serre import DegreeTooLargeError, serre_quotient_dims
from .relations import (
    RELATIONS,
    Check,
    SerreExpansionError,
    VerificationReport,
    chevalley_exponent_table,
    chevalley_generators,
    verify,
    verify_all,
    verify_ef,
    verify_ek,
    verify_kk,
    verify_same_form,
    verify_same_n,
    verify_serre,
)

__version__ = "0.1.0"

__all__ = [
    "ARQuiver", "Check", "Cones", "CycIndex", "DecompositionFailureError",
    "DegreeTooLargeError", "DerivedObject", "DynkinQuiver",
    "EnumerationMismatchError", "FormalSum", "GradedClass", "HalfInt",
    "HalfLaurent", "IndexInvariantError", "LiftInvariantError",
    "MixedSignClassError", "NotADEError", "NotATreeError",
    "NotDominantError", "NotInWPlusError", "NotIndecomposableError",
    "NotSimplyLacedError", "RELATIONS", "ReflectionWalkError",
    "SerreExpansionError", "UnsupportedWeightError", "VWPair",
    "VerificationReport", "all_orientations", "build_index", "cartan_entry",
    "chevalley_exponent_table", "chevalley_generators", "cones", "d_form",
    "decompose", "deg_phi", "enumerate_l_dominant",
    "enumerate_l_dominant_bruteforce", "euler_a", "euler_form", "euler_sym",
    "height_function", "hl_extension", "hl_form", "hom_dim_bruteforce",
    "iota", "iota_additive", "is_l_dominant", "knit", "kostant_multisets",
    "kostant_partitions", "leading_exponent", "leading_exponent_tilde",
    "load_quiver", "make_dynkin_quiver", "n_phi", "orient", "phi",
    "positive_roots", "quantum_int", "residual", "script_n",
    "serre_quotient_dims", "solve_w_tilde",
    "solve_w_tilde_bruteforce", "some_orientations", "twist_exponent",
    "unit_vector", "v_f", "v_sigma_f", "validate_pair", "verify", "verify_all",
    "verify_ef", "verify_ek", "verify_kk", "verify_same_form", "verify_same_n",
    "verify_serre", "w_f", "window_height",
]

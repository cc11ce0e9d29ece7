"""Exact computations in Verma modules over two extended Virasoro algebras.

The package computes singular and subsingular vectors, characters, and
quotients of highest-weight modules, and decides irreducibility of
tensor products with the intermediate series, all over exact rational
function fields.
"""

from .liealg import HV, W22, Generator, bracket
from .pbw import HighestWeight, ModuleContext, ModuleVector, PBWMonomial
from .scalar import PolyContext, Scalar
from .tensor import (
    HVCertificate,
    IntermediateSeries,
    TensorDecision,
    TensorSpace,
    cyclicity_check,
    decide_tensor,
    decide_tensor_hv,
    hv_decision_polynomials,
    subquotient_free_dims,
    subquotient_weight,
)
from .verma import (
    CharacterSeries,
    QuotientModule,
    StructureReport,
    char_j,
    char_j_prime,
    char_l,
    char_l_prime,
    char_verma,
    classify,
    conjecture_scan,
    conjecture_scan_point,
    necessary_h,
    quotient_l_prime,
    singular_space,
    subsingular,
    subsingular_r1_recursive,
    u_prime,
    weight_space_basis,
)

__version__ = "0.1.0"

__all__ = [
    "HV",
    "W22",
    "Generator",
    "bracket",
    "HighestWeight",
    "ModuleContext",
    "ModuleVector",
    "PBWMonomial",
    "PolyContext",
    "Scalar",
    "HVCertificate",
    "IntermediateSeries",
    "TensorDecision",
    "TensorSpace",
    "cyclicity_check",
    "decide_tensor",
    "decide_tensor_hv",
    "hv_decision_polynomials",
    "subquotient_free_dims",
    "subquotient_weight",
    "CharacterSeries",
    "QuotientModule",
    "StructureReport",
    "char_j",
    "char_j_prime",
    "char_l",
    "char_l_prime",
    "char_verma",
    "classify",
    "conjecture_scan",
    "conjecture_scan_point",
    "necessary_h",
    "quotient_l_prime",
    "singular_space",
    "subsingular",
    "subsingular_r1_recursive",
    "u_prime",
    "weight_space_basis",
    "__version__",
]

"""
Exact-arithmetic twisted graded Hecke algebras.

Construct algebras from root data, parameters and 2-cocycles; multiply in
PBW normal form; transport elements along the standard isomorphisms;
compute geometric parameters from root-graded Lie algebras; analyse finite
dimensional modules; and probe Koszul resolutions and Ext tables.  Every
number is an exact rational or cyclotomic scalar.
"""

from .scalars import Cyc, Fraction
from .polynomials import Polynomial, divide_by_linear
from .rootdata import CartanSpec, ConePosition, RootSystem, cartan_matrix
from .weylgroups import Cocycle, EpsilonCharacter, ExtendedWeylGroup, GroupElement, \
    ParameterFunction, centralizer_components
from .hecke import Grading, HeckeAlgebra, HeckeElement, TensorElement
from .groupalgebra import IrreducibleBlock, TwistedGroupAlgebra
from .modules import FiniteDimModule, RankOneRecord, WeightDatum, classify_rank_one, \
    induce_from_character, is_essentially_discrete_series, is_tempered, \
    restrict_to_group_algebra, weight_decomposition, zeta_rank_one
from .lie import CuspidalSupportDescriptor, RootGradedLieAlgebra, SupportWeylData, \
    build_sl, build_so, build_sp, compute_parameters, f4_ratio_admissible, \
    restricted_root_spaces, support_weyl_data
from .homology import ChainComplex, ExtTable, ext_self_induced, koszul_dual_dims, \
    koszul_resolution, projective_resolution_H0
from .presets import PRESETS, algebra_from_config, build_preset, load_algebra_file
from .expressions import ExpressionError, parse_element
from .verification import SuiteResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "Cyc", "Fraction", "Polynomial", "divide_by_linear",
    "CartanSpec", "ConePosition", "RootSystem", "cartan_matrix",
    "Cocycle", "EpsilonCharacter", "ExtendedWeylGroup", "GroupElement",
    "ParameterFunction", "centralizer_components",
    "Grading", "HeckeAlgebra", "HeckeElement", "TensorElement",
    "IrreducibleBlock", "TwistedGroupAlgebra",
    "FiniteDimModule", "RankOneRecord", "WeightDatum", "classify_rank_one",
    "induce_from_character", "is_essentially_discrete_series", "is_tempered",
    "restrict_to_group_algebra", "weight_decomposition", "zeta_rank_one",
    "CuspidalSupportDescriptor", "RootGradedLieAlgebra", "SupportWeylData",
    "build_sl", "build_so", "build_sp", "compute_parameters",
    "f4_ratio_admissible", "restricted_root_spaces", "support_weyl_data",
    "ChainComplex", "ExtTable", "ext_self_induced", "koszul_dual_dims",
    "koszul_resolution", "projective_resolution_H0",
    "PRESETS", "algebra_from_config", "build_preset", "load_algebra_file",
    "ExpressionError", "parse_element",
    "SuiteResult", "run_verification",
]

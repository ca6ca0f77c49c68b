"""Exact ML degrees and Euler stratification for scaled Segre products P1 x P1 x Pn."""

from __future__ import annotations

from .exact import BinaryForm, RatMatrix, binary_gcd, distinct_root_count, rank
from .factors import (
    FactorId,
    StructureReport,
    VanishingPattern,
    all_factors,
    detect_structures,
    eval_hyp222,
    eval_minor,
    forces_hyperdeterminant,
    hyp223_vanishes,
    vanishing_pattern,
)
from .euler import (
    MLDegreeReport,
    PairType,
    chi_VI,
    chi_VI_XJ,
    chi_VI_closed_form,
    classify_type,
    degree_bound,
    mldeg,
    mldeg_matrix,
    mldeg_point_formula,
    mldeg_value,
)
from .oracle import CountResult, DataVector, count_critical_points, count_critical_points_matrix, oracle_mldeg
from .realize import alt_hooks, generic_solution, realize
from .strata import Stratum, classify_pattern_n1, enumerate_strata_n1, sample_sign_patterns, witness_for_stratum
from .tensor import ScalingTensor

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "CountResult",
    "DataVector",
    "FactorId",
    "MLDegreeReport",
    "PairType",
    "RatMatrix",
    "ScalingTensor",
    "Stratum",
    "StructureReport",
    "VanishingPattern",
    "all_factors",
    "alt_hooks",
    "binary_gcd",
    "chi_VI",
    "chi_VI_XJ",
    "chi_VI_closed_form",
    "classify_pattern_n1",
    "classify_type",
    "count_critical_points",
    "count_critical_points_matrix",
    "degree_bound",
    "detect_structures",
    "distinct_root_count",
    "enumerate_strata_n1",
    "eval_hyp222",
    "eval_minor",
    "forces_hyperdeterminant",
    "generic_solution",
    "hyp223_vanishes",
    "mldeg",
    "mldeg_matrix",
    "mldeg_point_formula",
    "mldeg_value",
    "oracle_mldeg",
    "rank",
    "realize",
    "sample_sign_patterns",
    "vanishing_pattern",
    "witness_for_stratum",
]

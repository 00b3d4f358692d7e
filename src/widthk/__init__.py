"""
Exact arithmetic for width-k permutation statistics.

Statistics compare entries at a fixed index gap k (or over a set of gaps);
this package computes them, builds their distribution polynomials by
enumeration, closed form, and recursion, and cross-checks every route
against the others.
"""
from .errors import EnumerationCapError, InvalidInputError
from .genfun import (
    VerificationReport,
    brute_distribution,
    closed_des_k,
    closed_inv_132_312,
    closed_inv_k,
    conjectured_g,
    g_polynomial,
    g_table,
    product_132_231,
    product_132_312,
    rec_123_132,
    rec_123_312,
    rec_132_213,
    rec_312,
    run_suite,
    t_polynomial,
)
from .perm import (
    avoidance_class,
    avoids,
    complement,
    contains,
    enumerate_sn,
    enumeration_cap,
    parse_patterns,
    parse_perm,
    reverse,
    standardize,
)
from .poly import LaurentPoly, MultiPoly, catalan, eulerian_poly, q_factorial
from .stats import des, des_set, exc, inv, inv_by_lcm, inv_set, maj

__version__ = "0.1.0"

__all__ = [
    "EnumerationCapError",
    "InvalidInputError",
    "LaurentPoly",
    "MultiPoly",
    "VerificationReport",
    "avoidance_class",
    "avoids",
    "brute_distribution",
    "catalan",
    "closed_des_k",
    "closed_inv_132_312",
    "closed_inv_k",
    "complement",
    "conjectured_g",
    "contains",
    "des",
    "des_set",
    "enumerate_sn",
    "enumeration_cap",
    "eulerian_poly",
    "exc",
    "g_polynomial",
    "g_table",
    "inv",
    "inv_by_lcm",
    "inv_set",
    "maj",
    "parse_patterns",
    "parse_perm",
    "product_132_231",
    "product_132_312",
    "q_factorial",
    "rec_123_132",
    "rec_123_312",
    "rec_132_213",
    "rec_312",
    "reverse",
    "run_suite",
    "standardize",
    "t_polynomial",
]

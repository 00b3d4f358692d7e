"""
Exact arithmetic for width-k permutation statistics.

Statistics compare entries at a fixed index gap k (or over a set of gaps);
this package computes them, builds their distribution polynomials by
enumeration, closed form, and recursion, and cross-checks every route
against the others.
"""
from .errors import EnumerationCapError, InvalidInputError
from .genfun import (
    brute_distribution,
    closed_des_k,
    closed_g,
    closed_inv_132_312,
    closed_inv_k,
    g_table,
    product_132_231,
    product_132_312,
    rec_123_132,
    rec_123_312,
    rec_132_213,
    rec_312,
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


def __getattr__(name: str):
    # The verification engine loads on first use, so that importing the
    # package, or running any command but verify, never compiles it.
    if name in ("VerificationReport", "run_suite"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "closed_g",
    "closed_inv_132_312",
    "closed_inv_k",
    "complement",
    "contains",
    "des",
    "des_set",
    "enumerate_sn",
    "enumeration_cap",
    "eulerian_poly",
    "exc",
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

"""Exact permanents of reciprocal-difference matrices over polynomial root sets.

Given polynomials P (roots X, the rows) and Q (roots Y, the columns), the
package evaluates per(1/(x_i - y_j)) through four independent routes:

* a polynomial-time exact determinant identity (`scott_permanent`),
* banded-determinant specializations for the row families x^n - 1 and
  1 + x + ... + x^(n-1) (`fes_engine`),
* a catalog of closed forms for named (P, Q) families (`closed_catalog`),
* a floating-point oracle and an involution-sum expansion, both dynamic
  programs over row subsets (`numeric_oracle`),

and cross-validates them (`verify`, on the route table `eval` uses too).  A gallery
of structured integer determinant identities and involution-sum identities rounds it out.

`closed_catalog`, `det_gallery` and `numeric_oracle` load on first use, so
`import scottperm` and an exact eval load none of them: a route or command that
needs one imports it, and the module-level `__getattr__` below resolves each of
their public names here on first access (PEP 562).
"""
import importlib

from .errors import (
    BadParams,
    BothZero,
    DidNotConverge,
    NonSquare,
    OutOfDomain,
    ParseError,
    RepeatedXRoot,
    ResourceLimit,
    ScottPermError,
    SharedRoot,
    SingularEntry,
    ZeroConstantTerm,
    ZeroDegree,
    ZeroLeadingCoefficient,
    ZeroPolynomial,
)
from .exact_core import (
    Polynomial,
    Rational,
    RationalMatrix,
    exact_det,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    resultant,
    series_inverse,
    sylvester_matrix,
)
from .fes_engine import (
    RowFamily,
    classify_row_polynomial,
    fes,
    fes_matrix,
    fes_tilde,
    fes_tilde_matrix,
    per_via_fes,
    special_resultant,
)
from .results import EvalResult
from .scott_engine import (
    RouteOutcome,
    VerifyReport,
    build_E,
    build_H,
    relative_gap,
    scott_permanent,
    verify,
)

__all__ = [
    "BadParams",
    "BothZero",
    "CatalogEntry",
    "DidNotConverge",
    "EvalResult",
    "GALLERY_IDS",
    "GalleryCase",
    "InvolutionIdentityReport",
    "NonSquare",
    "OutOfDomain",
    "ParseError",
    "Polynomial",
    "Rational",
    "RationalMatrix",
    "RepeatedXRoot",
    "ResourceLimit",
    "RouteOutcome",
    "RowFamily",
    "ScottPermError",
    "SharedRoot",
    "SingularEntry",
    "VerifyReport",
    "ZeroConstantTerm",
    "ZeroDegree",
    "ZeroLeadingCoefficient",
    "ZeroPolynomial",
    "borchardt_matrix_det",
    "brute_permanent",
    "build_E",
    "build_H",
    "catalog_entries",
    "catalog_eval",
    "catalog_family",
    "catalog_ids",
    "cauchy_matrix_det",
    "classify_row_polynomial",
    "exact_det",
    "fes",
    "fes_matrix",
    "fes_tilde",
    "fes_tilde_matrix",
    "find_matching",
    "find_roots",
    "gallery_closed_form",
    "gallery_matrix",
    "involution_identity_check",
    "involution_sum",
    "involution_weighted_sum",
    "iter_matching",
    "per_via_fes",
    "poch",
    "poly_divmod",
    "poly_eval",
    "poly_gcd",
    "poly_mul",
    "random_coprime_pair",
    "relative_gap",
    "resultant",
    "ryser_permanent",
    "scott_permanent",
    "series_inverse",
    "special_resultant",
    "sylvester_matrix",
    "unit_roots",
    "verify",
]

__version__ = "1.0.0"

# The public names of the modules that load on first use, each with its module.
_ON_FIRST_USE = {
    **dict.fromkeys(
        ("CatalogEntry", "InvolutionIdentityReport", "catalog_entries", "catalog_eval",
         "catalog_family", "catalog_ids", "find_matching", "involution_identity_check",
         "iter_matching", "poch"),
        "closed_catalog",
    ),
    **dict.fromkeys(("GALLERY_IDS", "GalleryCase", "gallery_closed_form", "gallery_matrix"), "det_gallery"),
    **dict.fromkeys(
        ("borchardt_matrix_det", "brute_permanent", "cauchy_matrix_det", "find_roots",
         "involution_sum", "involution_weighted_sum", "random_coprime_pair", "ryser_permanent",
         "unit_roots"),
        "numeric_oracle",
    ),
}


def __getattr__(name: str):
    """Import the module of a name in _ON_FIRST_USE and keep the name here (PEP 562)."""
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ON_FIRST_USE))

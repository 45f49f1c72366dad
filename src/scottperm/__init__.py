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

Every public name loads its module on first access: `_HOMES` maps each name to
the module that defines it, and the module-level `__getattr__` below imports
that module and keeps the name here (PEP 562).  So `import scottperm` loads none
of the package's own modules; `from scottperm import X`, `from scottperm import
exact_core` and `import scottperm.cli` load what they name.
"""
import importlib

__version__ = "1.0.0"

# Each public name, with the module that defines it.
_HOMES = {
    name: module
    for module, names in (
        ("errors", "BadParams BothZero DidNotConverge NonSquare OutOfDomain ParseError"
         " RepeatedXRoot ResourceLimit ScottPermError SharedRoot SingularEntry"
         " ZeroConstantTerm ZeroDegree ZeroLeadingCoefficient ZeroPolynomial"),
        ("exact_core", "Polynomial Rational RationalMatrix exact_det poly_divmod poly_eval"
         " poly_gcd poly_mul resultant series_inverse sylvester_matrix"),
        ("fes_engine", "RowFamily classify_row_polynomial fes fes_matrix fes_tilde"
         " fes_tilde_matrix per_via_fes special_resultant"),
        ("results", "EvalResult"),
        ("scott_engine", "RouteOutcome VerifyReport build_E build_H relative_gap"
         " scott_permanent verify"),
        ("closed_catalog", "CatalogEntry InvolutionIdentityReport catalog_entries catalog_eval"
         " catalog_family catalog_ids find_matching involution_identity_check iter_matching"
         " poch"),
        ("det_gallery", "GALLERY_IDS GalleryCase gallery_closed_form gallery_matrix"),
        ("numeric_oracle", "borchardt_matrix_det brute_permanent cauchy_matrix_det find_roots"
         " involution_sum involution_weighted_sum random_coprime_pair ryser_permanent"
         " unit_roots"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the module of a name in _HOMES and keep the name here (PEP 562)."""
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))

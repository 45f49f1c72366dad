"""A small catalog of structured matrices with product-form determinants.

Each case pairs an explicit matrix builder with the closed form its
determinant factors into, so the two can be checked against each other over
parameter grids.  All four families are circulant-flavored: entries depend
on i - j modulo n.

Case ids and their parameters, each declared as (name, kind, minimum)
triples and validated by `params._validate`, the one validator that the
closed-form catalog uses too.  The gallery imports that small module, not
the catalog:

* ``prop6``: n, r, x (n values), y (n values).  Diagonal x_i plus a cyclic
  diagonal of y values shifted by r; determinant splits over gcd(r, n)
  orbits.
* ``thm7``: n, a, b, c, d, e.  A quadratic-in-(i-j) circulant with an
  affine column correction.
* ``thm8``: n, m, a.  An (n-1) x (n-1) three-branch pattern.
* ``cor9``: n, a.  A two-branch specialization with determinant
  n^(n-2) * a (a+1) ... (a+n-2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping

from .params import Params, _validate
from .errors import BadParams
from .exact_core import RationalMatrix


@dataclass
class GalleryCase:
    """One gallery instance: a case id plus its parameter values."""

    id: str
    params: Mapping[str, Any]


# prop6: diagonal of x values plus an r-shifted cyclic diagonal of y values.


def _prop6_parts(p: Params) -> tuple[int, int, tuple[Fraction, ...], tuple[Fraction, ...]]:
    n, r, x, y = p["n"], p["r"], p["x"], p["y"]
    if r > n:
        raise BadParams("prop6: need 1 <= r <= n")
    if len(x) != n or len(y) != n:
        raise BadParams(f"prop6: x and y must have {n} entries")
    return n, r, x, y


def _prop6_matrix(p: Params) -> RationalMatrix:
    n, r, x, y = _prop6_parts(p)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        entries[i - 1][i - 1] += x[i - 1]
    for j in range(1, n + 1):
        row = (j + r - 1) % n + 1
        entries[row - 1][j - 1] += y[j - 1]
    return RationalMatrix.from_rows(entries)


def _prop6_closed(p: Params) -> Fraction:
    n, r, x, y = _prop6_parts(p)
    d = math.gcd(r, n)
    q = n // d
    total = Fraction(1)
    for i in range(1, d + 1):
        x_orbit = Fraction(1)
        y_orbit = Fraction(1)
        for j in range(1, q + 1):
            x_orbit *= x[i + (j - 1) * d - 1]
            y_orbit *= y[i + (j - 1) * d - 1]
        total *= x_orbit - (-1) ** q * y_orbit
    return total


# thm7: entry (v+c)(va+b) + d - (j-1)(va+e) where v = 1 + ((i-j) mod n).


def _thm7_matrix(p: Params) -> RationalMatrix:
    n, a, b, c, d, e = (p[k] for k in "nabcde")
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            v = 1 + (i - j) % n
            row.append((v + c) * (v * a + b) + d - (j - 1) * (v * a + e))
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def _thm7_u(n: int, a: Fraction, b: Fraction, c: Fraction, d: Fraction, e: Fraction) -> Fraction:
    return (
        Fraction((n + 1) * (n + 2), 3) * a * a
        + Fraction((n + 1) * (2 * n + 7), 6) * a * b
        + Fraction(n + 1, 2) * b * b
        + Fraction((n + 1) * (2 * n + 7), 6) * a * a * c
        + Fraction(3 * n + 5, 2) * a * b * c
        + b * b * c
        + Fraction(n + 1, 2) * a * a * c * c
        + a * b * c * c
        + Fraction(n + 3, 2) * a * d
        + b * d
        + a * c * d
        - Fraction((n - 1) * (2 * n + 5), 6) * a * e
        - Fraction(n - 1, 2) * b * e
        - Fraction(n - 1, 2) * a * c * e
    )


def _thm7_closed(p: Params) -> Fraction:
    n, a, b, c, d, e = (p[k] for k in "nabcde")
    u = _thm7_u(n, a, b, c, d, e)
    lead = Fraction(-n) ** (n - 1)
    if n == 1:
        divisor = 2 * a + b + c * a
        if divisor == 0:
            raise BadParams("degenerate at n=1: 2a + b + ca = 0")
        return u / divisor
    prod = Fraction(1)
    for i in range(3, n + 1):
        prod *= i * a + b + c * a
    return lead * u * prod


# thm8: three residue branches on (i - j) mod n, size (n-1) x (n-1).


def _thm8_matrix(p: Params) -> RationalMatrix:
    n, m, a = p["n"], p["m"], p["a"]
    rows = []
    for i in range(1, n):
        row = []
        for j in range(1, n):
            if (i - j + 2) % n == 0:
                row.append((n - m - 1) + j * (1 + a - n))
            elif (i - j + 3) % n == 0:
                row.append((n - 1) * (m - 1) + j * (1 - a))
            else:
                s = (i - j + 1) % n
                row.append((n - m - 3 - 2 * s) + j)
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def _thm8_closed(p: Params) -> Fraction:
    n, m, a = p["n"], p["m"], p["a"]
    prod = Fraction(1)
    for i in range(2, n + 1):
        prod *= n * m - i * a
    return Fraction(-1) ** (n - 1) * prod / n


# cor9: two branches, determinant n^(n-2) * rising product of a.


def _cor9_matrix(p: Params) -> RationalMatrix:
    n, a = p["n"], p["a"]
    rows = []
    for i in range(1, n):
        row = []
        for j in range(1, n):
            if (i - j + 2) % n == 0:
                row.append((n - 1) * (n + a - j - 1))
            else:
                s = (i - j + 1) % n
                row.append(-2 * s - a + j - 1)
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def _cor9_closed(p: Params) -> Fraction:
    n, a = p["n"], p["a"]
    prod = Fraction(1)
    for i in range(0, n - 1):
        prod *= i + a
    return Fraction(n) ** (n - 2) * prod


_Kinds = tuple[tuple[str, str, int | None], ...]
_Case = tuple[_Kinds, Callable[[Params], RationalMatrix], Callable[[Params], Fraction]]

# Case id -> (parameter kinds, matrix builder, closed form), in GALLERY_IDS order.
_CASES: dict[str, _Case] = {
    "prop6": ((("n", "count", 1), ("r", "count", 1), ("x", "vector", 1), ("y", "vector", 1)),
              _prop6_matrix, _prop6_closed),
    "thm7": ((("n", "count", 1), *((k, "rational", None) for k in "abcde")),
             _thm7_matrix, _thm7_closed),
    "thm8": ((("n", "count", 2), ("m", "rational", None), ("a", "rational", None)),
             _thm8_matrix, _thm8_closed),
    "cor9": ((("n", "count", 2), ("a", "rational", None)), _cor9_matrix, _cor9_closed),
}
GALLERY_IDS = tuple(_CASES)


def _validated(case: GalleryCase) -> tuple[_Case, Params]:
    try:
        spec = _CASES[case.id]
    except KeyError:
        raise BadParams(f"unknown gallery case {case.id!r}") from None
    return spec, _validate(case.id, spec[0], case.params)


def gallery_matrix(case: GalleryCase) -> RationalMatrix:
    """Build the explicit matrix for a gallery case."""
    (_, matrix, _), params = _validated(case)
    return matrix(params)


def gallery_closed_form(case: GalleryCase) -> Fraction:
    """Evaluate the factored determinant formula for a gallery case."""
    (_, _, closed), params = _validated(case)
    return closed(params)

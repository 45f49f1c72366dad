"""Banded-determinant evaluation for the two cyclotomic row families.

When the row polynomial is x^n - 1 or 1 + x + ... + x^(n-1), the permanent
numerator collapses to the determinant of a small sum of "broken diagonals":
cyclic diagonals of the column polynomial's weighted coefficients.  Q enters
as one integer list, every diagonal is written straight into one list of
integer rows, and `exact_core._bareiss` takes the determinant.
`banded_permanent` divides it by the integer resultant of the monic row
polynomial with that same list: scaling Q by a constant scales the
determinant and the resultant by the same factor, so the routes pass Q's key.
`fes` and `fes_tilde` build their rows from Q's key too, and multiply the
determinant back by a power of Q's scale (`Polynomial.scale`).
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction

from .errors import BadParams, ZeroDegree, ZeroLeadingCoefficient
from .exact_core import (
    Coefficient,
    Polynomial,
    RationalMatrix,
    _bareiss,
    _coprime_resultant,
    _within_budget,
)
from .results import EvalResult


class RowFamily(str, enum.Enum):
    POWER_MINUS_ONE = "power_minus_one"  # x^n - 1
    ALL_ONES = "all_ones"  # 1 + x + ... + x^(n-1)

    @property
    def method(self) -> str:
        """Route name of the banded shortcut for this family."""
        return "fes" if self is RowFamily.POWER_MINUS_ONE else "fes_tilde"


def power_minus_one(n: int) -> Polynomial:
    """x^n - 1."""
    if n < 1:
        raise ZeroDegree("n must be at least 1")
    return Polynomial.from_pairs([(0, -1), (n, 1)])


def all_ones_poly(n: int) -> Polynomial:
    """1 + x + ... + x^(n-1)."""
    if n < 2:
        raise ZeroDegree("n must be at least 2 so the polynomial has a root")
    return Polynomial([1] * n)


def classify_row_polynomial(P: Polynomial) -> tuple[RowFamily, int] | None:
    """Detect whether P, up to a constant factor, belongs to a row family.

    Returns (family, n) where n is the family parameter: x^n - 1 has degree
    n, while the all-ones polynomial of parameter n has degree n - 1.  It is
    read on P's key.
    """
    if P.degree is None or P.degree < 1:
        return None
    *low, lead = P.key
    if low[0] == -lead and not any(low[1:]):
        return RowFamily.POWER_MINUS_ONE, P.degree
    if all(c == lead for c in low):
        return RowFamily.ALL_ONES, P.degree + 1
    return None


def _banded_rows(family: RowFamily, n: int, q: list[int]) -> list[list[int]]:
    """Integer rows of the broken-diagonal matrix of Q, given as the integer list q.

    Coefficient q_r puts (r - c) * q_r in column c (0-based) at row
    (r + c - 1) mod n.  The all-ones family's (n-1) x (n-1) matrix is those
    x^n - 1 rows, each minus the next, on the first n - 1 rows and columns,
    because 1 + x + ... + x^(n-1) = (x^n - 1)/(x - 1).  Each diagonal is O(n)
    writes, so the whole build is O(deg Q * n + n^2).
    """
    if not q:
        raise ZeroDegree("the column polynomial must be nonzero")
    least = 1 if family is RowFamily.POWER_MINUS_ONE else 2
    if n < least:
        raise ZeroDegree(f"n must be at least {least}")
    rows = [[0] * n for _ in range(n)]
    for r, q_r in enumerate(q):
        if q_r:
            for c in range(n):
                rows[(r + c - 1) % n][c] += (r - c) * q_r
    if family is RowFamily.POWER_MINUS_ONE:
        return rows
    return [[a - b for a, b in zip(rows[k][:-1], rows[k + 1])] for k in range(n - 1)]


def _key_rows(family: RowFamily, n: int, Q: Polynomial) -> tuple[list[list[int]], Fraction]:
    """`_banded_rows` of Q's key, built first so that a zero Q is ZeroDegree, and Q's
    scale s: the matrix is s * rows."""
    return _banded_rows(family, n, Q.key), Q.scale


def _as_matrix(rows: list[list[int]], factor: Fraction) -> RationalMatrix:
    return RationalMatrix.from_rows([[v * factor for v in row] for row in rows])


def fes_matrix(n: int, Q: Polynomial) -> RationalMatrix:
    """The n x n sum of broken diagonals whose determinant is fes(Q, n).

    Each coefficient a_r of Q contributes the broken diagonal starting at
    row (r mod n, as a value in 1..n) with column values
    r*a_r, (r-1)*a_r, ..., (r-n+1)*a_r.
    """
    return _as_matrix(*_key_rows(RowFamily.POWER_MINUS_ONE, n, Q))


def fes(Q: Polynomial, n: int) -> Fraction:
    """Permanent numerator for rows x^n - 1: det of the broken-diagonal sum."""
    rows, factor = _key_rows(RowFamily.POWER_MINUS_ONE, n, Q)
    return _bareiss(rows) * factor**n


def fes_tilde_matrix(n: int, Q: Polynomial) -> RationalMatrix:
    """The (n-1) x (n-1) wrapped-diagonal sum whose determinant is fes_tilde(Q, n).

    Each coefficient a_r contributes its weighted diagonal twice: added at
    offset (r mod n) and subtracted at offset (r-1 mod n), both as values
    in 1..n.  An entry that would fall on row n is dropped.
    """
    return _as_matrix(*_key_rows(RowFamily.ALL_ONES, n, Q))


def fes_tilde(Q: Polynomial, n: int) -> Fraction:
    """Permanent numerator for rows 1 + x + ... + x^(n-1)."""
    rows, factor = _key_rows(RowFamily.ALL_ONES, n, Q)
    return _bareiss(rows) * factor ** (n - 1)


def special_resultant(
    a: Coefficient, b: Coefficient, c: Coefficient, d: Coefficient, m: int, n: int
) -> Fraction:
    """Res(a*x^m - b, c*x^n - d) in closed form.

    Equals (-1)^m * (a^(n/g) d^(m/g) - b^(n/g) c^(m/g))^g with g = gcd(m, n).
    Both leading coefficients must be nonzero.
    """
    if a == 0 or c == 0:
        raise ZeroLeadingCoefficient("both leading coefficients must be nonzero")
    if m < 1 or n < 1:
        raise ZeroDegree("both degrees must be at least 1")
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    g = math.gcd(m, n)
    core = a ** (n // g) * d ** (m // g) - b ** (n // g) * c ** (m // g)
    sign = -1 if m % 2 else 1
    return sign * core**g


def per_via_fes(kind: RowFamily | str, n: int, Q: Polynomial) -> EvalResult:
    """Permanent of (1/(x_i - y_j)) with rows from one of the two families.

    kind selects the row polynomial: x^n - 1 or 1 + x + ... + x^(n-1), as a
    RowFamily or its value; any other kind is BadParams, and a row or column
    degree above the degree budget is `Pair`'s ResourceLimit, before any work.
    The value is the banded determinant of Q's key divided by the resultant
    of the row polynomial with that key (the scaling cancels).  That
    resultant is computed first, by the shared-root check that `Pair` makes
    too, so a shared root is `Pair`'s SharedRoot, with its message.  The fes
    route builds its value with the same `banded_permanent`.
    """
    try:
        family = RowFamily(kind)
    except ValueError:
        accepted = ", ".join(repr(f.value) for f in RowFamily)
        raise BadParams(f"unknown row family {kind!r}; use a RowFamily or one of {accepted}") from None
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    minus_one = family is RowFamily.POWER_MINUS_ONE
    _within_budget("row", n if minus_one else n - 1)
    _within_budget("column", Q.degree)
    P = power_minus_one(n) if minus_one else all_ones_poly(n)
    return banded_permanent(family, n, Q.key, _coprime_resultant(P.key, Q.key))


def banded_permanent(family: RowFamily, n: int, q: list[int], denominator: int) -> EvalResult:
    """The permanent for a row family: the banded determinant of the integer
    list q over denominator, which is Res(monic row polynomial, q) and nonzero."""
    rows, m = _banded_rows(family, n, q), len(q) - 1
    notes = ("n > m: permanent vanishes",) if len(rows) > m else ()
    return EvalResult(Fraction(_bareiss(rows), denominator), family.method, len(rows), m, notes)

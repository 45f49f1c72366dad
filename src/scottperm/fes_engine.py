"""Banded-determinant evaluation for the two cyclotomic row families.

When the row polynomial is x^n - 1 or 1 + x + ... + x^(n-1), the permanent
numerator collapses to the determinant of a small sum of "broken diagonals":
cyclic diagonals of the column polynomial's weighted coefficients.  Q's
denominators are cleared once, every diagonal is written straight into one
list of integer rows, and `exact_core._bareiss` takes the determinant; the
scale comes back out as a power of Q's denominator lcm.  The column
polynomial enters with its raw coefficients, unnormalized; scaling Q by a
constant scales the determinant and the resultant by the same factor.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction

from .errors import SharedRoot, ZeroDegree, ZeroLeadingCoefficient
from .exact_core import (
    Coefficient,
    Polynomial,
    RationalMatrix,
    _bareiss,
    _clear_denominators,
    resultant,
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
    n, while the all-ones polynomial of parameter n has degree n - 1.
    """
    if P.degree is None or P.degree < 1:
        return None
    *low, lead = P.coeffs
    if low[0] == -lead and not any(low[1:]):
        return RowFamily.POWER_MINUS_ONE, P.degree
    if all(c == lead for c in low):
        return RowFamily.ALL_ONES, P.degree + 1
    return None


def _banded_rows(family: RowFamily, n: int, Q: Polynomial) -> tuple[list[list[int]], int]:
    """Integer rows of the broken-diagonal matrix of Q, and Q's denominator lcm L.

    The matrix is rows / L.  Coefficient q_r of Q puts (r - c) * q_r in
    column c (0-based) at row (r + c - 1) mod n.  For the all-ones family
    the matrix is (n-1) x (n-1): q_r's diagonal is added at that row and
    subtracted one row up, at (r + c - 2) mod n, and entries that land in
    row n - 1 are dropped.  Each diagonal is O(n) writes, so the whole
    build is O(deg Q * n).
    """
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    q, scale = _clear_denominators(Q.coeffs)
    if family is RowFamily.POWER_MINUS_ONE:
        if n < 1:
            raise ZeroDegree("n must be at least 1")
        rows = [[0] * n for _ in range(n)]
        for r, q_r in enumerate(q):
            if q_r:
                for c in range(n):
                    rows[(r + c - 1) % n][c] += (r - c) * q_r
        return rows, scale
    if n < 2:
        raise ZeroDegree("n must be at least 2")
    size = n - 1
    rows = [[0] * size for _ in range(n)]  # row n - 1 collects the dropped entries
    for r, q_r in enumerate(q):
        if q_r:
            for c in range(size):
                v = (r - c) * q_r
                rows[(r + c - 1) % n][c] += v
                rows[(r + c - 2) % n][c] -= v
    return rows[:size], scale


def _as_matrix(rows: list[list[int]], scale: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[Fraction(v, scale) for v in row] for row in rows])


def fes_matrix(n: int, Q: Polynomial) -> RationalMatrix:
    """The n x n sum of broken diagonals whose determinant is fes(Q, n).

    Each coefficient a_r of Q contributes the broken diagonal starting at
    row (r mod n, as a value in 1..n) with column values
    r*a_r, (r-1)*a_r, ..., (r-n+1)*a_r.
    """
    return _as_matrix(*_banded_rows(RowFamily.POWER_MINUS_ONE, n, Q))


def fes(Q: Polynomial, n: int) -> Fraction:
    """Permanent numerator for rows x^n - 1: det of the broken-diagonal sum."""
    rows, scale = _banded_rows(RowFamily.POWER_MINUS_ONE, n, Q)
    return Fraction(_bareiss(rows), scale**n)


def fes_tilde_matrix(n: int, Q: Polynomial) -> RationalMatrix:
    """The (n-1) x (n-1) wrapped-diagonal sum whose determinant is fes_tilde(Q, n).

    Each coefficient a_r contributes its weighted diagonal twice: added at
    offset (r mod n) and subtracted at offset (r-1 mod n), both as values
    in 1..n.  An entry that would fall on row n is dropped.
    """
    return _as_matrix(*_banded_rows(RowFamily.ALL_ONES, n, Q))


def fes_tilde(Q: Polynomial, n: int) -> Fraction:
    """Permanent numerator for rows 1 + x + ... + x^(n-1)."""
    rows, scale = _banded_rows(RowFamily.ALL_ONES, n, Q)
    return Fraction(_bareiss(rows), scale ** (n - 1))


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


def _binomial_parts(Q: Polynomial) -> tuple[Fraction, Fraction] | None:
    """If Q = C*y^M - D with M = deg Q >= 1, return (C, D)."""
    if Q.degree is None or Q.degree < 1:
        return None
    if any(Q.coeff(k) != 0 for k in range(1, Q.degree)):
        return None
    return Q.leading, -Q.coeff(0)


def per_via_fes(kind: RowFamily | str, n: int, Q: Polynomial) -> EvalResult:
    """Permanent of (1/(x_i - y_j)) with rows from one of the two families.

    kind selects the row polynomial: x^n - 1 or 1 + x + ... + x^(n-1).
    The value is the banded determinant divided by the resultant of the row
    polynomial with Q itself (unnormalized; the scaling cancels).  That
    resultant is computed first, and SharedRoot is raised when it is 0.
    """
    family = RowFamily(kind)
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    notes: list[str] = []

    if family is RowFamily.POWER_MINUS_ONE:
        P, banded = power_minus_one(n), fes
        binomial = _binomial_parts(Q)
    else:
        P, banded, binomial = all_ones_poly(n), fes_tilde, None
    if binomial is not None:
        c, d = binomial
        denominator = special_resultant(1, 1, c, d, n, Q.degree)
        notes.append("binomial resultant shortcut")
    else:
        denominator = resultant(P, Q)
    if denominator == 0:
        raise SharedRoot("the polynomials share a root")
    numerator = banded(Q, n)

    rows = P.degree
    if rows > Q.degree:
        notes.append("n > m: permanent vanishes")
    return EvalResult(numerator / denominator, family.method, rows, Q.degree, tuple(notes))

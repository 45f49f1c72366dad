"""Banded-determinant evaluation for the two cyclotomic row families.

When the row polynomial is x^n - 1 or 1 + x + ... + x^(n-1), the permanent
numerator collapses to the determinant of a small sum of "broken diagonals":
cyclic diagonals of the column polynomial's weighted coefficients.  The
column polynomial enters with its raw coefficients, unnormalized; scaling Q
by a constant scales the determinant and the resultant by the same factor.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SharedRoot, ZeroDegree, ZeroLeadingCoefficient
from .exact_core import (
    Coefficient,
    Polynomial,
    RationalMatrix,
    exact_det,
    resultant,
)
from .scott_engine import EvalResult


class RowFamily(str, enum.Enum):
    POWER_MINUS_ONE = "power_minus_one"  # x^n - 1
    ALL_ONES = "all_ones"  # 1 + x + ... + x^(n-1)


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
    """Detect (after monic normalization) whether P belongs to a row family.

    Returns (family, n) where n is the family parameter: x^n - 1 has degree
    n, while the all-ones polynomial of parameter n has degree n - 1.
    """
    if P.degree is None or P.degree < 1:
        return None
    monic = P.monic()
    deg = monic.degree
    if monic == power_minus_one(deg):
        return RowFamily.POWER_MINUS_ONE, deg
    if deg >= 1 and monic == all_ones_poly(deg + 1):
        return RowFamily.ALL_ONES, deg + 1
    return None


def _offset(r: int, n: int) -> int:
    """The representative of r in 1..n modulo n (so multiples of n map to n)."""
    return ((r - 1) % n) + 1


@dataclass(frozen=True)
class BrokenDiagonalSpec:
    """A cyclic diagonal: values[k] goes to column k, rows shifted by start_row.

    With 1-based indices, the k-th value sits in row
    ((start_row - 1 + k - 1) mod size) + 1 and column k.
    """

    size: int
    start_row: int
    values: tuple[Fraction, ...]


def broken_diag(spec: BrokenDiagonalSpec) -> RationalMatrix:
    """Materialize a broken diagonal as a square matrix."""
    n = spec.size
    if len(spec.values) != n:
        raise ValueError(f"need {n} values, got {len(spec.values)}")
    if not 1 <= spec.start_row <= n:
        raise ValueError("start_row must be in 1..size")
    entries = [Fraction(0)] * (n * n)
    for k in range(1, n + 1):
        row = (spec.start_row - 1 + k - 1) % n + 1
        entries[(row - 1) * n + (k - 1)] = spec.values[k - 1]
    return RationalMatrix(n, n, entries)


def fes_matrix(n: int, Q: Polynomial) -> RationalMatrix:
    """The n x n sum of broken diagonals whose determinant is fes(Q, n).

    Each coefficient a_r of Q contributes the broken diagonal starting at
    row (r mod n, as a value in 1..n) with column values
    r*a_r, (r-1)*a_r, ..., (r-n+1)*a_r.
    """
    if n < 1:
        raise ZeroDegree("n must be at least 1")
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    total = RationalMatrix.zeros(n, n)
    for r in range(Q.degree + 1):
        a_r = Q.coeff(r)
        if a_r == 0:
            continue
        values = tuple(Fraction(r - k + 1) * a_r for k in range(1, n + 1))
        total = total + broken_diag(BrokenDiagonalSpec(n, _offset(r, n), values))
    return total


def fes(Q: Polynomial, n: int) -> Fraction:
    """Permanent numerator for rows x^n - 1: det of the broken-diagonal sum."""
    return exact_det(fes_matrix(n, Q))


def _wrapped_diag(n: int, i: int, values: Sequence[Fraction]) -> RationalMatrix:
    """The (n-1) x (n-1) wrapped diagonal with offset i in 1..n.

    For i = 1 this is the plain diagonal.  For i >= 2, value j goes to row
    i-1+j for j = 1..n-i, value n-i+1 is dropped, and value j goes to row
    j-(n-i+1) for j = n-i+2..n-1; row i-1 and column n-i+1 stay empty.
    """
    size = n - 1
    if len(values) != size:
        raise ValueError(f"need {size} values, got {len(values)}")
    if not 1 <= i <= n:
        raise ValueError("offset must be in 1..n")
    entries = [Fraction(0)] * (size * size)
    if i == 1:
        for j in range(1, size + 1):
            entries[(j - 1) * size + (j - 1)] = values[j - 1]
    else:
        for j in range(1, n - i + 1):
            entries[(i - 1 + j - 1) * size + (j - 1)] = values[j - 1]
        for j in range(n - i + 2, n):
            entries[(j - (n - i + 1) - 1) * size + (j - 1)] = values[j - 1]
    return RationalMatrix(size, size, entries)


def fes_tilde_matrix(n: int, Q: Polynomial) -> RationalMatrix:
    """The (n-1) x (n-1) wrapped-diagonal sum whose determinant is fes_tilde(Q, n).

    Each coefficient a_r contributes its weighted diagonal twice: added at
    offset (r mod n) and subtracted at offset (r-1 mod n), both as values
    in 1..n.
    """
    if n < 2:
        raise ZeroDegree("n must be at least 2")
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    size = n - 1
    total = RationalMatrix.zeros(size, size)
    for r in range(Q.degree + 1):
        a_r = Q.coeff(r)
        if a_r == 0:
            continue
        values = tuple(Fraction(r - k + 1) * a_r for k in range(1, size + 1))
        total = total + _wrapped_diag(n, _offset(r, n), values)
        total = total - _wrapped_diag(n, _offset(r - 1, n), values)
    return total


def fes_tilde(Q: Polynomial, n: int) -> Fraction:
    """Permanent numerator for rows 1 + x + ... + x^(n-1)."""
    return exact_det(fes_tilde_matrix(n, Q))


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
    method = "fes" if family is RowFamily.POWER_MINUS_ONE else "fes_tilde"
    return EvalResult(numerator / denominator, method, rows, Q.degree, tuple(notes))

"""Exact rational scalars, dense univariate polynomials, and exact linear algebra.

Every quantity on the exact evaluation path lives here: `Rational` (an
arbitrary-precision fraction in canonical form), `Polynomial` (a dense
coefficient tuple over `Rational`, low degree first, trailing zeros trimmed),
and `RationalMatrix` (dense, row-major).  On top of those sit power-series
inversion, one fraction-free integer determinant kernel (`_bareiss`), the
resultant by the subresultant pseudo-remainder sequence over the integers,
and the Sylvester matrix and Euclidean polynomial gcd that the tests use as
references.

No floating point enters any function in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import BothZero, NonSquare, ZeroConstantTerm, ZeroPolynomial

# Canonical exact scalar: numerator/denominator in lowest terms, denominator > 0.
# fractions.Fraction maintains exactly these invariants after every operation.
Rational = Fraction

Coefficient = Union[int, Fraction]


def _to_rational(value: Coefficient) -> Fraction:
    # int first: isinstance(value, Fraction) goes through ABCMeta for an int.
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, init=False)
class Polynomial:
    """A univariate polynomial over Rational.

    `coeffs[i]` is the coefficient of the i-th power; trailing zeros are
    trimmed, so a nonzero polynomial's last coefficient is nonzero.  The zero
    polynomial is the empty tuple and has no degree (`degree` is None).
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        values = [_to_rational(c) for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        object.__setattr__(self, "coeffs", tuple(values))

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of the k-th power (0 for k beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def monic(self) -> Polynomial:
        """The polynomial divided by its leading coefficient."""
        lead = self.leading
        if lead == 1:
            return self
        return Polynomial(c / lead for c in self.coeffs)

    def __add__(self, other: Polynomial) -> Polynomial:
        longer, shorter = (self.coeffs, other.coeffs)
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        summed = list(longer)
        for i, c in enumerate(shorter):
            summed[i] += c
        return Polynomial(summed)

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | Coefficient) -> Polynomial:
        if isinstance(other, Polynomial):
            return poly_mul(self, other)
        return Polynomial(c * _to_rational(other) for c in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Coefficient]]) -> Polynomial:
        """Build from (exponent, coefficient) pairs; repeated exponents add."""
        table: dict[int, Fraction] = {}
        for exponent, value in pairs:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            value = _to_rational(value)
            table[exponent] = table[exponent] + value if exponent in table else value
        if not table:
            return Polynomial()
        coeffs = [Fraction(0)] * (max(table) + 1)
        for exponent, value in table.items():
            coeffs[exponent] = value
        return Polynomial(coeffs)


def poly_eval(p: Polynomial, x: Coefficient) -> Fraction:
    """Evaluate p at x by Horner's rule."""
    point = _to_rational(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact convolution product."""
    if p.is_zero or q.is_zero:
        return Polynomial()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def poly_divmod(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of p by q over the rationals (deg r < deg q)."""
    if q.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    rem = list(p.coeffs)
    dq = len(q.coeffs) - 1
    lead = q.coeffs[-1]
    if len(rem) <= dq:
        return Polynomial(), p
    quo = [Fraction(0)] * (len(rem) - dq)
    for top in range(len(rem) - 1, dq - 1, -1):
        factor = rem[top] / lead
        if factor == 0:
            continue
        quo[top - dq] = factor
        for i, c in enumerate(q.coeffs):
            rem[top - dq + i] -= factor * c
    return Polynomial(quo), Polynomial(rem[:dq])


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers c_i and the lcm L of the denominators, so that values[i] == c_i / L."""
    # Unpack a list, not a generator: CPython builds a generator's tuple at a
    # guessed size and resizes it, which moves tuples between its per-size
    # free lists until they hold megabytes in a long-running process.
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def series_inverse(p: Polynomial, order: int) -> list[Fraction]:
    """First order+1 coefficients of the formal power series 1/p(t).

    Requires p(0) != 0.  The result c satisfies
    p(t) * sum(c[i] t^i) == 1 (mod t^(order+1)).
    """
    if p.is_zero or p.coeffs[0] == 0:
        raise ZeroConstantTerm("series inversion requires a nonzero constant term")
    if order < 0:
        raise ValueError("order must be nonnegative")
    # With p = c / scale for integers c, g[k] = c0^(k+1) * [t^k] 1/c(t) is an
    # integer: g[k] = -sum_i c[i] * c0^(i-1) * g[k-i].
    c, scale = _clear_denominators(p.coeffs)
    c0 = c[0]
    weights = [c[i] * c0 ** (i - 1) for i in range(1, len(c))]
    g = [1]
    for k in range(1, order + 1):
        g.append(-sum(map(mul, weights, g[k - 1 :: -1])))
    return [Fraction(scale * gk, c0 ** (k + 1)) for k, gk in enumerate(g)]


@dataclass(frozen=True, init=False)
class RationalMatrix:
    """Dense matrix over Rational, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[Coefficient]):
        values = tuple(_to_rational(e) for e in entries)
        if len(values) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(values)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", values)

    @staticmethod
    def from_rows(data: Sequence[Sequence[Coefficient]]) -> RationalMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return RationalMatrix(rows, cols, (c for row in data for c in row))

    def at(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j (0-based)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: RationalMatrix) -> RationalMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                acc = Fraction(0)
                for k, a in enumerate(left):
                    if a != 0:
                        acc += a * other.entries[k * other.cols + j]
                out.append(acc)
        return RationalMatrix(self.rows, other.cols, out)


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Works in place on `rows`.  Every division is exact by Sylvester's
    identity, so the elimination never leaves the integers.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = rows[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1 :]
        for i in range(k + 1, n):
            row_i = rows[i]
            left = row_i[k]
            if left:
                row_i[k + 1 :] = [
                    (a * pivot - left * b) // prev for a, b in zip(row_i[k + 1 :], tail_k)
                ]
            elif pivot != prev:
                row_i[k + 1 :] = [a * pivot // prev for a in row_i[k + 1 :]]
        prev = pivot
    return sign * rows[n - 1][n - 1]


def exact_det(m: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Rows are first scaled to integers (the scale is divided back out at the
    end) so the elimination runs entirely over arbitrary-precision integers.
    """
    if m.rows != m.cols:
        raise NonSquare(f"determinant of a {m.rows}x{m.cols} matrix")
    scale = 1
    rows: list[list[int]] = []
    for i in range(m.rows):
        row, row_scale = _clear_denominators(m.row(i))
        scale *= row_scale
        rows.append(row)
    return Fraction(_bareiss(rows), scale)


def sylvester_matrix(p: Polynomial, q: Polynomial) -> RationalMatrix:
    """The (deg p + deg q) square Sylvester matrix of p and q."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("Sylvester matrix of the zero polynomial")
    n = len(p.coeffs) - 1
    m = len(q.coeffs) - 1
    size = n + m
    rows: list[list[Fraction]] = []
    p_desc = list(reversed(p.coeffs))
    q_desc = list(reversed(q.coeffs))
    for shift in range(m):
        row = [Fraction(0)] * size
        row[shift : shift + n + 1] = p_desc
        rows.append(row)
    for shift in range(n):
        row = [Fraction(0)] * size
        row[shift : shift + m + 1] = q_desc
        rows.append(row)
    return RationalMatrix.from_rows(rows) if rows else RationalMatrix(0, 0, [])


def _primitive(values: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """Integers c_i with no common factor and a rational s, so that values[i] == s * c_i."""
    ints, den = _clear_denominators(values)
    content = math.gcd(*ints)
    if content != 1:
        ints = [c // content for c in ints]
    return ints, Fraction(content, den)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b, with trailing zeros trimmed.

    The lazy form: a step whose top coefficient is already 0 does not
    multiply by lc(b), and the powers it skipped are made up once at the end.
    """
    lead = b[-1]
    low = b[:-1]
    r = a[:]
    skipped = 0
    for shift in range(len(a) - len(b), -1, -1):
        t = r.pop()
        if not t:
            skipped += 1
            continue
        if lead != 1:
            r = [lead * c for c in r]
        for i, d in enumerate(low, shift):
            r[i] -= t * d
    while r and not r[-1]:
        r.pop()
    if skipped and lead != 1:
        factor = lead**skipped
        r = [factor * c for c in r]
    return r


def _subresultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of two integer coefficient lists of positive degree.

    The subresultant pseudo-remainder sequence (Collins 1967; Brown and
    Traub 1971): each pseudo-remainder is divided exactly by g * h^delta,
    which keeps the coefficients as small as the subresultants themselves.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return sign * b[0] ** da // h ** (da - 1)


def resultant(p: Polynomial, q: Polynomial) -> Fraction:
    """Res(p, q) = lc(p)^deg(q) * lc(q)^deg(p) * prod (x_i - y_j).

    A constant side c gives c^(degree of the other side).  Otherwise each
    side is written as a rational scale times a primitive integer
    polynomial, Res(s * A, t * B) = s^deg(B) * t^deg(A) * Res(A, B), and
    Res(A, B) is one subresultant pseudo-remainder sequence over the
    integers (`_subresultant`); it is 0 as soon as a remainder vanishes.
    The Sylvester matrix (`sylvester_matrix`) has the same determinant.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    dp, dq = p.degree, q.degree
    if dp == 0:
        return p.leading**dq
    if dq == 0:
        return q.leading**dp
    a, scale_a = _primitive(p.coeffs)
    b, scale_b = _primitive(q.coeffs)
    return scale_a**dq * scale_b**dp * _subresultant(a, b)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()

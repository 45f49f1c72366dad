"""Exact rational scalars, dense univariate polynomials, and exact linear algebra.

Every quantity on the exact evaluation path lives here: `Rational` (an
arbitrary-precision fraction in canonical form), `Polynomial` (stored once, at
construction, as its `key`, the primitive integer coefficient list that every
integer-level reader takes, and one rational `scale`; its `Rational`
coefficients are derived from those), and `RationalMatrix` (dense,
row-major).  On top of those sit power-series inversion, one fraction-free
integer determinant kernel (`_bareiss`, Bareiss's three-step elimination:
three columns per pass, four products and one exact division per entry per
pass), the resultant by the subresultant pseudo-remainder sequence over the
integers, and the Sylvester matrix and Euclidean polynomial gcd that the tests
use as references.

No floating point enters any function in this module.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import BothZero, NonSquare, ResourceLimit, SharedRoot, ZeroConstantTerm, ZeroPolynomial

# Canonical exact scalar: numerator/denominator in lowest terms, denominator > 0.
# fractions.Fraction maintains exactly these invariants after every operation.
Rational = Fraction

Coefficient = Union[int, Fraction]

# The largest degree of P or Q that the routes take, and the largest exponent the
# command line's parser takes.  It admits every exponent below 1000, which the
# parser's tests reach; one eval of a dense random pair took 1.1 s at degree 128
# and 26 s at 256 on a 2-core VM (about n^4.6), so this budget bounds a
# polynomial's size, not an eval's time.
MAX_DEGREE = 1024


def _within_budget(side: str, degree: int) -> None:
    """ResourceLimit when the side's polynomial has a degree above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ResourceLimit(
            f"the {side} polynomial's degree {degree} is above the degree budget {MAX_DEGREE}"
        )


def _to_rational(value: Coefficient) -> Fraction:
    # int first: isinstance(value, Fraction) goes through ABCMeta for an int.
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class _Frozen:
    """An immutable value: its fields are set once, through object.__setattr__, and
    equality and hash read the tuple that the subclass's `_fields()` returns, among
    instances of one class."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Polynomial(_Frozen):
    """A univariate polynomial over Rational, stored as `key` and one scale.

    `key` lists the coefficients, low degree first, divided by their content,
    with a positive last entry: the same roots with the smallest integers, so
    two polynomials are proportional exactly when their keys are equal.  The
    zero polynomial's key is [] and it has no degree (`degree` is None).
    `scale` is the one rational with `coeffs[i] == scale * key[i]` (0 for the
    zero polynomial).  Both are set at construction, the scale as its
    numerator and denominator, so an integer polynomial builds no Fraction;
    `coeffs`, the Fraction coefficients with trailing zeros trimmed, is built
    on first read.  Equality reads key and scale; hash and repr read `coeffs`.
    Callers must not mutate `key`.
    """

    key: list[int]

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        values = list(coeffs)
        for value in values:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")
        while values and not values[-1]:
            values.pop()
        ints, denominator = _clear_denominators(values)
        content = math.gcd(*ints)
        if ints and ints[-1] < 0:
            content = -content
        # No prime of the denominator divides every entry of ints, so
        # content / denominator is in lowest terms.
        object.__setattr__(self, "key", ints if content == 1 else [c // content for c in ints])
        object.__setattr__(self, "_scale", (content, denominator))

    def _fields(self) -> tuple:
        return (self.key, self._scale)

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """`coeffs[i]` is the coefficient of the i-th power, scale * key[i]."""
        numerator, denominator = self._scale
        return tuple([Fraction(numerator * c, denominator) for c in self.key])

    @property
    def scale(self) -> Fraction:
        """The rational with coeffs[i] == scale * key[i], built from its two stored ints."""
        return Fraction(*self._scale)

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.key) - 1 if self.key else None

    @property
    def is_zero(self) -> bool:
        return not self.key

    @property
    def leading(self) -> Fraction:
        if not self.key:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeff(len(self.key) - 1)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of the k-th power (0 for k beyond the degree)."""
        if 0 <= k < len(self.key):
            numerator, denominator = self._scale
            return Fraction(numerator * self.key[k], denominator)
        return Fraction(0)

    def monic(self) -> Polynomial:
        """The polynomial divided by its leading coefficient."""
        if self.leading == 1:
            return self
        return Polynomial([Fraction(c, self.key[-1]) for c in self.key])

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
        table: dict[int, Coefficient] = {}
        for exponent, value in pairs:
            if exponent < 0:
                raise ValueError("exponents must be nonnegative")
            table[exponent] = table[exponent] + value if exponent in table else value
        return Polynomial([table.get(k, 0) for k in range(max(table) + 1)] if table else [])


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


def _clear_denominators(values: Sequence[Coefficient]) -> tuple[list[int], int]:
    """Integers c_i and the lcm L of the denominators, so that values[i] == c_i / L."""
    # Unpack a list, not a generator: CPython builds a generator's tuple at a
    # guessed size and resizes it, which moves tuples between its per-size
    # free lists until they hold megabytes in a long-running process.
    scale = math.lcm(*[v.denominator for v in values])
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def series_inverse(p: Polynomial, order: int) -> list[Fraction]:
    """First order+1 coefficients of the formal power series 1/p(t).

    Requires p(0) != 0.  The recurrence runs on p's key, over the integers; the
    result c satisfies p(t) * sum(c[i] t^i) == 1 (mod t^(order+1)).
    """
    if p.is_zero or p.key[0] == 0:
        raise ZeroConstantTerm("series inversion requires a nonzero constant term")
    if order < 0:
        raise ValueError("order must be nonnegative")
    # With p = s c for the key c and the scale s, g[k] = c0^(k+1) * [t^k] 1/c(t)
    # is an integer: g[k] = -sum_i c[i] * c0^(i-1) * g[k-i].
    c = p.key
    c0, s = c[0], p.scale
    weights = [c[i] * c0 ** (i - 1) for i in range(1, len(c))]
    g = [1]
    for k in range(1, order + 1):
        g.append(-sum(map(mul, weights, g[k - 1 :: -1])))
    return [Fraction(s.denominator * gk, s.numerator * c0 ** (k + 1)) for k, gk in enumerate(g)]


class RationalMatrix(_Frozen):
    """Dense matrix over Rational, stored row-major; equality, hash and repr read
    rows, cols and entries."""

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

    def _fields(self) -> tuple:
        return (self.rows, self.cols, self.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

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
    """Determinant of a square integer matrix by Bareiss's three-step elimination.

    Works in place on `rows`.  Each pass removes three columns (E. H. Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968).  Let p be the previous pivot (1 at
    the start) and B the 3x3 block at the head of the three pivot rows.
    Every 2x2 minor of B is p times an integer, so adj(B) / p is an integer
    matrix, and det(B) / p^2 is the next pivot.  Row t of adj(B) / p, dotted
    with the tails b of the pivot rows and divided by p, gives an integer
    vector w_t.  An entry a of a lower row whose pivot-column entries are
    l0, l1, l2 becomes (pivot * a - l0 * w_0 - l1 * w_1 - l2 * w_2) / p:
    four products and one exact division per entry per three columns.
    Sylvester's identity makes every division exact, so the elimination
    never leaves the integers.  A pass with no row below it returns its
    pivot; a tail of two rows ends with one 2x2 step, and a tail of one row
    ends at its entry.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = prev = 1
    for k in range(0, n - 2, 3):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        row0 = rows[k]
        a00, a01, a02 = row0[k : k + 3]
        # The first lower row whose 2x2 minor with row0 is nonzero; with none,
        # column k + 1 vanishes below row0 after one step, and so does det.
        for r in range(k + 1, n):
            c22 = a00 * rows[r][k + 1] - rows[r][k] * a01
            if c22:
                if r != k + 1:
                    rows[k + 1], rows[r] = rows[r], rows[k + 1]
                    sign = -sign
                break
        else:
            return 0
        row1 = rows[k + 1]
        a10, a11, a12 = row1[k : k + 3]
        # The first lower row whose 3x3 minor with row0 and row1 is nonzero,
        # found from the cofactors of a third row's entries, each divided by
        # p: that minor over p is g*x0 + h*x1 + i*x2.  With none, det is 0.
        x0 = (a01 * a12 - a02 * a11) // prev
        x1 = (a02 * a10 - a00 * a12) // prev
        x2 = c22 // prev
        for r in range(k + 2, n):
            g, h, i = rows[r][k : k + 3]
            minor = g * x0 + h * x1 + i * x2
            if minor:
                if r != k + 2:
                    rows[k + 2], rows[r] = rows[r], rows[k + 2]
                    sign = -sign
                break
        else:
            return 0
        pivot = minor // prev
        if k + 3 == n:
            return sign * pivot
        row2 = rows[k + 2]
        # Rows of adj(B) / p: (e00, e01, x0), (e10, e11, x1), (e20, e21, x2).
        e00 = (a11 * i - a12 * h) // prev
        e01 = (a02 * h - a01 * i) // prev
        e10 = (a12 * g - a10 * i) // prev
        e11 = (a00 * i - a02 * g) // prev
        e20 = (a10 * h - a11 * g) // prev
        e21 = (a01 * g - a00 * h) // prev
        tails = list(zip(row0[k + 3 :], row1[k + 3 :], row2[k + 3 :]))
        w0 = [(e00 * b0 + e01 * b1 + x0 * b2) // prev for b0, b1, b2 in tails]
        w1 = [(e10 * b0 + e11 * b1 + x1 * b2) // prev for b0, b1, b2 in tails]
        w2 = [(e20 * b0 + e21 * b1 + x2 * b2) // prev for b0, b1, b2 in tails]
        for row_i in rows[k + 3 :]:
            l0, l1, l2 = row_i[k : k + 3]
            if l0 or l1 or l2:
                row_i[k + 3 :] = [
                    (pivot * a - l0 * u - l1 * v - l2 * w) // prev
                    for a, u, v, w in zip(row_i[k + 3 :], w0, w1, w2)
                ]
            elif pivot != prev:
                row_i[k + 3 :] = [pivot * a // prev for a in row_i[k + 3 :]]
        prev = pivot
    if n % 3 == 1:
        return sign * rows[n - 1][n - 1]
    (a, b), (c, d) = rows[n - 2][n - 2 :], rows[n - 1][n - 2 :]
    return sign * ((a * d - c * b) // prev)


def exact_det(m: RationalMatrix) -> Fraction:
    """Exact determinant by Bareiss's fraction-free three-step elimination (`_bareiss`).

    The kernel removes three columns per pass, with four products and one
    exact division per entry per pass.  Rows are first scaled to integers (the scale is divided back out at the
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


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b, with trailing zeros trimmed.

    a is scaled by that power once, not at all when lc(b) = 1: the quotient of
    the scaled a by b then has integer coefficients (the pseudo-division
    theorem), so each quotient digit is the top coefficient divided exactly by
    lc(b), and each step updates only the deg b entries under the top.
    """
    lead = b[-1]
    low = b[:-1]
    shifts = len(a) - len(b) + 1
    r = a[:] if lead == 1 else [lead**shifts * c for c in a]
    for shift in range(shifts - 1, -1, -1):
        t = r.pop()
        if t:
            if lead != 1:
                t //= lead
            for i, d in enumerate(low, shift):
                r[i] -= t * d
    while r and not r[-1]:
        r.pop()
    return r


def _subresultant(a: list[int], b: list[int], first: list[int] | None = None) -> int:
    """Res(a, b) of two nonzero integer coefficient lists; a constant side c gives
    c^(degree of the other side).

    The subresultant pseudo-remainder sequence (Collins 1967; Brown and
    Traub 1971) of the longer list by the shorter, b by a when they are as
    long: each pseudo-remainder is divided exactly by g * h^delta, which
    keeps the coefficients as small as the subresultants themselves.  A
    normal step (delta = 1) is one pass: with L = lc(b) and t the top
    coefficient of a, the two pseudo-division steps give
    L^2 a_i - L t b_(i-1) - s b_i, where s = L a_(top-1) - t b_(top-2) is the
    second step's top coefficient, divided by g * h as it is formed.  A
    caller that already has the first pseudo-remainder, `_pseudo_remainder(b,
    a)` with len(b) >= len(a) > 1, passes it as `first`.
    """
    sign = 1
    if len(a) <= len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        if first is not None:
            r, first = first, None  # g = h = 1: nothing to divide on the first step
        elif delta == 1:
            lead, t = b[-1], a[-1]
            s = lead * a[-2] - t * b[-2]
            lead2, lt, divisor = lead * lead, lead * t, g * h
            r = [(lead2 * x - lt * y - s * z) // divisor for x, y, z in zip(a, [0, *b], b[:-1])]
            while r and not r[-1]:
                r.pop()
        else:
            divisor = g * h**delta
            r = [c // divisor for c in _pseudo_remainder(a, b)]
        if not r:
            return 0
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta:
            h = g**delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return sign * b[0] ** da // h ** (da - 1)


def resultant(p: Polynomial, q: Polynomial) -> Fraction:
    """Res(p, q) = lc(p)^deg(q) * lc(q)^deg(p) * prod (x_i - y_j).

    With p = s A and q = t B for the keys A, B and the scales s, t,
    Res(p, q) = s^deg(q) * t^deg(p) * Res(A, B), and Res(A, B) is one
    subresultant pseudo-remainder sequence over the integers (`_subresultant`);
    it is 0 as soon as a remainder vanishes.  The Sylvester matrix
    (`sylvester_matrix`) has the same determinant.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    return _subresultant(p.key, q.key) * p.scale ** q.degree * q.scale ** p.degree


def _coprime_resultant(p: list[int], q: list[int], first: list[int] | None = None) -> int:
    """Res(p, q) of nonzero integer coefficient lists, or SharedRoot when it is 0:
    the one shared-root check.  `first` is `_subresultant`'s."""
    value = _subresultant(p, q, first)
    if value == 0:
        raise SharedRoot("the polynomials share a root, so some entry 1/(x - y) is undefined")
    return value


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()

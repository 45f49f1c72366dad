"""Closed-form catalog of permanents per(1/(x_i - y_j)) over polynomial root sets.

Each entry names a parametrized family (P, Q), a domain predicate, and the
exact closed form of the permanent.  Entries are enumerable metadata, so the
whole catalog can be swept against the determinant engine, matched against a
parsed (P, Q) pair, or listed by the command line.

Recognition is data plus one check, on integer keys: a polynomial's key
(`Polynomial.key`) is its primitive integer coefficient list with a positive
leading coefficient, so two polynomials are proportional exactly when their
keys are equal.  An entry's reader proposes candidate parameters for a
concrete (P, Q): it reads degrees, supports and the coefficients on the keys,
so it proposes only what its family can be, but it builds no polynomial.
`CatalogEntry.infer` validates each candidate, builds the entry's family there
and keeps the first whose keys equal the pair's, so a match is always a
member of the family.  `iter_matching` shares one pair's shape among all
readers, and reads the entries lazily; `find_matching` lists all its matches.

The four ``prop4x`` entries carry, in addition, identities for weighted sums
over involutions of the n-th roots of unity; ``involution_identity_check``
evaluates those sums numerically and compares them with the stated constant.

Derivation notes that shaped this module:

* Quotient displays are implemented in cancellation-safe product form, so a
  parameter point where an intermediate sum vanishes but the full quotient
  does not (for example cor28 at b = -1) still evaluates exactly.
* The vanishing of a shifted factorial with a nonpositive integer base in
  [-k+1, 0] is exactly how the zero-valued entries (cor20, cor21) emerge
  from their parents.
* The closed forms that carry the catalog's long products (`poch`, `falling`,
  thm10, cor11, cor24, thm32, thm39) multiply integer numerators over one
  common denominator and build one Fraction at the end.
* The prop42 fixed-point weight is derived from the underlying permanent
  family 1/(x_i - y_j) with Q = y^n + n y - 1 via the involution expansion:
  (2 + (3-n) x) / (2 x^2).  The commonly printed weight (2n+(n+1)x)/(2x^2)
  agrees only at n = 1 and fails numerically for every n >= 2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import BadParams, OutOfDomain
from .exact_core import Polynomial, _clear_denominators
from .fes_engine import all_ones_poly, power_minus_one
from .params import Params, _validate


def _product(start: int, step: int, length: int) -> int:
    """start (start + step) ... (start + (length-1) step), on integers; 1 for length <= 0."""
    out = 1
    for _ in range(length):
        out *= start
        start += step
    return out


def poch(base: Fraction | int, length: int) -> Fraction:
    """Shifted factorial (base)_length = base(base+1)...(base+length-1); the empty product is 1.
    With base = p / q it is the integer product of the p + t q over q^length."""
    if length < 0:
        raise BadParams("length must be nonnegative")
    q = base.denominator
    return Fraction(_product(base.numerator, q, length), q**length)


def falling(base: Fraction | int, length: int) -> Fraction:
    """Falling product base(base-1)...(base-length+1); the empty product is 1."""
    q = base.denominator
    return Fraction(_product(base.numerator, -q, length), q ** max(length, 0))


def power_plus_one(n: int) -> Polynomial:
    """x^n + 1."""
    if n < 1:
        raise BadParams("n must be at least 1")
    return Polynomial.from_pairs([(0, 1), (n, 1)])


@dataclass(frozen=True)
class CatalogEntry:
    """One closed-form identity, packaged as enumerable metadata.

    `read` proposes candidate parameters for a pair (see the module notes);
    an entry without a reader matches no pair.
    """

    id: str
    param_kinds: tuple[tuple[str, str, int | None], ...]  # (name, kind, minimum)
    statement: str
    domain_desc: str
    domain_check: Callable[[Params], str | None]
    family: Callable[[Params], tuple[Polynomial, Polynomial]]
    closed_form: Callable[[Params], Fraction]
    grid: tuple[Params, ...]
    read: Reader | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.param_kinds)

    def infer(self, P: Polynomial, Q: Polynomial) -> Params | None:
        """Validated parameters of the family member equal to (P, Q) up to
        scale, or None; the domain is not checked."""
        return _infer(self, _Shape(P, Q))


# Family builders shared by several entries.


def _arith_poly(length: int, a: Fraction, step_exp: int = 1) -> Polynomial:
    """sum_{l=0}^{length-1} (l + a) y^(l * step_exp)."""
    return Polynomial.from_pairs((l * step_exp, l + a) for l in range(length))


def _spread_ones(count: int, s: int) -> Polynomial:
    """sum_{l=0}^{count-1} y^(l * s)."""
    return Polynomial.from_pairs([(l * s, 1) for l in range(count)])


# thm10 ---------------------------------------------------------------------


def _thm10_core(p: Params) -> tuple[int, int, list[int], list[int], int]:
    """d = gcd(n, r), q = n/d, the vectors a and b as integers over their common
    denominator L, and the denominator (A^q - (-B)^q)^d with A and B their sums:
    L^n times the closed form's."""
    d = math.gcd(p["n"], p["r"])
    q, k = p["n"] // d, len(p["a"])
    whole, _ = _clear_denominators(p["a"] + p["b"])
    av, bv = whole[:k], whole[k:]
    return d, q, av, bv, (sum(av) ** q - (-sum(bv)) ** q) ** d


def _thm10_domain(p: Params) -> str | None:
    if len(p["a"]) != len(p["b"]):
        return "coefficient vectors a and b must have equal length"
    if _thm10_core(p)[-1] == 0:
        return "(sum a)^(n/d) = (-sum b)^(n/d): shared root, denominator vanishes"
    return None


def _thm10_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, r = p["n"], p["r"]
    pairs = [(l * n, c) for l, c in enumerate(p["a"])]
    pairs += [(l * n + r, c) for l, c in enumerate(p["b"])]
    return power_minus_one(n), Polynomial.from_pairs(pairs)


def _thm10_closed(p: Params) -> Fraction:
    # With a = av / L and b = bv / L, each factor s_i/d + t A is (S_i + t d A') / (d L)
    # for the integer sums S_i and A' of av (and so for b), so the numerator is
    # N / (d L)^n for the integer product N below; the denominator is L^-n times
    # _thm10_core's, and the value -d^n N / (d L)^n * L^n / den is -N / den.
    n, r = p["n"], p["r"]
    d, q, av, bv, den = _thm10_core(p)
    dA, dB, sign = d * sum(av), d * sum(bv), (-1) ** q
    numerator = 1
    for i in range(1, d + 1):
        s_i = sum((i - n * l - 1) * c for l, c in enumerate(av))
        t_i = sum((i - r - n * l - 1) * c for l, c in enumerate(bv))
        numerator *= _product(s_i, dA, q) - sign * _product(t_i, dB, q)
    return Fraction(-numerator, den)


# cor11 ---------------------------------------------------------------------


def _cor11_domain(p: Params) -> str | None:
    if sum(p["a"]) == 0:
        return "sum of the coefficients a_l must be nonzero (shared root at a root of unity)"
    return None


def _cor11_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), Polynomial.from_pairs([(l * n, c) for l, c in enumerate(p["a"])])


def _cor11_closed(p: Params) -> Fraction:
    # -(-n W / A)_n with W = sum l a_l and A = sum a_l, on the integers av = L a:
    # -prod_t (t A' - n W') / A'^n, where A' = L A and W' = L W.
    n = p["n"]
    av, _ = _clear_denominators(p["a"])
    total, weighted = sum(av), sum(l * c for l, c in enumerate(av))
    return Fraction(-_product(-n * weighted, total, n), total**n)


# Geometric-block families cor12..cor21 ------------------------------------


def _cor12_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _spread_ones(p["m"] + 1, p["n"])


def _cor12_closed(p: Params) -> Fraction:
    return -poch(Fraction(-p["m"] * p["n"], 2), p["n"])


def _cor13_domain(p: Params) -> str | None:
    if p["m"] % 2:
        return "m must be even (odd m shares a root with x^n + 1)"
    return None


def _cor13_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_plus_one(p["n"]), _spread_ones(p["m"] + 1, p["n"])


def _cor13_closed(p: Params) -> Fraction:
    return poch(Fraction(-p["m"] * p["n"], 2), p["n"])


def _cor14_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _arith_poly(p["m"] + 1, Fraction(0), step_exp=p["n"])


def _cor14_closed(p: Params) -> Fraction:
    return -poch(Fraction(-p["n"] * (2 * p["m"] + 1), 3), p["n"])


def _cor15_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), Polynomial.from_pairs([(l * l * n, l) for l in range(p["m"] + 1)])


def _cor15_closed(p: Params) -> Fraction:
    return -poch(Fraction(-p["n"] * p["m"] * (p["m"] + 1), 2), p["n"])


def _cor16_domain(p: Params) -> str | None:
    if p["r"] >= p["m"]:
        return "need m > r >= 1"
    if p["a"] + p["b"] + 1 == 0:
        return "a + b + 1 = 0: shared root, denominator vanishes"
    return None


def _cor16_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m, r = p["n"], p["m"], p["r"]
    return power_minus_one(n), Polynomial.from_pairs([(m * n, 1), (r * n, p["a"]), (0, p["b"])])


def _cor16_closed(p: Params) -> Fraction:
    base = -(p["m"] + p["r"] * p["a"]) * p["n"] / (p["a"] + p["b"] + 1)
    return -poch(base, p["n"])


def _cor18_domain(p: Params) -> str | None:
    if p["r"] >= p["m"]:
        return "need m > r >= 1"
    lhs = p["m"] + p["r"] * p["a"]
    rhs = p["a"] + p["b"] + 1
    if lhs != rhs:
        return "requires m + r a = a + b + 1"
    if rhs == 0:
        return "a + b + 1 = 0: shared root, denominator vanishes"
    return None


def _cor19_domain(p: Params) -> str | None:
    if p["a"] == -2:
        return "a = -2: Q = (y^n - 1)^2 shares every root with x^n - 1"
    return None


def _cor20_domain(p: Params) -> str | None:
    if p["r"] >= p["m"]:
        return "need m > r >= 1"
    if p["m"] + p["r"] * p["a"] != 0:
        return "requires m + r a = 0"
    if p["a"] + p["b"] + 1 == 0:
        return "a + b + 1 = 0: shared root, denominator vanishes"
    return None


def _cor21_domain(p: Params) -> str | None:
    if p["b"] == 1:
        return "b = 1: Q = (y^n - 1)^2 shares every root with x^n - 1"
    return None


# cor22/cor23: binomial Q of arbitrary degree ------------------------------


def _cor22_domain(p: Params) -> str | None:
    q = p["n"] // math.gcd(p["n"], p["m"])
    if (-p["b"]) ** q == 1:
        return "(-b)^(n/d) = 1: shared root, denominator vanishes"
    return None


def _cor22_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), Polynomial.from_pairs([(p["m"], 1), (0, p["b"])])


def _cor22_closed(p: Params) -> Fraction:
    n, m, b = p["n"], p["m"], p["b"]
    d = math.gcd(n, m)
    q = n // d
    numerator = Fraction(1)
    for i in range(1, d + 1):
        numerator *= poch(Fraction(i - m - 1, d), q) - (-b) ** q * poch(Fraction(i - 1, d), q)
    return -(Fraction(d) ** n) * numerator / (1 - (-b) ** q) ** d


def _cor23_domain(p: Params) -> str | None:
    if math.gcd(p["m"], p["n"]) != 1:
        return "requires gcd(m, n) = 1"
    if (-p["b"]) ** p["n"] == 1:
        return "(-b)^n = 1: shared root, denominator vanishes"
    return None


def _cor23_closed(p: Params) -> Fraction:
    n, m, b = p["n"], p["m"], p["b"]
    sign = -1 if n % 2 == 0 else 1
    return sign * falling(m, n) / (1 - (-b) ** n)


# cor24/cor25: all-ones against all-ones -----------------------------------


def _cor24_domain(p: Params) -> str | None:
    if math.gcd(p["m"], p["n"]) != 1:
        return "requires gcd(m, n) = 1"
    return None


def _cor24_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return _spread_ones(p["n"], p["s"]), _spread_ones(p["m"], p["s"])


def _cor24_closed(p: Params) -> Fraction:
    n, m, s = p["n"], p["m"], p["s"]
    total = 1
    for i in range(s):
        total *= _product(i, s, n) - _product(i - m * s, s, n)
    return Fraction(total, (m * n * s) ** s)


def _cor25_closed(p: Params) -> Fraction:
    n, m = p["n"], p["m"]
    sign = -1 if n % 2 == 0 else 1
    return sign * falling(m - 1, n - 1) / n


# cor26/cor27: odd n, binomial y^m + 1 -------------------------------------


def _cor26_domain(p: Params) -> str | None:
    if p["n"] % 2 == 0:
        return "n must be odd"
    if math.gcd(p["m"], p["n"]) != 1:
        return "requires gcd(m, n) = 1"
    return None


def _cor26_closed(p: Params) -> Fraction:
    return falling(p["m"], p["n"]) / 2


def _cor27_domain(p: Params) -> str | None:
    if p["n"] % 2 == 0:
        return "n must be odd"
    return None


def _cor27_closed(p: Params) -> Fraction:
    return Fraction(math.factorial(p["n"] + 1), 2)


# cor28..cor31: square-ish trinomials y^n + a y^r + b ----------------------


def _cor28_domain(p: Params) -> str | None:
    q = p["n"] // math.gcd(p["n"], p["r"])
    if (p["b"] + 1) ** q == (-p["a"]) ** q:
        return "(b+1)^(n/d) = (-a)^(n/d): shared root, denominator vanishes"
    return None


def _cor28_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, r = p["n"], p["r"]
    return power_minus_one(n), Polynomial.from_pairs([(n, 1), (r, p["a"]), (0, p["b"])])


def _cor28_closed(p: Params) -> Fraction:
    n, r, a, b = p["n"], p["r"], p["a"], p["b"]
    d = math.gcd(n, r)
    q = n // d
    numerator = Fraction(1)
    for i in range(1, d + 1):
        left = Fraction(1)
        for t in range(q):
            left *= Fraction(i * b - b + i - n - 1, d) + t * (b + 1)
        numerator *= left - (-a) ** q * poch(Fraction(i - r - 1, d), q)
    return -(Fraction(d) ** n) * numerator / ((b + 1) ** q - (-a) ** q) ** d


def _cor29_domain(p: Params) -> str | None:
    if math.gcd(p["n"], p["r"]) != 1:
        return "requires gcd(n, r) = 1"
    if (p["b"] + 1) ** p["n"] == (-p["a"]) ** p["n"]:
        return "(b+1)^n = (-a)^n: shared root, denominator vanishes"
    return None


def _cor29_closed(p: Params) -> Fraction:
    n, r, a, b = p["n"], p["r"], p["a"], p["b"]
    sign = -1 if n % 2 == 0 else 1
    left = Fraction(1)
    for i in range(1, n + 1):
        left *= i - (n - i) * b
    return sign * (left - a**n * poch(Fraction(-r), n)) / ((b + 1) ** n - (-a) ** n)


def _cor30_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), Polynomial.from_pairs([(n + 1, 1), (n, 1), (0, -1)])


def _cor30_closed(p: Params) -> Fraction:
    n = p["n"]
    return Fraction(n) ** n - (-1) ** n * math.factorial(n + 1)


def _cor31_domain(p: Params) -> str | None:
    if p["n"] < 2:
        return "n >= 2 required (at n = 1 the permanent is 2, not 1)"
    return None


# thm32 family: arithmetic-progression coefficients ------------------------


def _v32(n: int, m: int, u: int, w: int) -> int:
    """w^2 V(a) at a = u / w, for V(a) = 1 - 6a + 6a^2 + n - 2an - 5mn + 10amn - mn^2 + 4m^2n^2."""
    return (
        w * w * (1 + n - 5 * m * n - m * n * n + 4 * m * m * n * n)
        + u * w * (10 * m * n - 2 * n - 6) + 6 * u * u
    )


def _thm32_domain(p: Params) -> str | None:
    if p["m"] * p["n"] + 2 * p["a"] - 1 == 0:
        return "mn + 2a - 1 = 0: shared root at y = 1, denominator vanishes"
    return None


def _thm32_closed(p: Params) -> Fraction:
    # At a = u / w, n(m-1) V / (6(mn + 2a - 1)) is n(m-1) w^2 V / (6 w (w(mn - 1) + 2u)),
    # and (a + (m-1)n + 1)_(n-2) is an integer product over w^(n-2).
    n, m, u, w = p["n"], p["m"], p["a"].numerator, p["a"].denominator
    sign = -1 if n % 2 == 0 else 1
    rising = _product(u + w * ((m - 1) * n + 1), w, n - 2)
    return Fraction(sign * n * (m - 1) * _v32(n, m, u, w) * rising,
                    6 * w ** (n - 1) * (w * (m * n - 1) + 2 * u))


def _cor33_closed(p: Params) -> Fraction:
    n, m = p["n"], p["m"]
    sign = -1 if n % 2 == 0 else 1
    return sign * Fraction(4 * m * n - n - 1, 6) * poch(m * n - n, n - 1)


def _cor34_closed(p: Params) -> Fraction:
    n, m = p["n"], p["m"]
    sign = -1 if n % 2 == 0 else 1
    return sign * Fraction(4 * m * n - n + 1, 6) * (m * n - n) * poch(m * n - n + 2, n - 2)


def _cor35_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return power_minus_one(n), Polynomial.from_pairs([(l, m * n - l) for l in range(m * n)])


def _cor35_closed(p: Params) -> Fraction:
    return Fraction((p["m"] - 1) * math.factorial(p["n"] + 1), 6)


def _cor36_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return power_minus_one(n), Polynomial.from_pairs([(l, m * n - l - 1) for l in range(m * n)])


def _cor36_closed(p: Params) -> Fraction:
    return Fraction((p["m"] - 1) * math.factorial(p["n"]), 6)


# thm37: arithmetic coefficients spread over exponent step s ---------------


def _v37(n: int, s: int, m: int, a: Fraction, k: int) -> Fraction:
    return (
        6 * k * k * m * n + 6 * k * m * n**2 - 10 * k * m * m * n**2
        + m * n**3 - 5 * m * m * n**3 + 4 * m**3 * n**3
        - 6 * k * k * s + 12 * a * k * k * s - 6 * k * n * s + 12 * a * k * n * s
        + 12 * k * m * n * s - 24 * a * k * m * n * s
        - n * n * s + 2 * a * n * n * s + 6 * m * n * n * s - 12 * a * m * n * n * s
        - 5 * m * m * n * n * s + 10 * a * m * m * n * n * s
        - 2 * k * s * s + 12 * a * k * s * s - 12 * a * a * k * s * s
        - n * s * s + 6 * a * n * s * s - 6 * a * a * n * s * s
        + m * n * s * s - 6 * a * m * n * s * s + 6 * a * a * m * n * s * s
    )


def _thm37_domain(p: Params) -> str | None:
    n, s = p["n"], p["s"]
    if n % s:
        return "s must divide n"
    if n // s < 2:
        return "n/s must be at least 2"
    if p["m"] * n + 2 * p["a"] * s - s == 0:
        return "mn + 2as - s = 0: shared root at y = 1, denominator vanishes"
    return None


def _thm37_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, s, m = p["n"], p["s"], p["m"]
    return power_minus_one(n), _arith_poly(m * n // s, p["a"], step_exp=s)


def _thm37_closed(p: Params) -> Fraction:
    n, s, m, a = p["n"], p["s"], p["m"], p["a"]
    sign = -1 if n % 2 == 0 else 1
    lead = Fraction(s) ** (n - 2 * s) / (Fraction(6) ** s * (m * n + 2 * a * s - s) ** s)
    prod = Fraction(1)
    for k in range(s):
        prod *= poch(a + Fraction(n * m - n - k, s) + 1, n // s - 2) * _v37(n, s, m, a, k)
    return sign * lead * prod


# thm38/thm39: rows 1 + x + ... + x^(n-1) ----------------------------------


def _thm38_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return all_ones_poly(n), _arith_poly(m * n, p["a"])


def _thm38_closed(p: Params) -> Fraction:
    n, m, a = p["n"], p["m"], p["a"]
    sign = -1 if n % 2 == 0 else 1
    return sign * poch(a + (m - 1) * n + 1, n - 1)


def _thm39_ends(p: Params) -> tuple[int, int, int]:
    """w (mn + a - 1) and w (a - 1) at a = u / w, and w."""
    u, w = p["a"].numerator, p["a"].denominator
    return w * (p["m"] * p["n"] - 1) + u, u - w, w


def _thm39_domain(p: Params) -> str | None:
    x, y, _ = _thm39_ends(p)
    if x ** p["n"] == y ** p["n"]:
        return "(mn + a - 1)^n = (a - 1)^n: shared root, denominator vanishes"
    return None


def _thm39_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return all_ones_poly(n), _arith_poly(m * n - 1, p["a"])


def _thm39_closed(p: Params) -> Fraction:
    # The factor mn is required: the banded determinant for this family is
    # (-1)^(n-1) (1/n) (mn+a-1)^(n-1) (nm-n)_(n-1) and the resultant is
    # ((mn+a-1)^n - (a-1)^n)/(n^2 m); their quotient carries mn.  The
    # determinant engine confirms the quotient at every grid point.
    # With x = w (mn + a - 1) and y = w (a - 1) at a = u / w, the quotient is
    # mn (nm-n)_(n-1) x^(n-1) w / (x^n - y^n).
    n, m = p["n"], p["m"]
    x, y, w = _thm39_ends(p)
    sign = -1 if n % 2 == 0 else 1
    return Fraction(sign * m * n * _product(n * m - n, 1, n - 1) * x ** (n - 1) * w, x**n - y**n)


# prop40..prop43: involution-sum identities over roots of x^n - 1 ----------


def _prop40_closed(p: Params) -> Fraction:
    n = p["n"]
    return Fraction((-1) ** (n + 1) * math.factorial(n))


def _prop43_domain(p: Params) -> str | None:
    if p["n"] % 2 == 0:
        return "n must be odd (the weight has a pole at x = -1)"
    return None


_PROP_WEIGHTS: dict[str, Callable[[int, complex], complex]] = {
    "prop40": lambda n, x: (n + 1) / (2 * x),
    "prop41": lambda n, x: (n - 1) / (2 * x),
    "prop42": lambda n, x: (2 + (3 - n) * x) / (2 * x * x),
    "prop43": lambda n, x: (1 - n + (3 + n) * x) / (2 * (1 + x) * x),
}

@dataclass(frozen=True)
class InvolutionIdentityReport:
    id: str
    n: int
    value: complex
    expected: Fraction
    gap: float
    ok: bool
    tolerance: float


def involution_identity_check(
    entry_id: str, n: int, tolerance: float = 1e-7
) -> InvolutionIdentityReport:
    """Evaluate one involution-sum identity over the numeric n-th roots of unity.

    The sum runs over all involutions with pair weight 1/(x_i - x_j)^2 and the
    entry-specific fixed-point weight; it is compared against the entry's
    closed form, so an n outside the entry's domain is OutOfDomain.  The gap is |sum - constant| scaled by max(1, |constant|), or by
    n! when the constant is 0, matching how the error in a sum of n!-sized
    terms accumulates.
    """
    if entry_id not in _PROP_WEIGHTS:
        raise BadParams(f"unknown involution identity {entry_id!r}")
    expected = catalog_eval(entry_id, n=n)
    weight = _PROP_WEIGHTS[entry_id]
    from . import numeric_oracle  # only this check needs the float module
    roots = numeric_oracle.unit_roots(n)
    value = numeric_oracle.involution_weighted_sum(roots, lambda k: weight(n, roots[k]))
    scale = float(math.factorial(n)) if expected == 0 else max(1.0, abs(float(expected)))
    gap = abs(value - complex(expected)) / scale
    return InvolutionIdentityReport(entry_id, n, value, expected, gap, gap <= tolerance, tolerance)


# Readers --------------------------------------------------------------------


class _Shape:
    """One (P, Q) as the readers see it: the keys of P and Q and their degrees
    and supports.  Q itself is kept for the readers that propose its coefficients."""

    def __init__(self, P: Polynomial, Q: Polynomial):
        self.Q, self.n, self.d = Q, P.degree, Q.degree
        self.kp, self.kq = P.key, Q.key
        self.sp = tuple(e for e, c in enumerate(self.kp) if c)
        self.sq = tuple(e for e, c in enumerate(self.kq) if c)

    @functools.cached_property
    def progressions(self) -> list[tuple[Fraction, int]]:
        return _progressions(self)

    def ratio(self, e: int, f: int) -> Fraction:
        """Q's coefficient of y^e over its coefficient of y^f, read on the key."""
        return Fraction(self.kq[e], self.kq[f])


def _progressions(s: _Shape, step: int = 1) -> list[tuple[Fraction, int]]:
    """Every (a, L) for which Q's coefficients at the multiples of step are, up
    to scale, those of sum_{l<L} (l + a) y^l: one more length when the next term
    is 0.  They are read on the key; a constant Q keeps its own coefficient as a."""
    c = s.kq[::step]
    if len(c) == 1:  # L = 1 with any a, or L = 2 with a = -1
        return [(s.Q.coeff(0), 1), (Fraction(-1), 2)]
    diff = c[1] - c[0]
    if diff == 0 or any(c[l + 1] - c[l] != diff for l in range(1, len(c) - 1)):
        return []
    a = Fraction(c[0], diff)
    return [(a, len(c))] + ([(a, len(c) + 1)] if len(c) * diff + c[0] == 0 else [])


Reader = Callable[[_Shape], Iterable[Params]]
RowReader = Callable[[_Shape, int], Iterable[Params]]  # also given P's family parameter n


def _minus_one(read: RowReader) -> Reader:
    """A reader for P = x^n - 1: support {0, n} and a constant term of minus the
    lead, which on a key (primitive, lead positive) is exactly [-1, 0, ..., 0, 1]."""
    return lambda s: read(s, s.n) if s.sp == (0, s.n) and s.kp[0] == -s.kp[-1] else ()


def _all_ones(read: RowReader) -> Reader:
    """A reader for P = 1 + x + ... + x^(n-1), whose key is all ones."""
    return lambda s: read(s, s.n + 1) if set(s.kp) == {1} else ()


def _summed(terms: Iterable[tuple[int, int]], d: int) -> list[int]:
    """The coefficient list of degree d of the sum of the c y^e over terms, or []
    when some exponent e is above d."""
    out = [0] * (d + 1)
    for e, c in terms:
        if e > d:
            return []
        out[e] += c
    return out


def _when(terms: Callable[[int, int], Iterable[tuple[int, int]]],
          params: Callable[[int, int], Params]) -> Reader:
    """A reader for P = x^n - 1 and Q whose key is the sum of the c y^e over the
    (e, c) in terms(n, deg Q), which are written as primitive integers with a
    positive lead."""
    return _minus_one(lambda s, n: [params(n, s.d)] if s.kq == _summed(terms(n, s.d), s.d) else ())


def _ap(read: Callable[[int, Fraction, int], Params | bool]) -> RowReader:
    """A reader for Q an arithmetic progression; `read(n, a, L)` gives a candidate or False."""
    return lambda s, n: filter(None, (read(n, a, L) for a, L in s.progressions))


@_minus_one
def _read_thm10(s: _Shape, n: int) -> Iterator[Params]:
    residues = {e % n for e in s.sq} - {0}
    if len(residues) == 1:
        # Q's own coefficients, d // n + 1 in each vector (0 past Q's degree).
        r, end = residues.pop(), (s.d // n + 1) * n
        yield {"n": n, "r": r, "a": tuple(map(s.Q.coeff, range(0, end, n))),
               "b": tuple(map(s.Q.coeff, range(r, r + end, n)))}


@_minus_one
def _read_cor11(s: _Shape, n: int) -> Iterator[Params]:
    if all(e % n == 0 for e in s.sq):
        yield {"n": n, "a": tuple(map(s.Q.coeff, range(0, s.d + 1, n)))}


@_minus_one
def _read_cor16(s: _Shape, n: int) -> Iterator[Params]:  # and cor18, cor20
    middle = [e for e in s.sq if e not in (0, s.d)]
    if len(middle) == 1 and middle[0] % n == 0 == s.d % n:
        yield {"n": n, "m": s.d // n, "r": middle[0] // n,
               "a": s.ratio(middle[0], s.d), "b": s.ratio(0, s.d)}


@_minus_one
def _read_cor19(s: _Shape, n: int) -> Iterator[Params]:
    if s.d == 2 * n and set(s.sq) <= {0, n, 2 * n} and s.kq[0] == s.kq[-1]:
        yield {"n": n, "a": s.ratio(n, s.d)}


@_minus_one
def _read_cor21(s: _Shape, n: int) -> Iterator[Params]:
    if s.d == 2 * n and set(s.sq) <= {0, n, 2 * n} and s.kq[n] == -2 * s.kq[-1]:
        yield {"n": n, "b": s.ratio(0, s.d)}


@_minus_one
def _read_cor22(s: _Shape, n: int) -> Iterator[Params]:  # and cor23
    if s.d and set(s.sq) <= {0, s.d}:
        yield {"n": n, "m": s.d, "b": s.ratio(0, s.d)}


def _ones(key: list[int], step: int) -> bool:
    """key is 1 at every multiple of step and 0 elsewhere: sum_l x^(l step), up to scale."""
    return all(c == (e % step == 0) for e, c in enumerate(key))


def _read_cor13(s: _Shape) -> Iterator[Params]:
    if _ones(s.kp, s.n) and _ones(s.kq, s.n):
        yield {"n": s.n, "m": s.d // s.n}


def _read_cor24(s: _Shape) -> Iterator[Params]:
    step = s.sp[1]
    if _ones(s.kp, step) and _ones(s.kq, step):
        yield {"n": len(s.sp), "m": len(s.sq), "s": step}


@_all_ones
def _read_cor25(s: _Shape, n: int) -> Iterator[Params]:
    if set(s.kq) == {1}:
        yield {"n": n, "m": s.d + 1}


@_minus_one
def _read_cor28(s: _Shape, n: int) -> Iterator[Params]:  # and cor29
    others = [e for e in s.sq if e not in (0, n)]
    if n in s.sq and len(others) == 1:
        r = others[0]
        yield {"n": n, "r": r, "a": s.ratio(r, n), "b": s.ratio(0, n)}


@_minus_one
def _read_thm37(s: _Shape, n: int) -> Iterator[Params]:
    for step in range(n // 2, 0, -1):
        if n % step == 0 and all(e % step == 0 for e in s.sq):
            for a, length in _progressions(s, step):
                if length * step % n == 0:
                    yield {"n": n, "m": length * step // n, "a": a, "s": step}


_read_cor12 = _when(lambda n, d: ((e, 1) for e in range(0, d + 1, n)),
                    lambda n, d: {"n": n, "m": d // n})
_read_cor14 = _when(lambda n, d: ((l * n, l) for l in range(1, d // n + 1)),
                    lambda n, d: {"n": n, "m": d // n})
_read_cor15 = _when(lambda n, d: ((l * l * n, l) for l in range(1, math.isqrt(d // n) + 1)),
                    lambda n, d: {"n": n, "m": math.isqrt(d // n)})
_read_cor17 = _when(lambda n, d: ((0, 1), (d // n * n, 1)), lambda n, d: {"n": n, "m": d // n})
_read_cor26 = _when(lambda n, d: ((0, 1), (d, 1)), lambda n, d: {"n": n, "m": d})
_read_cor27 = _when(lambda n, d: ((0, 1), (n + 1, 1)), lambda n, d: {"n": n})
_read_cor30 = _when(lambda n, d: ((0, -1), (n, 1), (n + 1, 1)), lambda n, d: {"n": n})
_read_cor31 = _when(lambda n, d: ((0, -1), (1, n), (n, 1)), lambda n, d: {"n": n})
_read_thm32 = _minus_one(_ap(lambda n, a, L: L % n == 0 and {"n": n, "m": L // n, "a": a}))
_read_cor33 = _minus_one(_ap(lambda n, a, L: a == 0 and L % n == 0 and {"n": n, "m": L // n}))
_read_cor34 = _minus_one(_ap(lambda n, a, L: a == 1 and L % n == 0 and {"n": n, "m": L // n}))
_read_cor35 = _minus_one(_ap(lambda n, a, L: L == -a and L % n == 0 and {"n": n, "m": L // n}))
_read_cor36 = _minus_one(_ap(lambda n, a, L: L == 1 - a and L % n == 0 and {"n": n, "m": L // n}))
_read_thm38 = _all_ones(_ap(lambda n, a, L: L % n == 0 and {"n": n, "m": L // n, "a": a}))
_read_thm39 = _all_ones(_ap(lambda n, a, L: (L + 1) % n == 0
                                and {"n": n, "m": (L + 1) // n, "a": a}))


# Registry ------------------------------------------------------------------


def _no_domain(_: Params) -> str | None:
    return None


def _simple_grid(**axes: Sequence[Any]) -> tuple[Params, ...]:
    points: list[Params] = [{}]
    for name, values in axes.items():
        points = [{**p, name: v} for p in points for v in values]
    return tuple(points)


_HALF = Fraction(1, 2)


def _build_registry() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    def add(
        entry_id: str,
        kinds: tuple[tuple[str, str, int | None], ...],
        statement: str,
        domain_desc: str,
        domain_check,
        family,
        closed_form,
        raw_grid: tuple[Params, ...],
        read=None,
    ) -> CatalogEntry:
        grid = tuple(p for p in raw_grid if domain_check(p) is None)
        entries.append(
            CatalogEntry(
                entry_id, kinds, statement, domain_desc, domain_check,
                family, closed_form, grid, read,
            )
        )
        return entries[-1]

    # An entry that is another's family at fixed parameters builds its pair
    # through that family; only its domain, closed form and reader are its own.

    add(
        "thm10",
        (("n", "count", 1), ("r", "count", 1), ("a", "vector", 1), ("b", "vector", 1)),
        "PER(x^n-1, sum_l a_l y^(ln) + sum_l b_l y^(ln+r)) = -d^n prod_i N_i / (A^(n/d) - (-B)^(n/d))^d, d = gcd(n,r)",
        "len(a) = len(b); (sum a)^(n/d) != (-sum b)^(n/d)",
        _thm10_domain,
        _thm10_family,
        _thm10_closed,
        tuple(
            {"n": n, "r": r, "a": av, "b": bv}
            for n in (1, 2, 3, 4)
            for r in sorted({1, 2, 3, n + 1})
            for av, bv in (((1, 2), (1, 1)), ((2, 1), (1, -3)), ((2, 0, 1), (0, 1, 0)))
        ),
        _read_thm10,
    )
    add(
        "cor11",
        (("n", "count", 1), ("a", "vector", 1)),
        "PER(x^n-1, sum_l a_l y^(ln)) = -(-n sum(l a_l)/sum(a_l))_n",
        "sum(a_l) != 0",
        _cor11_domain,
        _cor11_family,
        _cor11_closed,
        tuple(
            {"n": n, "a": av}
            for n in (1, 2, 3, 4, 5)
            for av in ((1, 2), (2, 1, 1), (1, 0, 3), (-1, 2), (3,))
        ),
        _read_cor11,
    )
    add(
        "cor12",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, 1 + y^n + ... + y^(mn)) = -(-mn/2)_n",
        "none",
        _no_domain,
        _cor12_family,
        _cor12_closed,
        _simple_grid(n=(1, 2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor12,
    )
    add(
        "cor13",
        (("n", "count", 1), ("m", "count", 2)),
        "PER(x^n+1, 1 + y^n + ... + y^(mn)) = (-mn/2)_n for even m",
        "m even",
        _cor13_domain,
        _cor13_family,
        _cor13_closed,
        _simple_grid(n=(1, 2, 3, 4, 5), m=(2, 4)),
        _read_cor13,
    )
    add(
        "cor14",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, sum_l l y^(ln)) = -(-n(2m+1)/3)_n",
        "none",
        _no_domain,
        _cor14_family,
        _cor14_closed,
        _simple_grid(n=(1, 2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor14,
    )
    add(
        "cor15",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, sum_l l y^(l^2 n)) = -(-nm(m+1)/2)_n",
        "none",
        _no_domain,
        _cor15_family,
        _cor15_closed,
        _simple_grid(n=(1, 2, 3, 4), m=(1, 2, 3)),
        _read_cor15,
    )
    add(
        "cor16",
        (("n", "count", 1), ("m", "count", 2), ("r", "count", 1), ("a", "rational", None), ("b", "rational", None)),
        "PER(x^n-1, y^(mn) + a y^(rn) + b) = -(-(m+ra)n/(a+b+1))_n",
        "m > r >= 1; a + b + 1 != 0",
        _cor16_domain,
        _cor16_family,
        _cor16_closed,
        tuple(
            {"n": n, "m": m, "r": r, "a": Fraction(a), "b": Fraction(b)}
            for n in (1, 2, 3, 4)
            for m, r in ((2, 1), (3, 1), (3, 2), (4, 3))
            for a, b in ((1, 1), (2, -1), (-1, 1), (1, 0), (3, 2))
        ),
        _read_cor16,
    )
    add(
        "cor17",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, y^(mn) + 1) = -(-mn/2)_n",
        "none",
        _no_domain,
        lambda p: _cor22_family({"n": p["n"], "m": p["m"] * p["n"], "b": Fraction(1)}),
        _cor12_closed,
        _simple_grid(n=(1, 2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor17,
    )
    add(
        "cor18",
        (("n", "count", 1), ("m", "count", 2), ("r", "count", 1), ("a", "rational", None), ("b", "rational", None)),
        "PER(x^n-1, y^(mn) + a y^(rn) + b) = (-1)^(n+1) n! when m + ra = a + b + 1 != 0",
        "m > r >= 1; m + ra = a + b + 1 != 0",
        _cor18_domain,
        _cor16_family,
        _prop40_closed,
        tuple(
            {"n": n, "m": m, "r": r, "a": Fraction(a), "b": Fraction(m + r * a - a - 1)}
            for n in (1, 2, 3, 4)
            for m, r, a in ((2, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 3), (4, 3, 1), (2, 1, -3))
        ),
        _read_cor16,
    )
    cor19 = add(
        "cor19",
        (("n", "count", 1), ("a", "rational", None)),
        "PER(x^n-1, y^(2n) + a y^n + 1) = (-1)^(n+1) n! for a != -2",
        "a != -2",
        _cor19_domain,
        lambda p: _cor16_family({**p, "m": 2, "r": 1, "b": Fraction(1)}),
        _prop40_closed,
        tuple(
            {"n": n, "a": Fraction(a)}
            for n in (1, 2, 3, 4, 5)
            for a in (-1, 0, 1, 2, 3)
        ),
        _read_cor19,
    )
    add(
        "cor20",
        (("n", "count", 1), ("m", "count", 2), ("r", "count", 1), ("a", "rational", None), ("b", "rational", None)),
        "PER(x^n-1, y^(mn) + a y^(rn) + b) = 0 when m + ra = 0 and a + b + 1 != 0",
        "m > r >= 1; m + ra = 0; a + b + 1 != 0",
        _cor20_domain,
        _cor16_family,
        lambda p: Fraction(0),
        tuple(
            {"n": n, "m": m, "r": r, "a": Fraction(-m, r), "b": Fraction(b)}
            for n in (1, 2, 3, 4)
            for m, r in ((2, 1), (3, 1), (3, 2), (4, 3))
            for b in (0, 2, 3)
        ),
        _read_cor16,
    )
    cor21 = add(
        "cor21",
        (("n", "count", 1), ("b", "rational", None)),
        "PER(x^n-1, y^(2n) - 2 y^n + b) = 0 for b != 1",
        "b != 1",
        _cor21_domain,
        lambda p: _cor16_family({**p, "m": 2, "r": 1, "a": Fraction(-2)}),
        lambda p: Fraction(0),
        tuple(
            {"n": n, "b": Fraction(b)} for n in (1, 2, 3, 4, 5) for b in (-1, 0, 2, 3)
        ),
        _read_cor21,
    )
    add(
        "cor22",
        (("n", "count", 1), ("m", "count", 1), ("b", "rational", None)),
        "PER(x^n-1, y^m + b): gcd-indexed product quotient over (1 - (-b)^(n/d))^d, d = gcd(n,m)",
        "(-b)^(n/d) != 1",
        _cor22_domain,
        _cor22_family,
        _cor22_closed,
        tuple(
            {"n": n, "m": m, "b": Fraction(b)}
            for n in (1, 2, 3, 4, 5)
            for m in (1, 2, 3, 4)
            for b in (1, 2, -2)
        ),
        _read_cor22,
    )
    add(
        "cor23",
        (("n", "count", 1), ("m", "count", 1), ("b", "rational", None)),
        "PER(x^n-1, y^m + b) = (-1)^(n+1) m(m-1)...(m-n+1) / (1 - (-b)^n) for gcd(m,n) = 1",
        "gcd(m, n) = 1; (-b)^n != 1",
        _cor23_domain,
        _cor22_family,
        _cor23_closed,
        tuple(
            {"n": n, "m": m, "b": Fraction(b)}
            for n in (1, 2, 3, 4, 5)
            for m in (1, 2, 3, 4, 5)
            if math.gcd(m, n) == 1
            for b in (1, 2)
        ),
        _read_cor22,
    )
    add(
        "cor24",
        (("n", "count", 2), ("m", "count", 1), ("s", "count", 1)),
        "PER(1+x^s+...+x^((n-1)s), 1+y^s+...+y^((m-1)s)) = prod_i (prod_l (i+ls) - prod_l (i+ls-ms)) / (mns)^s",
        "gcd(m, n) = 1",
        _cor24_domain,
        _cor24_family,
        _cor24_closed,
        tuple(
            {"n": n, "m": m, "s": s}
            for n in (2, 3, 4)
            for m in (1, 2, 3, 4)
            if math.gcd(m, n) == 1
            for s in (1, 2, 3)
        ),
        _read_cor24,
    )
    add(
        "cor25",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(1+x+...+x^(n-1), 1+y+...+y^(m-1)) = (-1)^(n+1) (m-1)...(m-n+1) / n for gcd(m,n) = 1",
        "gcd(m, n) = 1",
        _cor24_domain,
        lambda p: _cor24_family({**p, "s": 1}),
        _cor25_closed,
        tuple(
            {"n": n, "m": m}
            for n in (2, 3, 4, 5)
            for m in (1, 2, 3, 4, 5)
            if math.gcd(m, n) == 1
        ),
        _read_cor25,
    )
    add(
        "cor26",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, y^m + 1) = m(m-1)...(m-n+1) / 2 for odd n, gcd(m,n) = 1",
        "n odd; gcd(m, n) = 1",
        _cor26_domain,
        lambda p: _cor22_family({**p, "b": Fraction(1)}),
        _cor26_closed,
        tuple(
            {"n": n, "m": m}
            for n in (1, 3, 5)
            for m in (1, 2, 3, 4, 5)
            if math.gcd(m, n) == 1
        ),
        _read_cor26,
    )
    cor27 = add(
        "cor27",
        (("n", "count", 1),),
        "PER(x^n-1, y^(n+1) + 1) = (n+1)!/2 for odd n",
        "n odd",
        _cor27_domain,
        lambda p: _cor22_family({**p, "m": p["n"] + 1, "b": Fraction(1)}),
        _cor27_closed,
        _simple_grid(n=(1, 3, 5)),
        _read_cor27,
    )
    add(
        "cor28",
        (("n", "count", 1), ("r", "count", 1), ("a", "rational", None), ("b", "rational", None)),
        "PER(x^n-1, y^n + a y^r + b): gcd-indexed product quotient over ((b+1)^(n/d) - (-a)^(n/d))^d, d = gcd(n,r)",
        "(b+1)^(n/d) != (-a)^(n/d)",
        _cor28_domain,
        _cor28_family,
        _cor28_closed,
        tuple(
            {"n": n, "r": r, "a": Fraction(a), "b": Fraction(b)}
            for n in (1, 2, 3, 4, 5)
            for r in sorted({1, 2, 3, n + 1})
            for a, b in ((1, 1), (2, 1), (1, -3), (3, 0))
        ),
        _read_cor28,
    )
    add(
        "cor29",
        (("n", "count", 1), ("r", "count", 1), ("a", "rational", None), ("b", "rational", None)),
        "PER(x^n-1, y^n + a y^r + b) = (-1)^(n+1) (prod_i (i-(n-i)b) - a^n (-r)_n) / ((b+1)^n - (-a)^n) for gcd(n,r) = 1",
        "gcd(n, r) = 1; (b+1)^n != (-a)^n",
        _cor29_domain,
        _cor28_family,
        _cor29_closed,
        tuple(
            {"n": n, "r": r, "a": Fraction(a), "b": Fraction(b)}
            for n in (1, 2, 3, 4, 5)
            for r in (1, 2, 3)
            if math.gcd(n, r) == 1
            for a, b in ((1, 1), (2, 1), (1, -3), (3, 0))
        ),
        _read_cor28,
    )
    add(
        "cor30",
        (("n", "count", 1),),
        "PER(x^n-1, y^(n+1) + y^n - 1) = n^n - (-1)^n (n+1)!",
        "none",
        _no_domain,
        _cor30_family,
        _cor30_closed,
        _simple_grid(n=(1, 2, 3, 4, 5)),
        _read_cor30,
    )
    cor31 = add(
        "cor31",
        (("n", "count", 1),),
        "PER(x^n-1, y^n + n y - 1) = 1 for n >= 2",
        "n >= 2",
        _cor31_domain,
        lambda p: _cor28_family({**p, "r": 1, "a": Fraction(p["n"]), "b": Fraction(-1)}),
        lambda p: Fraction(1),
        _simple_grid(n=(2, 3, 4, 5)),
        _read_cor31,
    )
    add(
        "thm32",
        (("n", "count", 2), ("m", "count", 1), ("a", "rational", None)),
        "PER(x^n-1, sum_{l<mn} (l+a) y^l) = (-1)^(n-1) n(m-1) V(a,m) (a+(m-1)n+1)_(n-2) / (6(mn+2a-1))",
        "mn + 2a - 1 != 0",
        _thm32_domain,
        lambda p: _thm37_family({**p, "s": 1}),
        _thm32_closed,
        tuple(
            {"n": n, "m": m, "a": Fraction(a)}
            for n in (2, 3, 4, 5)
            for m in (1, 2, 3)
            for a in (0, 1, -1, _HALF)
        ),
        _read_thm32,
    )
    add(
        "cor33",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(x^n-1, sum_{l<mn} l y^l) = (-1)^(n-1) (4mn-n-1)(mn-n)_(n-1) / 6",
        "none",
        _no_domain,
        lambda p: _thm37_family({**p, "s": 1, "a": Fraction(0)}),
        _cor33_closed,
        _simple_grid(n=(2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor33,
    )
    add(
        "cor34",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(x^n-1, sum_{l<mn} (l+1) y^l) = (-1)^(n-1) (4mn-n+1)(mn-n)(mn-n+2)_(n-2) / 6",
        "none",
        _no_domain,
        lambda p: _thm37_family({**p, "s": 1, "a": Fraction(1)}),
        _cor34_closed,
        _simple_grid(n=(2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor34,
    )
    add(
        "cor35",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(x^n-1, sum_{l<mn} (mn-l) y^l) = (m-1)(n+1)!/6",
        "none",
        _no_domain,
        _cor35_family,
        _cor35_closed,
        _simple_grid(n=(2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor35,
    )
    add(
        "cor36",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(x^n-1, sum_{l<mn} (mn-l-1) y^l) = (m-1) n!/6",
        "none",
        _no_domain,
        _cor36_family,
        _cor36_closed,
        _simple_grid(n=(2, 3, 4, 5), m=(1, 2, 3, 4)),
        _read_cor36,
    )
    add(
        "thm37",
        (("n", "count", 2), ("m", "count", 1), ("a", "rational", None), ("s", "count", 1)),
        "PER(x^n-1, sum_{l<mn/s} (l+a) y^(ls)): s-fold product of V terms over 6^s (mn+2as-s)^s",
        "s | n; n/s >= 2; mn + 2as - s != 0",
        _thm37_domain,
        _thm37_family,
        _thm37_closed,
        tuple(
            {"n": n, "s": s, "m": m, "a": Fraction(a)}
            for n in (2, 3, 4, 5)
            for s in (1, 2)
            if n % s == 0 and n // s >= 2
            for m in (1, 2, 3)
            for a in (0, 1, _HALF)
        ),
        _read_thm37,
    )
    add(
        "thm38",
        (("n", "count", 2), ("m", "count", 1), ("a", "rational", None)),
        "PER(1+x+...+x^(n-1), sum_{l<mn} (l+a) y^l) = (-1)^(n-1) (a+(m-1)n+1)_(n-1)",
        "none",
        _no_domain,
        _thm38_family,
        _thm38_closed,
        tuple(
            {"n": n, "m": m, "a": Fraction(a)}
            for n in (2, 3, 4, 5)
            for m in (1, 2, 3)
            for a in (0, 1, -1, _HALF)
        ),
        _read_thm38,
    )
    add(
        "thm39",
        (("n", "count", 2), ("m", "count", 1), ("a", "rational", None)),
        "PER(1+x+...+x^(n-1), sum_{l<mn-1} (l+a) y^l) = (-1)^(n-1) mn (nm-n)_(n-1)(nm+a-1)^(n-1) / ((mn+a-1)^n - (a-1)^n)",
        "(mn + a - 1)^n != (a - 1)^n",
        _thm39_domain,
        _thm39_family,
        _thm39_closed,
        tuple(
            {"n": n, "m": m, "a": Fraction(a)}
            for n in (2, 3, 4, 5)
            for m in (1, 2, 3)
            for a in (0, 1, -1, _HALF)
        ),
        _read_thm39,
    )

    add(
        "prop40",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1, fixed weight (n+1)/(2x) = (-1)^(n+1) n!",
        "none",
        _no_domain,
        lambda p: cor19.family({**p, "a": Fraction(1)}),
        _prop40_closed,
        _simple_grid(n=(2, 3, 4, 5)),
    )
    add(
        "prop41",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1, fixed weight (n-1)/(2x) = 0",
        "none",
        _no_domain,
        lambda p: cor21.family({**p, "b": Fraction(0)}),
        lambda p: Fraction(0),
        _simple_grid(n=(2, 3, 4, 5)),
    )
    add(
        "prop42",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1, fixed weight (2+(3-n)x)/(2x^2) = 1 for n >= 2",
        "n >= 2",
        _cor31_domain,
        cor31.family,
        lambda p: Fraction(1),
        _simple_grid(n=(2, 3, 4, 5)),
    )
    add(
        "prop43",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1 (n odd), fixed weight (1-n+(3+n)x)/(2(1+x)x) = (n+1)!/2",
        "n odd",
        _prop43_domain,
        cor27.family,
        _cor27_closed,
        _simple_grid(n=(3, 5)),
    )

    return {entry.id: entry for entry in entries}


_REGISTRY = _build_registry()


def catalog_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(_REGISTRY.values())


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise BadParams(f"unknown catalog entry {entry_id!r}") from None


def _checked(entry_id: str, params: Mapping[str, Any]) -> tuple[CatalogEntry, Params]:
    """The entry and its validated params, OutOfDomain outside its domain."""
    entry = get_entry(entry_id)
    clean = _validate(entry.id, entry.param_kinds, params)
    reason = entry.domain_check(clean)
    if reason is not None:
        raise OutOfDomain(f"{entry_id}: {reason}")
    return entry, clean


def catalog_eval(entry_id: str, **params: Any) -> Fraction:
    """Exact value of one catalog identity at a parameter point."""
    entry, clean = _checked(entry_id, params)
    return entry.closed_form(clean)


def catalog_family(entry_id: str, **params: Any) -> tuple[Polynomial, Polynomial]:
    """The concrete (P, Q) pair of one catalog identity at a parameter point."""
    entry, clean = _checked(entry_id, params)
    return entry.family(clean)


def _infer(entry: CatalogEntry, shape: _Shape) -> Params | None:
    # No family has a constant or one-term P or a zero Q; readers may index P's support.
    if entry.read is None or len(shape.sp) < 2 or not shape.sq:
        return None
    for raw in entry.read(shape):
        try:
            params = _validate(entry.id, entry.param_kinds, raw)
        except BadParams:
            continue
        fp, fq = entry.family(params)
        if fp.key == shape.kp and fq.key == shape.kq:
            return params
    return None


def iter_matching(P: Polynomial, Q: Polynomial) -> Iterator[tuple[str, Params]]:
    """The catalog entries whose family contains (P, Q), in catalog order, each
    with its parameters; entries whose domain excludes them are left out.

    Matching is up to scalar multiples of P and Q, since the permanent
    depends only on the zero sets.  Each entry is read only when the next
    match is asked for, so a caller that wants the first match stops there.
    """
    shape = _Shape(P, Q)
    for entry in _REGISTRY.values():
        params = _infer(entry, shape)
        if params is not None and entry.domain_check(params) is None:
            yield entry.id, params


def find_matching(P: Polynomial, Q: Polynomial) -> list[tuple[str, Params]]:
    """Every match of `iter_matching`, as a list."""
    return list(iter_matching(P, Q))

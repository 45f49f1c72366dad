"""Closed-form catalog of permanents per(1/(x_i - y_j)) over polynomial root sets.

Each entry names a parametrized family (P, Q), a domain predicate, and the
exact closed form of the permanent.  Entries are enumerable metadata, so the
whole catalog can be swept against the determinant engine, matched against a
parsed (P, Q) pair, or listed by the command line.

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
* The prop42 fixed-point weight is derived from the underlying permanent
  family 1/(x_i - y_j) with Q = y^n + n y - 1 via the involution expansion:
  (2 + (3-n) x) / (2 x^2).  The commonly printed weight (2n+(n+1)x)/(2x^2)
  agrees only at n = 1 and fails numerically for every n >= 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .errors import BadParams, OutOfDomain
from .exact_core import Polynomial
from .fes_engine import RowFamily, all_ones_poly, classify_row_polynomial, power_minus_one

Params = dict[str, Any]


@dataclass(frozen=True)
class ShiftedFactorial:
    """Rising factorial (base)(base+1)...(base+length-1); empty product is 1."""

    base: Fraction
    length: int

    @property
    def value(self) -> Fraction:
        if self.length < 0:
            raise BadParams("length must be nonnegative")
        out = Fraction(1)
        for t in range(self.length):
            out *= self.base + t
        return out


def poch(base: Fraction | int, length: int) -> Fraction:
    """Shifted factorial (base)_length."""
    return ShiftedFactorial(Fraction(base), length).value


def falling(base: Fraction | int, length: int) -> Fraction:
    """Falling product base(base-1)...(base-length+1)."""
    out = Fraction(1)
    for t in range(length):
        out *= Fraction(base) - t
    return out


def power_plus_one(n: int) -> Polynomial:
    """x^n + 1."""
    if n < 1:
        raise BadParams("n must be at least 1")
    return Polynomial.from_pairs([(0, 1), (n, 1)])


@dataclass(frozen=True)
class RowMatcher:
    """Parameter inference for an entry whose P is one of the fes row families.

    Called as infer(P, Q), it recognizes P itself.  `find_matching`
    recognizes P once for all entries and calls `match` instead.
    `read_q(n, Q)` gets the family parameter n and reads the remaining
    parameters off Q.
    """

    family: RowFamily
    read_q: Callable[[int, Polynomial], Params | None]

    def __call__(self, P: Polynomial, Q: Polynomial) -> Params | None:
        return self.match(classify_row_polynomial(P), Q)

    def match(self, row: tuple[RowFamily, int] | None, Q: Polynomial) -> Params | None:
        """Parameters from P's recognized row family (None if P is in none) and Q."""
        if row is None or row[0] is not self.family:
            return None
        return self.read_q(row[1], Q)


@dataclass(frozen=True)
class CatalogEntry:
    """One closed-form identity, packaged as enumerable metadata."""

    id: str
    param_kinds: tuple[tuple[str, str, int | None], ...]  # (name, kind, minimum)
    statement: str
    domain_desc: str
    domain_check: Callable[[Params], str | None]
    family: Callable[[Params], tuple[Polynomial, Polynomial]]
    closed_form: Callable[[Params], Fraction]
    grid: tuple[Params, ...]
    infer: Callable[[Polynomial, Polynomial], Params | None] | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.param_kinds)


def _validate(entry: CatalogEntry, params: Mapping[str, Any]) -> Params:
    known = {name: (kind, minimum) for name, kind, minimum in entry.param_kinds}
    unknown = set(params) - set(known)
    if unknown:
        raise BadParams(f"{entry.id}: unknown parameter(s) {sorted(unknown)}")
    out: Params = {}
    for name, (kind, minimum) in known.items():
        if name not in params:
            raise BadParams(f"{entry.id}: missing parameter {name!r}")
        value = params[name]
        if kind == "count":
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise BadParams(f"{entry.id}: {name} must be an integer >= {minimum}")
            out[name] = value
        elif kind == "rational":
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise BadParams(f"{entry.id}: {name} must be an int or Fraction")
            out[name] = Fraction(value)
        elif kind == "vector":
            try:
                vec = tuple(Fraction(v) for v in value)
            except (TypeError, ValueError):
                raise BadParams(f"{entry.id}: {name} must be a sequence of rationals") from None
            if len(vec) < minimum:
                raise BadParams(f"{entry.id}: {name} needs at least {minimum} entries")
            out[name] = vec
        else:  # pragma: no cover - registry construction error
            raise BadParams(f"{entry.id}: bad parameter kind {kind!r}")
    return out


# Family builders shared by several entries.


def _block_poly(pairs: Sequence[tuple[int, Fraction | int]]) -> Polynomial:
    return Polynomial.from_pairs(pairs)


def _arith_poly(length: int, a: Fraction, step_exp: int = 1) -> Polynomial:
    """sum_{l=0}^{length-1} (l + a) y^(l * step_exp)."""
    return Polynomial.from_pairs((l * step_exp, l + a) for l in range(length))


# thm10 ---------------------------------------------------------------------


def _thm10_core(n: int, r: int, av: tuple[Fraction, ...], bv: tuple[Fraction, ...]) -> tuple[int, int, Fraction, Fraction]:
    d = math.gcd(n, r)
    return d, n // d, sum(av, Fraction(0)), sum(bv, Fraction(0))


def _thm10_domain(p: Params) -> str | None:
    if len(p["a"]) != len(p["b"]):
        return "coefficient vectors a and b must have equal length"
    d, q, A, B = _thm10_core(p["n"], p["r"], p["a"], p["b"])
    if A**q == (-B) ** q:
        return "(sum a)^(n/d) = (-sum b)^(n/d): shared root, denominator vanishes"
    return None


def _thm10_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, r = p["n"], p["r"]
    pairs = [(l * n, c) for l, c in enumerate(p["a"])]
    pairs += [(l * n + r, c) for l, c in enumerate(p["b"])]
    return power_minus_one(n), _block_poly(pairs)


def _thm10_closed(p: Params) -> Fraction:
    n, r, av, bv = p["n"], p["r"], p["a"], p["b"]
    d, q, A, B = _thm10_core(n, r, av, bv)
    numerator = Fraction(1)
    for i in range(1, d + 1):
        s_i = sum((Fraction(i - n * l - 1)) * av[l] for l in range(len(av)))
        t_i = sum((Fraction(i - r - n * l - 1)) * bv[l] for l in range(len(bv)))
        left = Fraction(1)
        right = Fraction(1)
        for t in range(q):
            left *= s_i / d + t * A
            right *= t_i / d + t * B
        numerator *= left - (-1) ** q * right
    return -(Fraction(d) ** n) * numerator / (A**q - (-B) ** q) ** d


def _thm10_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree is None:
        return None
    support = [e for e in range(Q.degree + 1) if Q.coeff(e) != 0]
    residues = {e % n for e in support}
    nonzero = residues - {0}
    if len(nonzero) != 1:
        return None
    r = nonzero.pop()
    top = max((e - (r if e % n == r else 0)) // n for e in support)
    av = tuple(Q.coeff(l * n) for l in range(top + 1))
    bv = tuple(Q.coeff(l * n + r) for l in range(top + 1))
    return {"n": n, "r": r, "a": av, "b": bv}


# cor11 ---------------------------------------------------------------------


def _cor11_domain(p: Params) -> str | None:
    if sum(p["a"], Fraction(0)) == 0:
        return "sum of the coefficients a_l must be nonzero (shared root at a root of unity)"
    return None


def _cor11_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), _block_poly([(l * n, c) for l, c in enumerate(p["a"])])


def _cor11_closed(p: Params) -> Fraction:
    n, av = p["n"], p["a"]
    A = sum(av, Fraction(0))
    weighted = sum(Fraction(l) * av[l] for l in range(len(av)))
    return -poch(-n * weighted / A, n)


def _cor11_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree is None:
        return None
    if any(Q.coeff(e) != 0 and e % n for e in range(Q.degree + 1)):
        return None
    av = tuple(Q.coeff(l * n) for l in range(Q.degree // n + 1))
    return {"n": n, "a": av}


# Geometric-block families cor12..cor21 ------------------------------------


def _geometric_q(n: int, m: int, weight: Callable[[int], Fraction | int] = lambda l: 1,
                 exponent: Callable[[int], int] | None = None) -> Polynomial:
    exp = exponent or (lambda l: l * n)
    return _block_poly([(exp(l), weight(l)) for l in range(m + 1)])


def _cor12_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _geometric_q(p["n"], p["m"])


def _cor12_closed(p: Params) -> Fraction:
    return -poch(Fraction(-p["m"] * p["n"], 2), p["n"])


def _cor12_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree is None or Q.degree == 0 or Q.degree % n:
        return None
    m = Q.degree // n
    if Q.monic() == _geometric_q(n, m):
        return {"n": n, "m": m}
    return None


def _cor13_domain(p: Params) -> str | None:
    if p["m"] % 2:
        return "m must be even (odd m shares a root with x^n + 1)"
    return None


def _cor13_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_plus_one(p["n"]), _geometric_q(p["n"], p["m"])


def _cor13_closed(p: Params) -> Fraction:
    return poch(Fraction(-p["m"] * p["n"], 2), p["n"])


def _cor13_infer(P: Polynomial, Q: Polynomial) -> Params | None:
    n = _as_power_plus_one(P)
    if n is None or Q.degree is None or Q.degree == 0 or Q.degree % n:
        return None
    m = Q.degree // n
    if m % 2 == 0 and Q.monic() == _geometric_q(n, m):
        return {"n": n, "m": m}
    return None


def _cor14_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _geometric_q(p["n"], p["m"], weight=lambda l: l)


def _cor14_closed(p: Params) -> Fraction:
    return -poch(Fraction(-p["n"] * (2 * p["m"] + 1), 3), p["n"])


def _cor14_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree is None or Q.degree == 0 or Q.degree % n:
        return None
    m = Q.degree // n
    if m >= 1 and Q.monic() == _geometric_q(n, m, weight=lambda l: l).monic():
        return {"n": n, "m": m}
    return None


def _cor15_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), _geometric_q(
        n, p["m"], weight=lambda l: l, exponent=lambda l: l * l * n
    )


def _cor15_closed(p: Params) -> Fraction:
    return -poch(Fraction(-p["n"] * p["m"] * (p["m"] + 1), 2), p["n"])


def _cor15_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree is None or Q.degree == 0 or Q.degree % n:
        return None
    square = Q.degree // n
    m = math.isqrt(square)
    if m * m != square or m < 1:
        return None
    target = _geometric_q(n, m, weight=lambda l: l, exponent=lambda l: l * l * n)
    if Q.monic() == target.monic():
        return {"n": n, "m": m}
    return None


def _trinomial_q(n: int, m: int, r: int, a: Fraction, b: Fraction) -> Polynomial:
    return _block_poly([(m * n, 1), (r * n, a), (0, b)])


def _cor16_domain(p: Params) -> str | None:
    if p["r"] >= p["m"]:
        return "need m > r >= 1"
    if p["a"] + p["b"] + 1 == 0:
        return "a + b + 1 = 0: shared root, denominator vanishes"
    return None


def _cor16_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _trinomial_q(p["n"], p["m"], p["r"], p["a"], p["b"])


def _cor16_closed(p: Params) -> Fraction:
    base = -(p["m"] + p["r"] * p["a"]) * p["n"] / (p["a"] + p["b"] + 1)
    return -poch(base, p["n"])


def _trinomial_parts(n: int, Q: Polynomial) -> tuple[int, int, int, Fraction, Fraction] | None:
    """Match Q (up to scale) to y^(m n) + a y^(r n) + b; returns (n, m, r, a, b)."""
    if Q.degree is None or Q.degree == 0 or Q.degree % n:
        return None
    monic = Q.monic()
    m = monic.degree // n
    support = [e for e in range(monic.degree) if monic.coeff(e) != 0]
    middle = [e for e in support if e != 0]
    if len(middle) != 1 or middle[0] % n:
        return None
    r = middle[0] // n
    if not 1 <= r < m:
        return None
    return n, m, r, monic.coeff(middle[0]), monic.coeff(0)


def _cor16_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _trinomial_parts(n, Q)
    if parts is None:
        return None
    n, m, r, a, b = parts
    return {"n": n, "m": m, "r": r, "a": a, "b": b}


def _cor17_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _block_poly([(p["m"] * p["n"], 1), (0, 1)])


def _cor17_infer(n: int, Q: Polynomial) -> Params | None:
    two = _two_term(Q)
    if two is None:
        return None
    M, b = two
    if b == 1 and M % n == 0 and M // n >= 1:
        return {"n": n, "m": M // n}
    return None


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


def _cor18_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _trinomial_parts(n, Q)
    if parts is None:
        return None
    n, m, r, a, b = parts
    if m + r * a == a + b + 1 != 0:
        return {"n": n, "m": m, "r": r, "a": a, "b": b}
    return None


def _cor19_domain(p: Params) -> str | None:
    if p["a"] == -2:
        return "a = -2: Q = (y^n - 1)^2 shares every root with x^n - 1"
    return None


def _cor19_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _trinomial_q(p["n"], 2, 1, p["a"], Fraction(1))


def _cor19_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _trinomial_parts(n, Q)
    if parts is None:
        return None
    n, m, r, a, b = parts
    if m == 2 and r == 1 and b == 1 and a != -2:
        return {"n": n, "a": a}
    return None


def _cor20_domain(p: Params) -> str | None:
    if p["r"] >= p["m"]:
        return "need m > r >= 1"
    if p["m"] + p["r"] * p["a"] != 0:
        return "requires m + r a = 0"
    if p["a"] + p["b"] + 1 == 0:
        return "a + b + 1 = 0: shared root, denominator vanishes"
    return None


def _cor20_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _trinomial_parts(n, Q)
    if parts is None:
        return None
    n, m, r, a, b = parts
    if m + r * a == 0 and a + b + 1 != 0:
        return {"n": n, "m": m, "r": r, "a": a, "b": b}
    return None


def _cor21_domain(p: Params) -> str | None:
    if p["b"] == 1:
        return "b = 1: Q = (y^n - 1)^2 shares every root with x^n - 1"
    return None


def _cor21_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _trinomial_q(p["n"], 2, 1, Fraction(-2), p["b"])


def _cor21_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _trinomial_parts(n, Q)
    if parts is None:
        return None
    n, m, r, a, b = parts
    if m == 2 and r == 1 and a == -2 and b != 1:
        return {"n": n, "b": b}
    return None


# cor22/cor23: binomial Q of arbitrary degree ------------------------------


def _cor22_domain(p: Params) -> str | None:
    q = p["n"] // math.gcd(p["n"], p["m"])
    if (-p["b"]) ** q == 1:
        return "(-b)^(n/d) = 1: shared root, denominator vanishes"
    return None


def _cor22_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _block_poly([(p["m"], 1), (0, p["b"])])


def _cor22_closed(p: Params) -> Fraction:
    n, m, b = p["n"], p["m"], p["b"]
    d = math.gcd(n, m)
    q = n // d
    numerator = Fraction(1)
    for i in range(1, d + 1):
        numerator *= poch(Fraction(i - m - 1, d), q) - (-b) ** q * poch(Fraction(i - 1, d), q)
    return -(Fraction(d) ** n) * numerator / (1 - (-b) ** q) ** d


def _two_term(Q: Polynomial) -> tuple[int, Fraction] | None:
    """Match Q (up to scale) to y^M + b with M >= 1; returns (M, b)."""
    if Q.degree is None or Q.degree < 1:
        return None
    monic = Q.monic()
    if any(monic.coeff(e) != 0 for e in range(1, monic.degree)):
        return None
    return monic.degree, monic.coeff(0)


def _cor22_infer(n: int, Q: Polynomial) -> Params | None:
    two = _two_term(Q)
    if two is None:
        return None
    m, b = two
    return {"n": n, "m": m, "b": b}


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


def _cor23_infer(n: int, Q: Polynomial) -> Params | None:
    params = _cor22_infer(n, Q)
    if params is None or math.gcd(params["m"], params["n"]) != 1:
        return None
    return params


# cor24/cor25: all-ones against all-ones -----------------------------------


def _cor24_domain(p: Params) -> str | None:
    if math.gcd(p["m"], p["n"]) != 1:
        return "requires gcd(m, n) = 1"
    return None


def _spread_ones(count: int, s: int) -> Polynomial:
    return _block_poly([(l * s, 1) for l in range(count)])


def _cor24_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return _spread_ones(p["n"], p["s"]), _spread_ones(p["m"], p["s"])


def _cor24_closed(p: Params) -> Fraction:
    n, m, s = p["n"], p["m"], p["s"]
    total = Fraction(1)
    for i in range(s):
        plus = Fraction(1)
        minus = Fraction(1)
        for l in range(n):
            plus *= i + l * s
            minus *= i + l * s - m * s
        total *= plus - minus
    return total / Fraction(m * n * s) ** s


def _spread_ones_parts(R: Polynomial) -> tuple[int, int] | None:
    """Match R (up to scale) to 1 + x^s + ... + x^((k-1)s); returns (k, s)."""
    if R.degree is None:
        return None
    if R.degree == 0:
        return None
    monic = R.monic()
    support = [e for e in range(monic.degree + 1) if monic.coeff(e) != 0]
    s = support[1] if len(support) > 1 else monic.degree
    if any(monic.coeff(e) != 1 for e in support):
        return None
    if support != [l * s for l in range(len(support))] or support[-1] != monic.degree:
        return None
    return len(support), s


def _cor24_infer(P: Polynomial, Q: Polynomial) -> Params | None:
    p_parts = _spread_ones_parts(P)
    if p_parts is None:
        return None
    n, s = p_parts
    if n < 2:
        return None
    if Q.degree == 0:
        if Q.monic() == Polynomial([1]):
            return {"n": n, "m": 1, "s": s} if math.gcd(1, n) == 1 else None
        return None
    q_parts = _spread_ones_parts(Q)
    if q_parts is None or q_parts[1] != s:
        return None
    m = q_parts[0]
    if math.gcd(m, n) != 1:
        return None
    return {"n": n, "m": m, "s": s}


def _cor25_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return all_ones_poly(p["n"]), _spread_ones(p["m"], 1)


def _cor25_closed(p: Params) -> Fraction:
    n, m = p["n"], p["m"]
    sign = -1 if n % 2 == 0 else 1
    return sign * falling(m - 1, n - 1) / n


def _cor25_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree == 0:
        m = 1
    else:
        q_parts = _spread_ones_parts(Q)
        if q_parts is None or q_parts[1] != 1:
            return None
        m = q_parts[0]
    if math.gcd(m, n) != 1:
        return None
    return {"n": n, "m": m}


# cor26/cor27: odd n, binomial y^m + 1 -------------------------------------


def _cor26_domain(p: Params) -> str | None:
    if p["n"] % 2 == 0:
        return "n must be odd"
    if math.gcd(p["m"], p["n"]) != 1:
        return "requires gcd(m, n) = 1"
    return None


def _cor26_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _block_poly([(p["m"], 1), (0, 1)])


def _cor26_closed(p: Params) -> Fraction:
    return falling(p["m"], p["n"]) / 2


def _cor26_infer(n: int, Q: Polynomial) -> Params | None:
    params = _cor22_infer(n, Q)
    if params is None or params["b"] != 1:
        return None
    n, m = params["n"], params["m"]
    if n % 2 == 0 or math.gcd(m, n) != 1:
        return None
    return {"n": n, "m": m}


def _cor27_domain(p: Params) -> str | None:
    if p["n"] % 2 == 0:
        return "n must be odd"
    return None


def _cor27_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _block_poly([(p["n"] + 1, 1), (0, 1)])


def _cor27_closed(p: Params) -> Fraction:
    return Fraction(math.factorial(p["n"] + 1), 2)


def _cor27_infer(n: int, Q: Polynomial) -> Params | None:
    params = _cor26_infer(n, Q)
    if params is None or params["m"] != params["n"] + 1:
        return None
    return {"n": params["n"]}


# cor28..cor31: square-ish trinomials y^n + a y^r + b ----------------------


def _cor28_domain(p: Params) -> str | None:
    q = p["n"] // math.gcd(p["n"], p["r"])
    if (p["b"] + 1) ** q == (-p["a"]) ** q:
        return "(b+1)^(n/d) = (-a)^(n/d): shared root, denominator vanishes"
    return None


def _cor28_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, r = p["n"], p["r"]
    return power_minus_one(n), _block_poly([(n, 1), (r, p["a"]), (0, p["b"])])


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


def _square_trinomial_parts(n: int, Q: Polynomial) -> tuple[int, int, Fraction, Fraction] | None:
    """Match Q (up to scale) to y^n + a y^r + b with n = deg P; returns (n, r, a, b)."""
    if Q.degree is None or Q.degree < 1:
        return None
    if Q.coeff(n) == 0:
        return None
    scale = Q.coeff(n)
    support = [e for e in range(Q.degree + 1) if Q.coeff(e) != 0 and e not in (0, n)]
    if len(support) > 1:
        return None
    if not support:
        return None  # plain binomial: cor22 territory
    r = support[0]
    return n, r, Q.coeff(r) / scale, Q.coeff(0) / scale


def _cor28_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _square_trinomial_parts(n, Q)
    if parts is None:
        return None
    n, r, a, b = parts
    return {"n": n, "r": r, "a": a, "b": b}


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


def _cor29_infer(n: int, Q: Polynomial) -> Params | None:
    params = _cor28_infer(n, Q)
    if params is None or math.gcd(params["n"], params["r"]) != 1:
        return None
    return params


def _cor30_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), _block_poly([(n + 1, 1), (n, 1), (0, -1)])


def _cor30_closed(p: Params) -> Fraction:
    n = p["n"]
    return Fraction(n) ** n - (-1) ** n * math.factorial(n + 1)


def _cor30_infer(n: int, Q: Polynomial) -> Params | None:
    params = _cor28_infer(n, Q)
    if params and params["r"] == params["n"] + 1 and params["a"] == 1 and params["b"] == -1:
        return {"n": params["n"]}
    return None


def _cor31_domain(p: Params) -> str | None:
    if p["n"] < 2:
        return "n >= 2 required (at n = 1 the permanent is 2, not 1)"
    return None


def _cor31_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n = p["n"]
    return power_minus_one(n), _block_poly([(n, 1), (1, n), (0, -1)])


def _cor31_infer(n: int, Q: Polynomial) -> Params | None:
    params = _cor28_infer(n, Q)
    if (
        params
        and params["n"] >= 2
        and params["r"] == 1
        and params["a"] == params["n"]
        and params["b"] == -1
    ):
        return {"n": params["n"]}
    return None


# thm32 family: arithmetic-progression coefficients ------------------------


def _v32(n: int, m: int, a: Fraction) -> Fraction:
    return (
        1 - 6 * a + 6 * a * a + n - 2 * a * n - 5 * m * n + 10 * a * m * n
        - m * n * n + 4 * m * m * n * n
    )


def _thm32_domain(p: Params) -> str | None:
    if p["m"] * p["n"] + 2 * p["a"] - 1 == 0:
        return "mn + 2a - 1 = 0: shared root at y = 1, denominator vanishes"
    return None


def _thm32_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return power_minus_one(n), _arith_poly(m * n, p["a"])


def _thm32_closed(p: Params) -> Fraction:
    n, m, a = p["n"], p["m"], p["a"]
    sign = -1 if n % 2 == 0 else 1
    lead = Fraction(n * (m - 1)) * _v32(n, m, a) / (6 * (m * n + 2 * a - 1))
    return sign * lead * poch(a + (m - 1) * n + 1, n - 2)


def _arith_parts(Q: Polynomial) -> tuple[Fraction, Fraction, tuple[int, ...]] | None:
    """Match Q to scale * sum (l + a) y^l; returns (scale, a, candidate lengths)."""
    if Q.degree is None or Q.degree < 1:
        return None
    scale = Q.coeff(1) - Q.coeff(0)
    if scale == 0:
        return None
    a = Q.coeff(0) / scale
    for l in range(Q.degree + 1):
        if Q.coeff(l) != scale * (l + a):
            return None
    lengths = [Q.degree + 1]
    if Q.degree + 1 + a == 0:
        lengths.append(Q.degree + 2)
    return scale, a, tuple(lengths)


def _thm32_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _arith_parts(Q)
    if parts is None:
        return None
    _, a, lengths = parts
    for length in lengths:
        if length % n == 0 and length // n >= 1:
            return {"n": n, "m": length // n, "a": a}
    return None


def _cor33_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _arith_poly(p["m"] * p["n"], Fraction(0))


def _cor33_closed(p: Params) -> Fraction:
    n, m = p["n"], p["m"]
    sign = -1 if n % 2 == 0 else 1
    return sign * Fraction(4 * m * n - n - 1, 6) * poch(m * n - n, n - 1)


def _cor33_infer(n: int, Q: Polynomial) -> Params | None:
    params = _thm32_infer(n, Q)
    if params is None or params["a"] != 0:
        return None
    return {"n": params["n"], "m": params["m"]}


def _cor34_family(p: Params) -> tuple[Polynomial, Polynomial]:
    return power_minus_one(p["n"]), _arith_poly(p["m"] * p["n"], Fraction(1))


def _cor34_closed(p: Params) -> Fraction:
    n, m = p["n"], p["m"]
    sign = -1 if n % 2 == 0 else 1
    return sign * Fraction(4 * m * n - n + 1, 6) * (m * n - n) * poch(m * n - n + 2, n - 2)


def _cor34_infer(n: int, Q: Polynomial) -> Params | None:
    params = _thm32_infer(n, Q)
    if params is None or params["a"] != 1:
        return None
    return {"n": params["n"], "m": params["m"]}


def _cor35_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return power_minus_one(n), _block_poly([(l, m * n - l) for l in range(m * n)])


def _cor35_closed(p: Params) -> Fraction:
    return Fraction((p["m"] - 1) * math.factorial(p["n"] + 1), 6)


def _cor35_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _arith_parts(Q)
    if parts is None:
        return None
    _, a, lengths = parts
    # Descending weights mn - l correspond to a = -mn with full length mn.
    if a >= 0 or Fraction(-a).denominator != 1:
        return None
    mn = int(-a)
    if mn in lengths and mn % n == 0 and mn // n >= 1:
        return {"n": n, "m": mn // n}
    return None


def _cor36_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return power_minus_one(n), _block_poly([(l, m * n - l - 1) for l in range(m * n)])


def _cor36_closed(p: Params) -> Fraction:
    return Fraction((p["m"] - 1) * math.factorial(p["n"]), 6)


def _cor36_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _arith_parts(Q)
    if parts is None:
        return None
    _, a, lengths = parts
    # Weights mn - l - 1 correspond to a = 1 - mn with stored degree mn - 2.
    if a >= 0 or Fraction(1 - a).denominator != 1:
        return None
    mn = int(1 - a)
    if (mn - 1) in lengths and mn % n == 0 and mn // n >= 1:
        return {"n": n, "m": mn // n}
    return None


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


def _thm37_infer(n: int, Q: Polynomial) -> Params | None:
    if Q.degree is None or Q.degree < 1:
        return None
    divisors = [s for s in range(n, 0, -1) if n % s == 0 and n // s >= 2]
    for s in divisors:
        if any(Q.coeff(e) != 0 and e % s for e in range(Q.degree + 1)):
            continue
        compressed = Polynomial(Q.coeff(l * s) for l in range(Q.degree // s + 1))
        parts = _arith_parts(compressed)
        if parts is None:
            continue
        _, a, lengths = parts
        for length in lengths:
            if (length * s) % n == 0 and (length * s) // n >= 1:
                return {"n": n, "s": s, "m": (length * s) // n, "a": a}
    return None


# thm38/thm39: rows 1 + x + ... + x^(n-1) ----------------------------------


def _thm38_family(p: Params) -> tuple[Polynomial, Polynomial]:
    n, m = p["n"], p["m"]
    return all_ones_poly(n), _arith_poly(m * n, p["a"])


def _thm38_closed(p: Params) -> Fraction:
    n, m, a = p["n"], p["m"], p["a"]
    sign = -1 if n % 2 == 0 else 1
    return sign * poch(a + (m - 1) * n + 1, n - 1)


def _thm38_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _arith_parts(Q)
    if parts is None:
        return None
    _, a, lengths = parts
    for length in lengths:
        if length % n == 0 and length // n >= 1:
            return {"n": n, "m": length // n, "a": a}
    return None


def _thm39_domain(p: Params) -> str | None:
    n, m, a = p["n"], p["m"], p["a"]
    if (m * n + a - 1) ** n == (a - 1) ** n:
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
    n, m, a = p["n"], p["m"], p["a"]
    sign = -1 if n % 2 == 0 else 1
    numerator = m * n * poch(n * m - n, n - 1) * (n * m + a - 1) ** (n - 1)
    return sign * numerator / ((m * n + a - 1) ** n - (a - 1) ** n)


def _thm39_infer(n: int, Q: Polynomial) -> Params | None:
    parts = _arith_parts(Q)
    if parts is None:
        return None
    _, a, lengths = parts
    for length in lengths:
        if (length + 1) % n == 0 and (length + 1) // n >= 1:
            return {"n": n, "m": (length + 1) // n, "a": a}
    return None


# prop40..prop43: involution-sum identities over roots of x^n - 1 ----------


def _prop40_closed(p: Params) -> Fraction:
    n = p["n"]
    return Fraction((-1) ** (n + 1) * math.factorial(n))


def _prop42_domain(p: Params) -> str | None:
    if p["n"] < 2:
        return "n >= 2 required (at n = 1 the sum is 2, not 1)"
    return None


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

_PROP_EXPECTED: dict[str, Callable[[int], Fraction]] = {
    "prop40": lambda n: Fraction((-1) ** (n + 1) * math.factorial(n)),
    "prop41": lambda n: Fraction(0),
    "prop42": lambda n: Fraction(1),
    "prop43": lambda n: Fraction(math.factorial(n + 1), 2),
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
    entry-specific fixed-point weight; it is compared against the stated
    constant.  The gap is |sum - constant| scaled by max(1, |constant|), or by
    n! when the constant is 0, matching how the error in a sum of n!-sized
    terms accumulates.
    """
    from .numeric_oracle import involution_weighted_sum, unit_roots

    if entry_id not in _PROP_WEIGHTS:
        raise BadParams(f"unknown involution identity {entry_id!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadParams("n must be a positive integer")
    if entry_id == "prop43" and n % 2 == 0:
        raise OutOfDomain("prop43: n must be odd (the weight has a pole at x = -1)")
    weight = _PROP_WEIGHTS[entry_id]
    expected = _PROP_EXPECTED[entry_id](n)
    roots = unit_roots(n)
    value = involution_weighted_sum(roots, lambda k: weight(n, roots[k]))
    scale = float(math.factorial(n)) if expected == 0 else max(1.0, abs(float(expected)))
    gap = abs(value - complex(expected)) / scale
    return InvolutionIdentityReport(entry_id, n, value, expected, gap, gap <= tolerance, tolerance)


def _prop_family(q_builder: Callable[[int], Polynomial]) -> Callable[[Params], tuple[Polynomial, Polynomial]]:
    def build(p: Params) -> tuple[Polynomial, Polynomial]:
        return power_minus_one(p["n"]), q_builder(p["n"])

    return build


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
        infer=None,
    ) -> None:
        grid = tuple(p for p in raw_grid if domain_check(p) is None)
        entries.append(
            CatalogEntry(
                entry_id, kinds, statement, domain_desc, domain_check,
                family, closed_form, grid, infer,
            )
        )

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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _thm10_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor11_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor12_infer),
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
        _cor13_infer,
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor14_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor15_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor16_infer),
    )
    add(
        "cor17",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, y^(mn) + 1) = -(-mn/2)_n",
        "none",
        _no_domain,
        _cor17_family,
        _cor12_closed,
        _simple_grid(n=(1, 2, 3, 4, 5), m=(1, 2, 3, 4)),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor17_infer),
    )
    add(
        "cor18",
        (("n", "count", 1), ("m", "count", 2), ("r", "count", 1), ("a", "rational", None), ("b", "rational", None)),
        "PER(x^n-1, y^(mn) + a y^(rn) + b) = (-1)^(n+1) n! when m + ra = a + b + 1 != 0",
        "m > r >= 1; m + ra = a + b + 1 != 0",
        _cor18_domain,
        _cor16_family,
        lambda p: _prop40_closed(p),
        tuple(
            {"n": n, "m": m, "r": r, "a": Fraction(a), "b": Fraction(m + r * a - a - 1)}
            for n in (1, 2, 3, 4)
            for m, r, a in ((2, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 3), (4, 3, 1), (2, 1, -3))
        ),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor18_infer),
    )
    add(
        "cor19",
        (("n", "count", 1), ("a", "rational", None)),
        "PER(x^n-1, y^(2n) + a y^n + 1) = (-1)^(n+1) n! for a != -2",
        "a != -2",
        _cor19_domain,
        _cor19_family,
        lambda p: _prop40_closed(p),
        tuple(
            {"n": n, "a": Fraction(a)}
            for n in (1, 2, 3, 4, 5)
            for a in (-1, 0, 1, 2, 3)
        ),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor19_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor20_infer),
    )
    add(
        "cor21",
        (("n", "count", 1), ("b", "rational", None)),
        "PER(x^n-1, y^(2n) - 2 y^n + b) = 0 for b != 1",
        "b != 1",
        _cor21_domain,
        _cor21_family,
        lambda p: Fraction(0),
        tuple(
            {"n": n, "b": Fraction(b)} for n in (1, 2, 3, 4, 5) for b in (-1, 0, 2, 3)
        ),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor21_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor22_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor23_infer),
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
        _cor24_infer,
    )
    add(
        "cor25",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(1+x+...+x^(n-1), 1+y+...+y^(m-1)) = (-1)^(n+1) (m-1)...(m-n+1) / n for gcd(m,n) = 1",
        "gcd(m, n) = 1",
        _cor24_domain,
        _cor25_family,
        _cor25_closed,
        tuple(
            {"n": n, "m": m}
            for n in (2, 3, 4, 5)
            for m in (1, 2, 3, 4, 5)
            if math.gcd(m, n) == 1
        ),
        RowMatcher(RowFamily.ALL_ONES, _cor25_infer),
    )
    add(
        "cor26",
        (("n", "count", 1), ("m", "count", 1)),
        "PER(x^n-1, y^m + 1) = m(m-1)...(m-n+1) / 2 for odd n, gcd(m,n) = 1",
        "n odd; gcd(m, n) = 1",
        _cor26_domain,
        _cor26_family,
        _cor26_closed,
        tuple(
            {"n": n, "m": m}
            for n in (1, 3, 5)
            for m in (1, 2, 3, 4, 5)
            if math.gcd(m, n) == 1
        ),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor26_infer),
    )
    add(
        "cor27",
        (("n", "count", 1),),
        "PER(x^n-1, y^(n+1) + 1) = (n+1)!/2 for odd n",
        "n odd",
        _cor27_domain,
        _cor27_family,
        _cor27_closed,
        _simple_grid(n=(1, 3, 5)),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor27_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor28_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor29_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor30_infer),
    )
    add(
        "cor31",
        (("n", "count", 1),),
        "PER(x^n-1, y^n + n y - 1) = 1 for n >= 2",
        "n >= 2",
        _cor31_domain,
        _cor31_family,
        lambda p: Fraction(1),
        _simple_grid(n=(2, 3, 4, 5)),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor31_infer),
    )
    add(
        "thm32",
        (("n", "count", 2), ("m", "count", 1), ("a", "rational", None)),
        "PER(x^n-1, sum_{l<mn} (l+a) y^l) = (-1)^(n-1) n(m-1) V(a,m) (a+(m-1)n+1)_(n-2) / (6(mn+2a-1))",
        "mn + 2a - 1 != 0",
        _thm32_domain,
        _thm32_family,
        _thm32_closed,
        tuple(
            {"n": n, "m": m, "a": Fraction(a)}
            for n in (2, 3, 4, 5)
            for m in (1, 2, 3)
            for a in (0, 1, -1, _HALF)
        ),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _thm32_infer),
    )
    add(
        "cor33",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(x^n-1, sum_{l<mn} l y^l) = (-1)^(n-1) (4mn-n-1)(mn-n)_(n-1) / 6",
        "none",
        _no_domain,
        _cor33_family,
        _cor33_closed,
        _simple_grid(n=(2, 3, 4, 5), m=(1, 2, 3, 4)),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor33_infer),
    )
    add(
        "cor34",
        (("n", "count", 2), ("m", "count", 1)),
        "PER(x^n-1, sum_{l<mn} (l+1) y^l) = (-1)^(n-1) (4mn-n+1)(mn-n)(mn-n+2)_(n-2) / 6",
        "none",
        _no_domain,
        _cor34_family,
        _cor34_closed,
        _simple_grid(n=(2, 3, 4, 5), m=(1, 2, 3, 4)),
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor34_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor35_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _cor36_infer),
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
        RowMatcher(RowFamily.POWER_MINUS_ONE, _thm37_infer),
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
        RowMatcher(RowFamily.ALL_ONES, _thm38_infer),
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
        RowMatcher(RowFamily.ALL_ONES, _thm39_infer),
    )

    add(
        "prop40",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1, fixed weight (n+1)/(2x) = (-1)^(n+1) n!",
        "none",
        _no_domain,
        _prop_family(lambda n: _trinomial_q(n, 2, 1, Fraction(1), Fraction(1))),
        _prop40_closed,
        _simple_grid(n=(2, 3, 4, 5)),
    )
    add(
        "prop41",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1, fixed weight (n-1)/(2x) = 0",
        "none",
        _no_domain,
        _prop_family(lambda n: _trinomial_q(n, 2, 1, Fraction(-2), Fraction(0))),
        lambda p: Fraction(0),
        _simple_grid(n=(2, 3, 4, 5)),
    )
    add(
        "prop42",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1, fixed weight (2+(3-n)x)/(2x^2) = 1 for n >= 2",
        "n >= 2",
        _prop42_domain,
        _prop_family(lambda n: _block_poly([(n, 1), (1, n), (0, -1)])),
        lambda p: Fraction(1),
        _simple_grid(n=(2, 3, 4, 5)),
    )
    add(
        "prop43",
        (("n", "count", 1),),
        "sum over involutions of roots of x^n-1 (n odd), fixed weight (1-n+(3+n)x)/(2(1+x)x) = (n+1)!/2",
        "n odd",
        _prop43_domain,
        _prop_family(lambda n: _block_poly([(n + 1, 1), (0, 1)])),
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


def catalog_eval(entry_id: str, **params: Any) -> Fraction:
    """Exact value of one catalog identity at a parameter point."""
    entry = get_entry(entry_id)
    clean = _validate(entry, params)
    reason = entry.domain_check(clean)
    if reason is not None:
        raise OutOfDomain(f"{entry_id}: {reason}")
    return entry.closed_form(clean)


def catalog_family(entry_id: str, **params: Any) -> tuple[Polynomial, Polynomial]:
    """The concrete (P, Q) pair of one catalog identity at a parameter point."""
    entry = get_entry(entry_id)
    clean = _validate(entry, params)
    reason = entry.domain_check(clean)
    if reason is not None:
        raise OutOfDomain(f"{entry_id}: {reason}")
    return entry.family(clean)


_RECOGNIZE = object()


def find_matching(
    P: Polynomial, Q: Polynomial, *, row: tuple[RowFamily, int] | None | object = _RECOGNIZE
) -> list[tuple[str, Params]]:
    """All catalog entries whose family contains (P, Q), with inferred params.

    Matching is up to scalar multiples of P and Q, since the permanent
    depends only on the zero sets.  `row` is P's row family when the caller
    has already recognized it (None for none); otherwise P is recognized here.
    """
    row = classify_row_polynomial(P) if row is _RECOGNIZE else row
    matches: list[tuple[str, Params]] = []
    for entry in _REGISTRY.values():
        infer = entry.infer
        if infer is None:
            continue
        params = infer.match(row, Q) if isinstance(infer, RowMatcher) else infer(P, Q)
        if params is None:
            continue
        try:
            clean = _validate(entry, params)
        except BadParams:
            continue
        if entry.domain_check(clean) is None:
            matches.append((entry.id, clean))
    return matches


# P-shape recognizer for x^n + 1 (after monic normalization); the two fes
# row families come from fes_engine's recognizer through RowMatcher.


def _as_power_plus_one(P: Polynomial) -> int | None:
    if P.degree is None or P.degree < 1:
        return None
    n = P.degree
    return n if P.monic() == power_plus_one(n) else None

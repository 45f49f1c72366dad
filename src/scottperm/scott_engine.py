"""Exact evaluation of permanents of matrices 1/(x_i - y_j), and the route table.

The rows are indexed by the roots X of a polynomial P (degree n) and the
columns by the roots Y of a polynomial Q (degree m >= n).  The permanent is
obtained without ever computing a root: it equals

    det(H(X) @ E(Y)) / Res(P, Q)

where H is the n x (m+n-1) band of complete homogeneous symmetric functions
of X, E is an (m+n-1) x n matrix of weighted elementary symmetric functions
of Y, and Res is the resultant of the monic forms.  `Pair` reads P's and Q's
primitive integer coefficient lists p and q (`Polynomial.key`), and every exact
route works on those: Res(p, q) = lc(p)^m lc(q)^n Res.  The numerator is taken
from det G, with G = Bez(p, r1) - d/dx Bez(p, r0) and r0, r1 the
pseudo-remainders of q, q' mod p: det G = (-1)^(n(n-1)/2) (lc(p)^(m-n+2) lc(q))^n Res det(H @ E), so the
permanent is +-det G / (lc(p)^((n-1)(m-n)+n) Res(p, q)), or +-det(G / lc(p)) /
Res(p, q) for n = m, and no root, monic form, H or E is built.  `ROUTES` is the one table of this and every other
route (each returns an `EvalResult`, from the leaf module `results`):
`evaluate` runs one by name, `verify` all that apply.
"""
from __future__ import annotations

import cmath
import functools
import math
import time
from fractions import Fraction
from typing import Callable, NamedTuple

# closed_catalog and numeric_oracle load on first use, inside the routes that call
# them, so an exact eval imports neither.
from . import fes_engine
from .errors import (
    BadParams,
    OutOfDomain,
    RepeatedXRoot,
    ScottPermError,
    ZeroDegree,
)
from .exact_core import (
    MAX_DEGREE,  # Pair's degree budget, under the name the tests read
    Polynomial,
    RationalMatrix,
    _bareiss,
    _coprime_resultant,
    _pseudo_remainder,
    _subresultant,
    _within_budget,
    series_inverse,
)
from .results import EvalResult, Value


def build_H(P: Polynomial, m: int) -> RationalMatrix:
    """The n x (m+n-1) matrix with entry h_{j-i} in row i, column j (1-based).

    h_k is the k-th complete homogeneous symmetric function of the roots of
    P; its generating series is the reciprocal of t^n P(1/t) for monic P.
    Entries with j < i are zero.
    """
    if P.degree is None or P.degree < 1:
        raise ZeroDegree("need a polynomial of degree >= 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    monic = P.monic()
    n = monic.degree
    reversed_p = Polynomial(reversed(monic.coeffs))
    h = series_inverse(reversed_p, m + n - 2) if m + n - 2 >= 0 else []
    width = m + n - 1
    entries = []
    for i in range(n):
        for j in range(width):
            k = j - i
            entries.append(h[k] if k >= 0 else Fraction(0))
    return RationalMatrix(n, width, entries)


def build_E(Q: Polynomial, n: int) -> RationalMatrix:
    """The (m+n-1) x n companion to build_H, built from Q's root data.

    With e_s the s-th elementary symmetric function of the roots of Q
    (e_s = 0 outside 0..m), the 1-based entry in row j, column k is

        (j - 2k + 2) * (-1)^(m-j+k-1) * e_{m-j+k-1}.
    """
    if Q.is_zero:
        raise ZeroDegree("need a nonzero polynomial")
    if n < 1:
        raise ValueError("n must be positive")
    monic = Q.monic()
    m = monic.degree
    # e_s = (-1)^s * coefficient of y^(m-s) in the monic polynomial
    e = [(-1) ** s * monic.coeff(m - s) for s in range(m + 1)]
    height = m + n - 1
    entries = []
    for j in range(1, height + 1):
        for k in range(1, n + 1):
            s = m - j + k - 1
            if 0 <= s <= m:
                sign = -1 if s % 2 else 1
                entries.append((j - 2 * k + 2) * sign * e[s])
            else:
                entries.append(Fraction(0))
    return RationalMatrix(height, n, entries)


def _theorem1_rows(p: list[int], q: list[int], r0: list[int]) -> list[list[int]]:
    """The n x n integer matrix G whose determinant is theorem1's numerator.

    p and q hold all coefficients of integer P (degree n) and Q (degree m >= n), and r0 is
    `_pseudo_remainder(q, p)`.  With a = lc(P) and the
    pseudo-remainders r0 = a^(m-n+1) Q mod P and r1 = a^(m-n+1) Q' mod P, row i holds the
    coefficients of x^i in G(x, y) = Bez(P, r1) - d/dx Bez(P, r0), where Bez(A, B) =
    (A(x)B(y) - A(y)B(x)) / (x - y).  As (x - y) G = C1 - d/dx C0 + Bez(P, r0) with
    C_k = P(x)r_k(y) - P(y)r_k(x), row i of G is row i - 1 shifted one column left minus
    row i of the right side; Bez(P, r0) follows the same recurrence with C0 alone.
    """
    n, a = len(p) - 1, p[-1]
    r1 = [a * c for c in _pseudo_remainder([j * c for j, c in enumerate(q)][1:], p)]
    r0, r1 = r0 + [0] * (n + 1 - len(r0)), r1 + [0] * (n + 1 - len(r1))
    # Column j needs coefficient j + 1; the last column, where r0[n] = r1[n] = 0, is apart.
    high0, high1, high_p = r0[1:], r1[1:], p[1:]
    bez = row = [0] * n  # row i - 1 of Bez(P, r0) and of G
    rows = []
    for i in range(n):
        pi, s0, pd, w = p[i], r0[i], (i + 1) * p[i + 1], (i + 1) * r0[i + 1] - r1[i]
        bez = [b - pi * r + c * s0 for b, r, c in zip(bez[1:], high0, high_p)] + [a * s0]
        row = [g - b - pi * u + pd * r - c * w
               for g, b, u, r, c in zip(row[1:], bez[1:], high1, high0, high_p)] + [-a * w]
        rows.append(row)
    return rows


def scott_permanent(P: Polynomial, Q: Polynomial) -> EvalResult:
    """Exact permanent of (1/(x_i - y_j)) over the root sets of P and Q.

    P and Q must not share a root, which `Pair` tests as Res(P, Q) == 0 on
    the resultant the value divides by.  With more rows than columns
    (deg P > deg Q) the permanent is zero by convention, since no injective
    row-to-column assignment exists.  The numerator det(H @ E) is taken from det G,
    the integer Bezoutian of `_theorem1_rows`, for any P; neither H nor E is built.
    """
    return _theorem1(Pair(P, Q))


def _theorem1(pair: Pair) -> EvalResult:
    """scott_permanent of a checked pair: +-det G / (lc(p)^((n-1)(m-n)+n) Res(p, q)),
    which is +-det(G / lc(p)) / Res(p, q) for n = m, where lc(p) divides every
    entry of G.  Whether it divides G for m > n is not proven, so G is kept whole there."""
    n, m, p = pair.n, pair.m, pair.p
    if n > m:
        return EvalResult(Fraction(0), "theorem1", n, m, ("n > m: permanent vanishes",))
    rows, a, power = _theorem1_rows(p, pair.q, pair.r0), p[-1], (n - 1) * (m - n) + n
    if n == m and a != 1:
        # r1 = a q' and r0 = a q - q_n p, so G = a (Bez(p, q') - d/dx Bez(p, q)):
        # G / a has n fewer factors a in its determinant, and smaller entries.
        rows, power = [[g // a for g in row] for row in rows], 0
    det = _bareiss(rows)
    # det G / ((-1)^(n(n-1)/2) (lc(p)^(m-n+2) lc(q))^n) over Res(p, q) / (lc(p)^m lc(q)^n).
    if n * (n - 1) // 2 % 2:
        det = -det
    value = Fraction(det, a**power * pair.resultant)
    return EvalResult(value, "theorem1", n, m)


def _finite(z: Value) -> bool:
    """Exact values are always finite; a float or complex may not be."""
    return not isinstance(z, (float, complex)) or cmath.isfinite(z)


def _exact_parts(z: Value) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts as Fractions; a float converts exactly."""
    if isinstance(z, complex):
        return Fraction(z.real), Fraction(z.imag)
    return Fraction(z), Fraction(0)


# Below this magnitude a gap computed in floats can neither overflow nor
# lose more than rounding: |a - b| and max(|a|, |b|) stay far from 2**1024.
_FLOAT_GAP_LIMIT = 2.0**400


def relative_gap(a: Value, b: Value) -> float:
    """|a - b| scaled by max(1, |a|, |b|).

    When either value is a float or complex, and both are below
    _FLOAT_GAP_LIMIT in magnitude, the gap is computed in floats.  Two exact
    values, huge values and unequal values whose float gap rounds to 0 take
    the exact path: the square of the gap is computed exactly and rounded
    once, so values far outside the range of a float compare correctly, and
    the gap is 0 only for equal values.  The float path comes first, so a
    Fraction is compared with a float or complex only when their float gap
    rounds to 0.  A value that is not finite is infinitely far from every
    value.
    """
    if not (_finite(a) and _finite(b)):
        return math.inf
    return _gap(a, _as_complex(a), b, _as_complex(b))


def _as_complex(z: Value) -> complex | None:
    """complex(z), or None for an exact value beyond the float range."""
    try:
        return complex(z)
    except OverflowError:
        return None


def _gap(a: Value, za: complex | None, b: Value, zb: complex | None) -> float:
    """relative_gap of finite a and b, given their `_as_complex` forms."""
    if (za is not None and zb is not None
            and (isinstance(a, (float, complex)) or isinstance(b, (float, complex)))):
        size = max(1.0, abs(za), abs(zb))
        if size < _FLOAT_GAP_LIMIT:
            gap = abs(za - zb) / size
            if gap:
                return gap
    if a == b:
        return 0.0
    ar, ai = _exact_parts(a)
    br, bi = _exact_parts(b)
    gap_squared = ((ar - br) ** 2 + (ai - bi) ** 2) / max(
        1, ar * ar + ai * ai, br * br + bi * bi
    )
    return math.sqrt(gap_squared)


class RouteOutcome(NamedTuple):
    """One route's part of a verify report, an immutable record (a named tuple): its
    value, or None when it failed (error says why) or was skipped (notes say why)."""

    method: str
    value: Value | None
    elapsed_ms: float
    error: str | None = None
    notes: tuple[str, ...] = ()


class VerifyReport(NamedTuple):
    """What verify returns, an immutable record (a named tuple): the route outcomes in
    ROUTES order, and (a, b, gap, agreed) for each pair of routes that gave a value."""

    n: int
    m: int
    tolerance: float
    routes: tuple[RouteOutcome, ...]
    agreements: tuple[tuple[str, str, float, bool], ...] = ()

    @property
    def all_agree(self) -> bool:
        """At least one pair of routes was compared, and every pair agreed."""
        return bool(self.agreements) and all(ok for _, _, _, ok in self.agreements)


# The route table ------------------------------------------------------------

# What verify records as a route's failure and cli.main as an error; anything else is a bug.
ROUTE_FAILURES = (ScottPermError, ArithmeticError)


# The float routes' DP work budget, which verify and `bench`'s oracle leg read when they run.
ORACLE_COST_LIMIT = 20_000_000


class Pair:
    """(P, Q) checked once, for every route: ZeroDegree for a constant P or a zero
    Q, and ResourceLimit for a degree above MAX_DEGREE; then p and q are P's and
    Q's keys, their primitive integer coefficient lists (the permanent depends
    only on the roots), and SharedRoot is raised when their integer resultant
    Res(p, q) is 0 (float roots miss a shared multiple root).  For m >= n that
    resultant's sequence opens with r0 = `_pseudo_remainder(q, p)`, which
    theorem1's rows take too.  The exact routes take p, q, r0 and Res(p, q) from
    here.  P's row family, the first catalog match, Res(p, p') and the roots are
    each found once, on first use.  A row family fixes P's float facts: its roots
    are roots of unity in closed form, and they are distinct, so it takes neither
    find_roots nor Res(p, p')."""

    def __init__(self, P: Polynomial, Q: Polynomial):
        if P.degree is None or P.degree < 1:
            raise ZeroDegree("the row polynomial must have degree >= 1")
        if Q.is_zero:
            raise ZeroDegree("the column polynomial must be nonzero")
        _within_budget("row", P.degree)
        _within_budget("column", Q.degree)
        self.P, self.Q, self.n, self.m = P, Q, P.degree, Q.degree
        self.p, self.q = P.key, Q.key
        self.r0 = _pseudo_remainder(self.q, self.p) if self.m >= self.n else None
        self.resultant = _coprime_resultant(self.p, self.q, self.r0)
        # Keyed by identity: hashing a Polynomial hashes every coefficient.
        self._roots: dict[int, list[complex] | Exception] = {}

    @functools.cached_property
    def squarefree(self) -> bool:
        """P has no repeated root: true for a row family, else Res(p, p') != 0."""
        if self.family is not None:
            return True
        return _subresultant(self.p, [k * c for k, c in enumerate(self.p)][1:]) != 0

    @functools.cached_property
    def family(self) -> tuple[fes_engine.RowFamily, int] | None:
        return fes_engine.classify_row_polynomial(self.P)

    @functools.cached_property
    def match(self) -> tuple[str, dict] | None:
        """The first catalog match in catalog order, or None; no later entry is read."""
        from . import closed_catalog

        return next(closed_catalog.iter_matching(self.P, self.Q), None)

    def roots(self, poly: Polynomial) -> list[complex]:
        """The roots of P or Q (none for a constant); a failure is raised on every call.

        A row family P takes the n-th roots of unity, without 1 for the all-ones
        row; Q and any other P take find_roots."""
        key = id(poly)
        if key not in self._roots:
            from . import numeric_oracle

            try:
                if poly is self.P and self.family is not None:
                    family, n = self.family
                    roots = numeric_oracle.unit_roots(n)
                    if family is fes_engine.RowFamily.ALL_ONES:
                        roots = roots[1:]  # unit_roots(n)[0] is 1
                    self._roots[key] = roots
                else:
                    self._roots[key] = numeric_oracle.find_roots(poly) if poly.degree else []
            except ROUTE_FAILURES as exc:
                self._roots[key] = exc
        if isinstance(self._roots[key], Exception):
            raise self._roots[key]
        return self._roots[key]


class Route(NamedTuple):
    """A way to evaluate a pair; `needs` says what `applies` asks for.  `work(n, m)`
    counts the DP steps verify limits by ORACLE_COST_LIMIT; `work_text` names them."""

    name: str
    evaluate: Callable[[Pair], EvalResult]
    applies: Callable[[Pair], bool] = lambda pair: True
    needs: str = ""
    work: Callable[[int, int], int] | None = None
    work_text: str = ""


def _oracle(pair: Pair) -> EvalResult:
    from . import numeric_oracle

    if pair.n > pair.m:
        return EvalResult(0j, "oracle", pair.n, pair.m, ("n > m: no injective assignments",))
    value = numeric_oracle.brute_permanent(pair.roots(pair.P), pair.roots(pair.Q))
    return EvalResult(value, "oracle", pair.n, pair.m)


def _involution(pair: Pair) -> EvalResult:
    from . import numeric_oracle

    # The float roots of a multiple root come out too far apart for
    # involution_weighted_sum's 1e-12 check to see, so P is tested exactly.
    if not pair.squarefree:
        raise RepeatedXRoot("the row polynomial has a repeated root")
    value = numeric_oracle.involution_sum(pair.roots(pair.P), pair.roots(pair.Q))
    return EvalResult(value, "involution", pair.n, pair.m)


def _closed_form(pair: Pair) -> EvalResult:
    from . import closed_catalog

    # iter_matching has validated the parameters and checked the domain.
    entry_id, params = pair.match
    value = closed_catalog.get_entry(entry_id).closed_form(params)
    return EvalResult(value, "closed_form", pair.n, pair.m, (f"matched {entry_id}",))


# In verify's order.  Each route calls its engine through a module attribute at
# call time, so a wrapper or monkeypatch installed there sees every call.  fes names its
# result fes or fes_tilde; a row family's key p is its monic row polynomial.
ROUTES = (
    Route("theorem1", lambda pair: _theorem1(pair)),
    Route("oracle", _oracle, work_text="m*n*2^n", work=lambda n, m: 0 if n > m else m * n * 2**n),
    Route("involution", _involution, work=lambda n, m: n * 2**n, work_text="n*2^n"),
    Route("fes", lambda pair: fes_engine.banded_permanent(
              *pair.family, pair.q, pair.resultant),
          applies=lambda pair: pair.family is not None,
          needs="a row polynomial of the form x^n - 1 or 1 + x + ... + x^(n-1)"),
    Route("closed_form", _closed_form, applies=lambda pair: pair.match is not None,
          needs="a pair that some closed-form catalog entry matches"),
)
_METHODS = {"auto": Route("auto", lambda p: _METHODS["fes" if p.family else "theorem1"].evaluate(p)),
            **{route.name: route for route in ROUTES}}
# Every method `evaluate` takes, as the CLI's --method help and an unknown method's error list them.
_METHOD_NAMES = ", ".join(_METHODS) + ", or closed:<id>"


def _shown(value: object) -> str:
    """A parameter as the CLI prints it: a vector as (5, 0), not as Fractions."""
    return f"({', '.join(map(str, value))})" if isinstance(value, tuple) else str(value)


def _catalog_route(method: str) -> Route:
    """eval's closed:<id>: one named catalog entry, its parameters inferred."""
    if not method.startswith("closed:"):
        raise BadParams(f"unknown method {method!r}; use {_METHOD_NAMES}")
    from . import closed_catalog

    entry_id = method[len("closed:"):]
    entry = closed_catalog.get_entry(entry_id)
    if entry.read is None:
        raise BadParams(f"{entry_id} has no polynomial-pair matcher")

    def lookup(pair: Pair) -> EvalResult:
        params = entry.infer(pair.P, pair.Q)
        if params is None:
            raise OutOfDomain(f"{entry_id}: the given pair is not in this family")
        shown = ", ".join(f"{k}={_shown(v)}" for k, v in params.items())
        value = closed_catalog.catalog_eval(entry_id, **params)
        return EvalResult(value, method, pair.n, pair.m, (f"matched with {shown}",))

    return Route(method, lookup)


def evaluate(P: Polynomial, Q: Polynomial, method: str = "auto") -> EvalResult:
    """The permanent by one route: a name in ROUTES, "auto" or "closed:<id>".

    "auto" takes fes for a row family and theorem1 otherwise.  An unknown
    method is BadParams even for a bad pair; a shared root is SharedRoot for
    every method, from `Pair`; a route that does not take the pair is
    BadParams.  Unlike in verify, no route is skipped for its cost.
    """
    route = _METHODS.get(method) or _catalog_route(method)
    pair = Pair(P, Q)
    if not route.applies(pair):
        raise BadParams(f"method {method} needs {route.needs}")
    return route.evaluate(pair)


def verify(P: Polynomial, Q: Polynomial, tolerance: float = 1e-6) -> VerifyReport:
    """Evaluate the permanent by every route in ROUTES that applies, and compare.

    Each route reports its own timing.  A route that fails with one of
    ROUTE_FAILURES, or returns a value that is not finite, contributes an
    error instead of a value; `Pair` raises SharedRoot before any runs.  A float
    route is skipped when its DP work (m*n*2^n, n*2^n) exceeds ORACLE_COST_LIMIT,
    read when verify runs.
    A tolerance that is not a finite number >= 0 is BadParams.
    """
    if not 0 <= tolerance < math.inf:
        raise BadParams(f"tolerance must be finite and >= 0, got {tolerance}")
    pair = Pair(P, Q)
    outcomes: list[RouteOutcome] = []
    for route in ROUTES:
        if not route.applies(pair):
            continue
        if route.work is not None and route.work(pair.n, pair.m) > ORACLE_COST_LIMIT:
            note = f"skipped: {route.work_text} exceeds oracle_cost_limit"
            outcomes.append(RouteOutcome(route.name, None, 0.0, None, (note,)))
            continue
        start = time.perf_counter()
        try:
            result = route.evaluate(pair)
        except ROUTE_FAILURES as exc:
            error, method, value, notes = f"{type(exc).__name__}: {exc}", route.name, None, ()
        else:
            error, method, value, notes = None, result.method, result.value, result.notes
            if not _finite(value):
                error, value, notes = f"non-finite value {value}", None, ()
        elapsed = (time.perf_counter() - start) * 1000.0
        outcomes.append(RouteOutcome(method, value, elapsed, error, notes))

    # Each value converts to complex once, for all the pairs it is in.
    valued = [(o.method, o.value, _as_complex(o.value)) for o in outcomes if o.value is not None]
    agreements = []
    for i, (a, va, za) in enumerate(valued):
        for b, vb, zb in valued[i + 1:]:
            gap = _gap(va, za, vb, zb)
            agreements.append((a, b, gap, gap <= tolerance))

    return VerifyReport(pair.n, pair.m, tolerance, tuple(outcomes), tuple(agreements))

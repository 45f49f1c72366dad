"""Exact evaluation of permanents of matrices 1/(x_i - y_j), and the route table.

The rows are indexed by the roots X of a polynomial P (degree n) and the
columns by the roots Y of a polynomial Q (degree m >= n).  The permanent is
obtained without ever computing a root: it equals

    det(H(X) @ E(Y)) / Res(P, Q)

where H is the n x (m+n-1) band of complete homogeneous symmetric functions
of X, E is an (m+n-1) x n matrix of weighted elementary symmetric functions
of Y, and Res is the resultant of the monic forms.  `ROUTES` is the one
table of this and every other route (each returns an `EvalResult`, from the
leaf module `results`): `evaluate` runs one by name, `verify` all that apply.
"""
from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple

from . import closed_catalog, fes_engine, numeric_oracle
from .errors import BadParams, OutOfDomain, ScottPermError, SharedRoot, ZeroDegree
from .exact_core import (
    Polynomial,
    RationalMatrix,
    _bareiss,
    _clear_denominators,
    resultant,
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


def _numerator_rows(h: list[int], q: list[int], n: int) -> list[list[int]]:
    """The n x n integer matrix M with H @ E == M / (Lh * Lq).

    h holds Lh * h_k for k = 0..m+n-2 and q holds Lq * q_u for the monic
    coefficients q_0..q_m of Q.  Since (-1)^s e_s = q_(m-s), the 1-based
    entry is M[i][k] = sum_j h[j-i] (j-2k+2) q[j-k+1].  With u = j-k+1 and
    d = k-1-i this is S1(d) - (k-1) S0(d), where S0(d) = sum_u h[u+d] q[u]
    and S1(d) = sum_u h[u+d] u q[u] over the band where both factors are
    nonzero, so only the 2n-1 distinct values of d are summed.
    """
    m = len(q) - 1
    uq = [u * c for u, c in enumerate(q)]
    s0, s1 = [], []
    for d in range(-n, n - 1):
        lo = max(0, -d)
        band = h[lo + d : m + d + 1]
        s0.append(sum(map(mul, band, q[lo:])))
        s1.append(sum(map(mul, band, uq[lo:])))
    # s0[k - i - 1 + n] is S0(d) for the 0-based row i and column k.
    return [
        [s1[k - i - 1 + n] - k * s0[k - i - 1 + n] for k in range(n)] for i in range(n)
    ]


def scott_permanent(P: Polynomial, Q: Polynomial) -> EvalResult:
    """Exact permanent of (1/(x_i - y_j)) over the root sets of P and Q.

    P and Q must not share a root, which is tested once as Res(P, Q) == 0
    on the resultant the value divides by.  With more rows than columns
    (deg P > deg Q) the permanent is zero by convention, since no injective
    row-to-column assignment exists.  det(H @ E) is taken over the integers
    (`_numerator_rows`); neither H nor E is built.
    """
    if P.degree is None or P.degree < 1:
        raise ZeroDegree("the row polynomial must have degree >= 1")
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    p_monic, q_monic = P.monic(), Q.monic()
    res = resultant(p_monic, q_monic)
    if res == 0:
        raise SharedRoot("the polynomials share a root, so some entry 1/(x - y) is undefined")
    n = P.degree
    m = Q.degree
    if n > m:
        return EvalResult(Fraction(0), "theorem1", n, m, ("n > m: permanent vanishes",))
    h, h_scale = _clear_denominators(
        series_inverse(Polynomial(reversed(p_monic.coeffs)), m + n - 2)
    )
    q, q_scale = _clear_denominators(q_monic.coeffs)
    det = _bareiss(_numerator_rows(h, q, n))
    return EvalResult(det / ((h_scale * q_scale) ** n * res), "theorem1", n, m)


def _finite(z: Value) -> bool:
    """Exact values are always finite; a float or complex may not be."""
    return not isinstance(z, (float, complex)) or cmath.isfinite(z)


def _exact_parts(z: Value) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts as Fractions; a float converts exactly."""
    if isinstance(z, complex):
        return Fraction(z.real), Fraction(z.imag)
    return Fraction(z), Fraction(0)


def relative_gap(a: Value, b: Value) -> float:
    """|a - b| scaled by max(1, |a|, |b|).

    The square of the gap is computed exactly and rounded once, so values
    far outside the range of a float compare correctly.  A value that is
    not finite is infinitely far from every value.
    """
    if not (_finite(a) and _finite(b)):
        return math.inf
    ar, ai = _exact_parts(a)
    br, bi = _exact_parts(b)
    gap_squared = ((ar - br) ** 2 + (ai - bi) ** 2) / max(
        1, ar * ar + ai * ai, br * br + bi * bi
    )
    return math.sqrt(gap_squared)


@dataclass(frozen=True)
class RouteOutcome:
    method: str
    value: Value | None
    elapsed_ms: float
    error: str | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerifyReport:
    n: int
    m: int
    tolerance: float
    routes: tuple[RouteOutcome, ...]
    agreements: tuple[tuple[str, str, float, bool], ...] = field(default=())

    @property
    def all_agree(self) -> bool:
        return all(ok for _, _, _, ok in self.agreements) if self.agreements else True


# The route table ------------------------------------------------------------

# What verify records as a route's failure; anything else is a bug and propagates.
ROUTE_FAILURES = (ScottPermError, ArithmeticError)


class Pair:
    """(P, Q) checked once (ZeroDegree for a constant P or a zero Q), with P's row
    family, the catalog matches and the roots each found once, on first use."""

    def __init__(self, P: Polynomial, Q: Polynomial):
        if P.degree is None or P.degree < 1:
            raise ZeroDegree("the row polynomial must have degree >= 1")
        if Q.is_zero:
            raise ZeroDegree("the column polynomial must be nonzero")
        self.P, self.Q, self.n, self.m = P, Q, P.degree, Q.degree
        # Keyed by identity: hashing a Polynomial hashes every coefficient.
        self._roots: dict[int, list[complex] | Exception] = {}

    @functools.cached_property
    def family(self) -> tuple[fes_engine.RowFamily, int] | None:
        return fes_engine.classify_row_polynomial(self.P)

    @functools.cached_property
    def matches(self) -> list[tuple[str, dict]]:
        return closed_catalog.find_matching(self.P, self.Q, row=self.family)

    def roots(self, poly: Polynomial) -> list[complex]:
        """The roots of P or Q (none for a constant); a failure is raised on every call."""
        key = id(poly)
        if key not in self._roots:
            try:
                self._roots[key] = numeric_oracle.find_roots(poly) if poly.degree else []
            except ROUTE_FAILURES as exc:
                self._roots[key] = exc
        if isinstance(self._roots[key], Exception):
            raise self._roots[key]
        return self._roots[key]


class Route(NamedTuple):
    """A way to evaluate a pair; `needs` says what `applies` asks for.  `work`
    counts the DP steps verify limits by oracle_cost_limit; `work_text` names them."""

    name: str
    evaluate: Callable[[Pair], EvalResult]
    applies: Callable[[Pair], bool] = lambda pair: True
    needs: str = ""
    work: Callable[[Pair], int] | None = None
    work_text: str = ""


def _oracle(pair: Pair) -> EvalResult:
    if pair.n > pair.m:
        return EvalResult(0j, "oracle", pair.n, pair.m, ("n > m: no injective assignments",))
    value = numeric_oracle.brute_permanent(pair.roots(pair.P), pair.roots(pair.Q))
    return EvalResult(value, "oracle", pair.n, pair.m)


def _involution(pair: Pair) -> EvalResult:
    value = numeric_oracle.involution_sum(pair.roots(pair.P), pair.roots(pair.Q))
    return EvalResult(value, "involution", pair.n, pair.m)


def _closed_form(pair: Pair) -> EvalResult:
    entry_id, params = pair.matches[0]
    value = closed_catalog.catalog_eval(entry_id, **params)
    return EvalResult(value, "closed_form", pair.n, pair.m, (f"matched {entry_id}",))


# In verify's order.  theorem1 tests Res(P, Q) also when n > m, so its
# SharedRoot is the one shared-root check of a report.  Each route calls its
# engine through a module attribute at call time, so a wrapper or monkeypatch
# installed there sees every call.  fes names its result fes or fes_tilde.
ROUTES = (
    Route("theorem1", lambda pair: scott_permanent(pair.P, pair.Q)),
    Route("oracle", _oracle, work_text="m*n*2^n",
          work=lambda pair: 0 if pair.n > pair.m else pair.m * pair.n * 2**pair.n),
    Route("involution", _involution, work=lambda pair: pair.n * 2**pair.n, work_text="n*2^n"),
    Route("fes", lambda pair: fes_engine.per_via_fes(*pair.family, pair.Q),
          applies=lambda pair: pair.family is not None,
          needs="a row polynomial of the form x^n - 1 or 1 + x + ... + x^(n-1)"),
    Route("closed_form", _closed_form, applies=lambda pair: bool(pair.matches),
          needs="a pair that some closed-form catalog entry matches"),
)
_METHODS = {route.name: route for route in ROUTES}
_METHODS["auto"] = Route("auto", lambda p: _METHODS["fes" if p.family else "theorem1"].evaluate(p))


def _catalog_route(method: str) -> Route:
    """eval's closed:<id>: one named catalog entry, its parameters inferred."""
    if not method.startswith("closed:"):
        raise BadParams(f"unknown method {method!r}")
    entry_id = method[len("closed:"):]
    infer = closed_catalog.get_entry(entry_id).infer
    if infer is None:
        raise BadParams(f"{entry_id} has no polynomial-pair matcher")

    def lookup(pair: Pair) -> EvalResult:
        params = infer(pair.P, pair.Q)
        if params is None:
            raise OutOfDomain(f"{entry_id}: the given pair is not in this family")
        shown = ", ".join(f"{k}={v}" for k, v in params.items())
        value = closed_catalog.catalog_eval(entry_id, **params)
        return EvalResult(value, method, pair.n, pair.m, (f"matched with {shown}",))

    return Route(method, lookup)


def evaluate(P: Polynomial, Q: Polynomial, method: str = "auto") -> EvalResult:
    """The permanent by one route: a name in ROUTES, "auto" or "closed:<id>".

    "auto" takes fes for a row family and theorem1 otherwise.  An unknown
    method is BadParams even for a bad pair; a route that does not take the
    pair is BadParams.  Unlike in verify, no route is skipped for its cost.
    """
    route = _METHODS.get(method) or _catalog_route(method)
    pair = Pair(P, Q)
    if not route.applies(pair):
        raise BadParams(f"method {method} needs {route.needs}")
    return route.evaluate(pair)


def verify(
    P: Polynomial,
    Q: Polynomial,
    tolerance: float = 1e-6,
    oracle_cost_limit: int = 20_000_000,
) -> VerifyReport:
    """Evaluate the permanent by every route in ROUTES that applies, and compare.

    Each route reports its own timing.  A route that fails with one of
    ROUTE_FAILURES, or returns a value that is not finite, contributes an
    error instead of a value; SharedRoot propagates from theorem1.  A float
    route is skipped when its DP work (m*n*2^n, n*2^n) exceeds oracle_cost_limit.
    """
    pair = Pair(P, Q)
    outcomes: list[RouteOutcome] = []
    for route in ROUTES:
        if not route.applies(pair):
            continue
        if route.work is not None and route.work(pair) > oracle_cost_limit:
            note = f"skipped: {route.work_text} exceeds oracle_cost_limit"
            outcomes.append(RouteOutcome(route.name, None, 0.0, None, (note,)))
            continue
        start = time.perf_counter()
        try:
            result = route.evaluate(pair)
        except SharedRoot:
            raise
        except ROUTE_FAILURES as exc:
            error, method, value, notes = f"{type(exc).__name__}: {exc}", route.name, None, ()
        else:
            error, method, value, notes = None, result.method, result.value, result.notes
            if not _finite(value):
                error, value, notes = f"non-finite value {value}", None, ()
        elapsed = (time.perf_counter() - start) * 1000.0
        outcomes.append(RouteOutcome(method, value, elapsed, error, notes))

    agreements: list[tuple[str, str, float, bool]] = []
    valued = [o for o in outcomes if o.value is not None]
    for i in range(len(valued)):
        for j in range(i + 1, len(valued)):
            gap = relative_gap(valued[i].value, valued[j].value)
            agreements.append((valued[i].method, valued[j].method, gap, gap <= tolerance))

    return VerifyReport(pair.n, pair.m, tolerance, tuple(outcomes), tuple(agreements))

"""Exact evaluation of permanents of matrices 1/(x_i - y_j).

The rows are indexed by the roots X of a polynomial P (degree n) and the
columns by the roots Y of a polynomial Q (degree m >= n).  The permanent is
obtained without ever computing a root: it equals

    det(H(X) @ E(Y)) / Res(P, Q)

where H is the n x (m+n-1) band of complete homogeneous symmetric functions
of X, E is an (m+n-1) x n matrix of weighted elementary symmetric functions
of Y, and Res is the resultant of the monic forms.  `verify` then compares
this determinant route against every other implemented route.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Union

from .errors import SharedRoot, ZeroDegree
from .exact_core import (
    Polynomial,
    RationalMatrix,
    _bareiss,
    _clear_denominators,
    resultant,
    series_inverse,
)

Value = Union[Fraction, complex]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one evaluation route."""

    value: Value
    method: str
    n: int
    m: int
    notes: tuple[str, ...] = ()


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


def verify(
    P: Polynomial,
    Q: Polynomial,
    tolerance: float = 1e-6,
    oracle_cost_limit: int = 20_000_000,
) -> VerifyReport:
    """Evaluate the permanent by every applicable route and compare.

    Routes: the determinant engine, the subset-DP numeric oracle, the
    involution sum, the banded-determinant shortcut when P is x^n - 1 or
    1 + x + ... + x^(n-1), and any matching closed-form catalog entry.
    Each route reports its own timing; a route that fails, or returns a
    value that is not finite, contributes an error instead of a value.
    Raises SharedRoot when Res(P, Q) == 0; that error propagates from the
    theorem1 route instead of being recorded.

    The two float routes share one root finding per polynomial; a root
    finding error is an error of each route that needs those roots.  The
    oracle is skipped when its DP work m * n * 2^n exceeds
    oracle_cost_limit, and the involution sum when its n * 2^n does.
    """
    # Import here: these modules build their results out of EvalResult, so a
    # module-level import would be circular.
    from . import closed_catalog, fes_engine, numeric_oracle

    if P.degree is None or P.degree < 1:
        raise ZeroDegree("the row polynomial must have degree >= 1")
    if Q.is_zero:
        raise ZeroDegree("the column polynomial must be nonzero")
    n, m = P.degree, Q.degree

    outcomes: list[RouteOutcome] = []

    def run(method: str, task) -> None:
        start = time.perf_counter()
        try:
            value, notes = task()
        except SharedRoot:
            raise
        except Exception as exc:  # route failures are data, not fatal
            elapsed = (time.perf_counter() - start) * 1000.0
            outcomes.append(RouteOutcome(method, None, elapsed, f"{type(exc).__name__}: {exc}"))
            return
        elapsed = (time.perf_counter() - start) * 1000.0
        if not _finite(value):
            outcomes.append(RouteOutcome(method, None, elapsed, f"non-finite value {value}"))
            return
        outcomes.append(RouteOutcome(method, value, elapsed, None, notes))

    def theorem1_task():
        result = scott_permanent(P, Q)
        return result.value, result.notes

    # theorem1 tests Res(P, Q) first, also when n > m, so its SharedRoot is
    # the one shared-root check of the whole report.
    run("theorem1", theorem1_task)

    # Keyed by identity: P and Q live for the whole report, and hashing a
    # Polynomial hashes every Fraction coefficient.
    found: dict[int, list[complex] | Exception] = {}

    def roots(poly: Polynomial) -> list[complex]:
        key = id(poly)
        if key not in found:
            try:
                found[key] = numeric_oracle.find_roots(poly)
            except Exception as exc:  # raised again for every route that needs it
                found[key] = exc
        got = found[key]
        if isinstance(got, Exception):
            raise got
        return got

    if n > m or m * n * 2**n <= oracle_cost_limit:
        def oracle_task():
            if n > m:
                return 0j, ("n > m: no injective assignments",)
            return numeric_oracle.brute_permanent(roots(P), roots(Q)), ()

        run("oracle", oracle_task)
    else:
        outcomes.append(
            RouteOutcome("oracle", None, 0.0, None, ("skipped: m*n*2^n exceeds oracle_cost_limit",))
        )

    if n * 2**n <= oracle_cost_limit:
        def involution_task():
            return numeric_oracle.involution_sum(roots(P), roots(Q)), ()

        run("involution", involution_task)
    else:
        outcomes.append(
            RouteOutcome("involution", None, 0.0, None, ("skipped: n*2^n exceeds oracle_cost_limit",))
        )

    fes_kind = fes_engine.classify_row_polynomial(P)
    if fes_kind is not None:
        kind, fes_n = fes_kind

        def fes_task():
            result = fes_engine.per_via_fes(kind, fes_n, Q)
            return result.value, result.notes

        run(kind.method, fes_task)

    matches = closed_catalog.find_matching(P, Q)
    if matches:
        entry_id, params = matches[0]

        def closed_task():
            value = closed_catalog.catalog_eval(entry_id, **params)
            return value, (f"matched {entry_id}",)

        run("closed_form", closed_task)

    agreements: list[tuple[str, str, float, bool]] = []
    valued = [o for o in outcomes if o.value is not None]
    for i in range(len(valued)):
        for j in range(i + 1, len(valued)):
            gap = relative_gap(valued[i].value, valued[j].value)
            agreements.append((valued[i].method, valued[j].method, gap, gap <= tolerance))

    return VerifyReport(n, m, tolerance, tuple(outcomes), tuple(agreements))

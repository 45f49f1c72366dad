"""Floating-point reference implementations used to cross-check the exact path.

Everything here works over complex numbers: polynomial roots as
companion-matrix eigenvalues (LAPACK via numpy), Newton-polished; the
permanent by a dynamic program over row subsets (O(m * n * 2^n) for n rows
and m columns); the involution-sum evaluation of the same permanent by a
second subset DP (O(n * 2^n)); Ryser's formula as a square-case reference;
and bordered Cauchy / Borchardt determinants.  None of these functions is
used by the exact evaluators; they exist so independent routes can be
compared numerically.  numpy is imported inside the functions that use it
(find_roots' seeds and the bordered determinants), so importing this module,
and the package, does not load it.
"""
from __future__ import annotations

import cmath
import random
from typing import Callable, Sequence

from .errors import (
    BadParams,
    DidNotConverge,
    RepeatedXRoot,
    SingularEntry,
    ZeroDegree,
)
from .exact_core import Polynomial, resultant

# Entries 1/(x - y) blow up past any useful precision below this separation.
SINGULAR_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-10


def _horner(coeffs_desc: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in coeffs_desc:
        acc = acc * z + c
    return acc


def _root_seeds(monic_desc: list[float]) -> list[complex]:
    """numpy.roots(monic_desc) as a list, bit for bit, without its checks and copies.

    For a monic list numpy.roots does exactly this: trailing zero coefficients
    give exact 0j roots, after the eigenvalues (LAPACK, through
    numpy.linalg.eigvals) of the companion matrix of the rest, which has ones
    below the diagonal and first row -monic_desc[1:].
    """
    import numpy as np

    size = len(monic_desc) - 1
    while not monic_desc[size]:
        size -= 1
    seeds = [0j] * (len(monic_desc) - 1 - size)
    if size:
        companion = np.eye(size, k=-1)
        companion[0] = [-c for c in monic_desc[1 : size + 1]]
        seeds[:0] = np.linalg.eigvals(companion).astype(complex).tolist()
    return seeds


def find_roots(p: Polynomial) -> list[complex]:
    """All complex roots of p, with multiplicity, as companion-matrix eigenvalues.

    `_root_seeds` gives the estimates, those of numpy.roots for the monic
    float coefficients; a nonzero coefficient that underflows to 0.0 there is
    DidNotConverge, naming its power.  Each estimate is polished by at most two
    guarded Newton steps, stopping at the first refused one, and must pass a
    relative residual check, otherwise DidNotConverge is raised; a root past
    the float range for that check is an OverflowError that names it.  The
    value of p at the current estimate is carried from step to step, so a root
    costs at most 3 evaluations of p and 2 of p'.  Roots are returned sorted by
    (real, imag) so repeated calls agree exactly.
    """
    if p.degree is None or p.degree < 1:
        raise ZeroDegree("root finding needs degree >= 1")
    n, key = p.degree, p.key
    # float(c / lead) as one correctly rounded int / int on the key, whose lead
    # is positive, so a zero c gives 0.0, not -0.0.
    lead = key[-1]
    monic_desc = [c / lead for c in reversed(key)]
    if 0.0 in monic_desc:
        # A nonzero c that rounds to 0.0 would be taken for a zero coefficient:
        # the seeds would count it as zero roots, and the residual check, in
        # the same floats, would pass them.
        for k, c in enumerate(key):
            if c and not monic_desc[n - k]:
                raise DidNotConverge(f"the x^{k} coefficient of the monic form underflows to 0.0")
    deriv_desc = [monic_desc[i] * (n - i) for i in range(n)]

    polished = []
    for z in _root_seeds(monic_desc):
        value = _horner(monic_desc, z)
        for _ in range(2):
            dp = _horner(deriv_desc, z)
            if dp == 0:
                break
            candidate = z - value / dp
            candidate_value = _horner(monic_desc, candidate)
            if not abs(candidate_value) < abs(value):  # a second step would refuse it again
                break
            z, value = candidate, candidate_value
        try:
            residual = abs(value) / (1.0 + abs(z) ** n)
        except OverflowError:  # the errno text of float ** names neither the root nor the check
            raise OverflowError(
                f"|z|^{n} overflows in the residual check at root estimate {z!r}"
            ) from None
        if residual > ROOT_RESIDUAL_TOL:
            raise DidNotConverge(f"residual {residual:.3e} at root estimate {z!r}")
        polished.append(z)
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished


def _reciprocal_difference_matrix(
    X: Sequence[complex], Y: Sequence[complex], power: int = 1
) -> list[list[complex]]:
    rows = []
    for x in X:
        row = []
        for y in Y:
            diff = x - y
            if abs(diff) < SINGULAR_TOL:
                raise SingularEntry(f"x={x!r} and y={y!r} nearly coincide")
            row.append(1.0 / diff**power)
        rows.append(row)
    return rows


def brute_permanent(X: Sequence[complex], Y: Sequence[complex]) -> complex:
    """Permanent of the n x m matrix (1/(x_i - y_j)) by a DP over row subsets.

    dp[mask] sums the products over the injective maps from the rows in
    mask to the columns seen so far.  Each column j either takes no row or
    one row i outside mask, adding dp[mask] * a[i][j] to dp[mask | 1 << i];
    larger masks are updated first, so no column is used twice.  A mask with
    more rows left than columns left can no longer fill up and is not
    extended.  That is O(m * n * 2^n) work, against m!/(m-n)! injective
    maps.  With more rows than columns there are no injective maps, so the
    value is 0.
    """
    n, m = len(X), len(Y)
    if n > m:
        return 0j
    if n == 0:
        return 1 + 0j
    a = _reciprocal_difference_matrix(X, Y)
    full = (1 << n) - 1
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(full + 1):
        by_size[mask.bit_count()].append(mask)
    dp = [0j] * (full + 1)
    dp[0] = 1 + 0j
    for j in range(m):
        column = [row[j] for row in a]
        for size in range(min(j, n - 1), max(0, n - m + j) - 1, -1):
            for mask in by_size[size]:
                value = dp[mask]
                free = full ^ mask
                while free:
                    bit = free & -free
                    dp[mask | bit] += value * column[bit.bit_length() - 1]
                    free ^= bit
    return dp[full]


def ryser_permanent(matrix: Sequence[Sequence[complex]]) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code updates.

    Kept as a second combinatorial reference, independent of the
    subset DP in brute_permanent.
    """
    n = len(matrix)
    if n == 0:
        return 1 + 0j
    if any(len(row) != n for row in matrix):
        raise BadParams("Ryser evaluation needs a square matrix")
    sums = [0j] * n
    total = 0j
    sign = 1
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        j = changed.bit_length() - 1
        direction = 1 if gray & changed else -1
        for i in range(n):
            sums[i] += direction * matrix[i][j]
        prev_gray = gray
        sign = -sign
        prod = 1 + 0j
        for s in sums:
            prod *= s
        total += sign * prod
    if n % 2:
        total = -total
    return total


def involution_weighted_sum(
    X: Sequence[complex], fixed_weight: Callable[[int], complex]
) -> complex:
    """Sum over involutions with pair weight 1/(x_i - x_j)^2.

    Each involution contributes the product of 1/(x_i - x_j)^2 over its
    2-cycles times the product of fixed_weight(k) over its fixed points.
    The x values must be pairwise distinct.

    Computed by a DP over the set of used rows, smallest first: the lowest
    unused row r is either a fixed point or pairs with an unused p > r.
    That is O(n * 2^n) work, against one term per involution.
    """
    n = len(X)
    inv_sq = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diff = X[i] - X[j]
            if abs(diff) < SINGULAR_TOL:
                raise RepeatedXRoot(f"x_{i} and x_{j} nearly coincide")
            inv_sq[i][j] = inv_sq[j][i] = 1.0 / diff**2
    weights = [fixed_weight(k) for k in range(n)]
    full = (1 << n) - 1
    dp = [0j] * (full + 1)
    dp[0] = 1 + 0j
    for mask in range(full):
        value = dp[mask]
        if not value:  # unreachable (rows are used lowest first) or an exact 0
            continue
        free = full ^ mask
        low = free & -free
        r = low.bit_length() - 1
        used = mask | low
        dp[used] += value * weights[r]
        pair = inv_sq[r]
        free ^= low
        while free:
            bit = free & -free
            dp[used | bit] += value * pair[bit.bit_length() - 1]
            free ^= bit
    return dp[full]


def involution_sum(X: Sequence[complex], Y: Sequence[complex]) -> complex:
    """Permanent of (1/(x_i - y_j)) as a sum over involutions of the rows.

    The fixed-point weight at x_k is
    sum over other x of 1/(x - x_k) + sum over y of 1/(x_k - y).
    Valid for any number of y values, including fewer than x values.  The
    y terms of x_k are row k of one reciprocal difference matrix, built at the
    first charge, so involution_weighted_sum's RepeatedXRoot comes before any
    SingularEntry.
    """
    a: list[list[complex]] = []

    def charge(k: int) -> complex:
        if not a:
            a.extend(_reciprocal_difference_matrix(X, Y))
        s = X[k]
        acc = 0j
        for i, x in enumerate(X):
            if i != k:
                acc += 1.0 / (x - s)
        for term in a[k]:
            acc += term
        return acc

    return involution_weighted_sum(X, charge)


def delta(values: Sequence[complex]) -> complex:
    """Product of (values[i] - values[j]) over i < j."""
    out = 1 + 0j
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            out *= values[i] - values[j]
    return out


def difference_product(X: Sequence[complex], Y: Sequence[complex]) -> complex:
    """Product of (x - y) over all pairs; the resultant of the monic minimal polynomials."""
    out = 1 + 0j
    for x in X:
        for y in Y:
            out *= x - y
    return out


def _bordered_det(X: Sequence[complex], Y: Sequence[complex], power: int) -> complex:
    n, m = len(X), len(Y)
    if n > m:
        raise BadParams("need len(X) <= len(Y)")
    import numpy as np

    top = _reciprocal_difference_matrix(X, Y, power)
    mat = np.zeros((m, m), dtype=complex)
    for i in range(n):
        mat[i, :] = top[i]
    # Border rows run y^(m-n-1) down to y^0: with descending powers the sign law
    # det C = (-1)^(n(n-1)/2) Delta(X) Delta(Y) / R(X,Y) holds for every m >= n,
    # whereas ascending powers flip it by (-1)^((m-n)(m-n-1)/2).  The ratio
    # det B / det C is independent of the shared border order.
    for k in range(m - n):
        mat[n + k, :] = [y ** (m - n - 1 - k) for y in Y]
    return complex(np.linalg.det(mat))


def cauchy_matrix_det(X: Sequence[complex], Y: Sequence[complex]) -> complex:
    """Determinant of the Cauchy matrix 1/(x_i - y_j), bordered when rectangular.

    With n = len(X) <= m = len(Y), the matrix is m x m: the first n rows are
    the Cauchy entries and the remaining rows are the Vandermonde rows
    y_j^0, ..., y_j^(m-n-1).
    """
    return _bordered_det(X, Y, 1)


def borchardt_matrix_det(X: Sequence[complex], Y: Sequence[complex]) -> complex:
    """Determinant of the squared-entry matrix 1/(x_i - y_j)^2 with the same border."""
    return _bordered_det(X, Y, 2)


def _random_monic_pair(
    rng: random.Random, deg_p: int, deg_q: int
) -> tuple[Polynomial, Polynomial]:
    """A random pair of monic integer polynomials with no common factor,
    coefficients drawn uniformly from [-5, 5]; no root is found."""
    if deg_p < 1 or deg_q < 1:
        raise BadParams("both degrees must be at least 1")
    while True:
        p = Polynomial([rng.randint(-5, 5) for _ in range(deg_p)] + [1])
        q = Polynomial([rng.randint(-5, 5) for _ in range(deg_q)] + [1])
        if resultant(p, q) != 0:
            return p, q


def random_coprime_pair(
    rng: random.Random,
    deg_p: int,
    deg_q: int,
) -> tuple[Polynomial, Polynomial]:
    """A random pair of monic integer polynomials with no common factor.

    Coefficients are drawn uniformly from [-5, 5].  Candidates whose roots
    for the first polynomial find_roots cannot certify (DidNotConverge, or its
    OverflowError at a high degree), or come closer than 1e-6, are rejected,
    so downstream 1/(x_i - x_j) terms stay well conditioned.
    """
    return _random_separated_pair(rng, deg_p, deg_q)[:2]


def _random_separated_pair(
    rng: random.Random, deg_p: int, deg_q: int
) -> tuple[Polynomial, Polynomial, list[complex]]:
    """random_coprime_pair's pair, from the same draws, with the first
    polynomial's roots that its rejection test found."""
    while True:
        p, q = _random_monic_pair(rng, deg_p, deg_q)
        try:
            roots = find_roots(p)
        except (DidNotConverge, OverflowError):
            continue
        if any(
            abs(roots[i] - roots[j]) < 1e-6
            for i in range(deg_p)
            for j in range(i + 1, deg_p)
        ):
            continue
        return p, q, roots


def unit_roots(n: int, sign: int = 1) -> list[complex]:
    """Roots of x^n - 1 (sign=+1) or x^n + 1 (sign=-1), evenly on the unit circle."""
    if n < 1:
        raise BadParams("n must be positive")
    if sign == 1:
        return [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    if sign == -1:
        return [cmath.exp(1j * cmath.pi * (2 * k + 1) / n) for k in range(n)]
    raise BadParams("sign must be +1 or -1")

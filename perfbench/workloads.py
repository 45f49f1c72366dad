"""Seeded operation lists for the three benchmark workloads.

A workload is a list of `Case`s: one command-line operation each, with the
check its output must pass.  `generate` builds the random pairs from a seed
using only this module's own arithmetic (random integer coefficients,
coprimality and squarefreeness tested by a gcd modulo one large prime), so
the cost of making inputs never depends on the layers being measured; the
catalog pairs and their values come from the package's catalog.
`add_references` then computes the other reference values through the
package.  All of this happens before any timing starts.

Workloads:

* ``theorem1_grid``: ``eval`` (auto resolves to theorem1) on random monic
  pairs, square ones in both orientations plus skinny rectangular ones.
* ``banded_fes``: ``eval`` with P = x^n - 1 or 1 + ... + x^(n-1), so auto
  resolves to fes / fes_tilde, plus binomial Q that hit the resultant
  shortcut.
* ``verify_mixed``: ``verify`` on every grid point of the closed-form
  catalog and on random square pairs of degree 6 to 9.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

WORKLOADS = ("theorem1_grid", "banded_fes", "verify_mixed")

# Operation mix.  Per-operation times span three orders of magnitude, so
# sizes come in clusters: the median and the 90th percentile of the
# per-operation latency each fall inside a cluster of same-size operations,
# not in a gap between sizes, which keeps them steady from seed to seed.
# Each operation is timed by its median over the passes of a run, so a pass
# is kept to a few seconds: then a run repeats most operations about ten
# times.
# Square theorem1 pairs as (n, number of pairs); each runs in both orientations.
SQUARE_PAIRS = ((8, 20), (12, 20), (16, 1), (20, 1), (24, 8), (32, 2))
# Skinny (n, m) pairs, where the Sylvester resultant outweighs H @ E.
SKINNY_SIZES = ((2, 128), (6, 96), (8, 128), (10, 128))
# Row family parameter n with the number of random Q for x^n - 1 and for
# 1 + ... + x^(n-1).
FES_ROWS = (
    (4, 4, 3), (5, 3, 3), (6, 3, 3), (7, 3, 3), (8, 3, 3), (12, 13, 13), (16, 2, 2),
    (20, 2, 2), (24, 10, 10), (32, 1, 1), (40, 1, 1), (48, 0, 1), (64, 1, 0),
)
# x^n - 1 against a binomial c*y^m - d, which takes the resultant shortcut.
BINOMIAL_SIZES = (8, 16, 24, 32, 48, 64)
# Random square verify pairs.  The brute oracle takes about 0.5 s at n = 9
# and 6 s at n = 10, so n = 10 would set the length of a pass by itself.
VERIFY_SIZES = (6, 7, 8, 9)
# Operations of degree n <= LIGHT_MAX_N take milliseconds, so each appears
# LIGHT_COPIES times in a pass, at shuffled places: that gives them more
# repetitions, spread over the whole run, for their median time.
LIGHT_MAX_N = 12
LIGHT_COPIES = 2

COEFF_RANGE = 5
FLOAT_TOLERANCE = 1e-6
_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class Case:
    """One operation and how its output is checked.

    `check` is one of:

    * ``"mirror"``: eval whose value is checked by the next case, its mirror;
    * ``"sign"``: eval of the swapped pair of the case before it; the value
      must equal (-1)^n times that case's value;
    * ``"float"``: eval within FLOAT_TOLERANCE of a float reference;
    * ``"exact"``: eval equal to an exact reference;
    * ``"agree"``: verify exits 0 with all routes agreeing, and, when a
      reference is set, the theorem1 route equals it exactly.
    """

    command: str
    P: tuple[Fraction | int, ...]  # coefficients, lowest degree first
    Q: tuple[Fraction | int, ...]
    check: str
    reference: Fraction | complex | None = None

    @property
    def argv(self) -> list[str]:
        return [self.command, "--", render(self.P, "x"), render(self.Q, "y")]


# Arithmetic modulo one prime ------------------------------------------------


def _mod_poly(coeffs: Sequence[int]) -> list[int]:
    out = [c % _PRIME for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_degree(a: Sequence[int], b: Sequence[int]) -> int:
    """Degree of gcd(a, b) modulo the prime; -1 when both vanish there."""
    a, b = _mod_poly(a), _mod_poly(b)
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            factor = a[-1] * inv % _PRIME
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % _PRIME
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def coprime(p: Sequence[int], q: Sequence[int]) -> bool:
    """True when integer polynomials p and q, one of them monic, share no root.

    A common factor over the rationals can be taken monic with integer
    coefficients, and then it survives reduction modulo any prime that does
    not divide the leading coefficients; so a trivial gcd modulo the prime
    proves the pair coprime.
    """
    return _gcd_degree(p, q) == 0


def squarefree(p: Sequence[int]) -> bool:
    """True when the monic integer polynomial p has pairwise distinct roots."""
    derivative = [k * c for k, c in enumerate(p)][1:]
    return coprime(p, derivative)


def random_monic(rng: random.Random, degree: int) -> tuple[int, ...]:
    return tuple(rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(degree)) + (1,)


def random_pair(
    rng: random.Random, n: int, m: int, distinct_p: bool = False, distinct_q: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Random monic integer pair of degrees (n, m) with no shared root."""
    while True:
        p, q = random_monic(rng, n), random_monic(rng, m)
        if not coprime(p, q):
            continue
        if distinct_p and not squarefree(p):
            continue
        if distinct_q and not squarefree(q):
            continue
        return p, q


def render(coeffs: Sequence[Fraction | int], variable: str) -> str:
    """Monomial text such as ``x^3 - 3/2*x + 1`` (coefficients lowest first)."""
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        magnitude = abs(c)
        if k == 0:
            body = str(magnitude)
        else:
            power = variable if k == 1 else f"{variable}^{k}"
            body = power if magnitude == 1 else f"{magnitude}*{power}"
        parts.append(f"{sign} {body}" if parts else ("-" if sign == "-" else "") + body)
    return " ".join(parts) if parts else "0"


# Workload generators --------------------------------------------------------


# Each generator returns units: lists of cases that must run in that order.


def _theorem1_grid(rng: random.Random) -> list[list[Case]]:
    units = []
    for n, pairs in SQUARE_PAIRS:
        for _ in range(pairs):
            p, q = random_pair(rng, n, n)
            unit = [Case("eval", p, q, "mirror"), Case("eval", q, p, "sign")]
            units.extend([unit] * _copies(n))
    for n, m in SKINNY_SIZES:
        p, q = random_pair(rng, n, m, distinct_p=True)
        units.append([Case("eval", p, q, "float")])
    return units


def _power_minus_one(n: int) -> tuple[int, ...]:
    return (-1,) + (0,) * (n - 1) + (1,)


def _copies(n: int) -> int:
    return LIGHT_COPIES if n <= LIGHT_MAX_N else 1


def _banded_fes(rng: random.Random) -> list[list[Case]]:
    units = []
    made = 0
    for n, minus_one_count, all_ones_count in FES_ROWS:
        for p, count in ((_power_minus_one(n), minus_one_count), ((1,) * n, all_ones_count)):
            for _ in range(count):
                # deg Q runs through deg P + 0..3 in turn, the same for every seed.
                degree = len(p) - 1 + made % 4
                made += 1
                while True:
                    q = random_monic(rng, degree)
                    if coprime(p, q):
                        break
                units.extend([[Case("eval", p, q, "exact")]] * _copies(n))
    for index, n in enumerate(BINOMIAL_SIZES):
        m = n + index % 4
        c = rng.randint(1, COEFF_RANGE)
        d = rng.choice([v for v in range(-COEFF_RANGE, COEFF_RANGE + 1) if abs(v) not in (0, c)])
        # |d| != c keeps every root of c*y^m - d off the unit circle.
        q = (-d,) + (0,) * (m - 1) + (c,)
        units.extend([[Case("eval", _power_minus_one(n), q, "exact")]] * _copies(n))
    return units


def _verify_mixed(rng: random.Random) -> list[list[Case]]:
    from scottperm import closed_catalog

    cases = []
    for entry in closed_catalog.catalog_entries():
        for point in entry.grid:
            P, Q = closed_catalog.catalog_family(entry.id, **point)
            value = closed_catalog.catalog_eval(entry.id, **point)
            cases.append(Case("verify", P.coeffs, Q.coeffs, "agree", value))
    for n in VERIFY_SIZES:
        p, q = random_pair(rng, n, n, distinct_p=True, distinct_q=True)
        cases.append(Case("verify", p, q, "agree"))
    return [[case] for case in cases]


_GENERATORS = {
    "theorem1_grid": _theorem1_grid,
    "banded_fes": _banded_fes,
    "verify_mixed": _verify_mixed,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed, in an order shuffled by the seed.

    Only catalog cases carry their reference yet.  The machine can run at
    half speed for a second or two at a time; shuffling spreads each size
    over the whole pass, so such a spell slows a few operations of many
    sizes rather than every operation of one size.
    """
    rng = random.Random(f"{workload}/{seed}")
    units = _GENERATORS[workload](rng)
    rng.shuffle(units)
    return [case for unit in units for case in unit]


def add_references(cases: list[Case]) -> list[Case]:
    """Fill in the reference of every "exact" and "float" case.

    Copies of one case stay one object, so they still count as one operation.
    """
    from scottperm import numeric_oracle, scott_engine
    from scottperm.exact_core import Polynomial

    done: dict[int, Case] = {}
    for case in cases:
        if id(case) in done:
            continue
        P, Q = Polynomial(case.P), Polynomial(case.Q)
        if case.check == "exact":
            done[id(case)] = replace(case, reference=scott_engine.scott_permanent(P, Q).value)
        elif case.check == "float":
            X, Y = numeric_oracle.find_roots(P), numeric_oracle.find_roots(Q)
            done[id(case)] = replace(case, reference=numeric_oracle.involution_sum(X, Y))
        else:
            done[id(case)] = case
    return [done[id(case)] for case in cases]

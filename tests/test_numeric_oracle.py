"""Floating-point oracle: roots, subset-DP permanents, involution sums."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scottperm import (
    BadParams,
    DidNotConverge,
    Polynomial,
    RepeatedXRoot,
    SingularEntry,
    borchardt_matrix_det,
    brute_permanent,
    cauchy_matrix_det,
    find_roots,
    involution_sum,
    involution_weighted_sum,
    poly_gcd,
    random_coprime_pair,
    relative_gap,
    ryser_permanent,
    unit_roots,
)
from scottperm import numeric_oracle
from scottperm.errors import ZeroDegree
from scottperm.numeric_oracle import ROOT_RESIDUAL_TOL, delta, difference_product

INVOLUTION_COUNTS = [1, 1, 2, 4, 10, 26, 76, 232]


def enumerate_involutions(n):
    """All involutions of {0, ..., n-1} as (pairs, fixed) tuples.

    The reference for the involution DP: the lowest remaining element is
    either fixed or paired with one of the others.
    """

    def build(remaining):
        if not remaining:
            yield (), ()
            return
        head, rest = remaining[0], remaining[1:]
        for pairs, fixed in build(rest):
            yield pairs, (head,) + fixed
        for idx, partner in enumerate(rest):
            for pairs, fixed in build(rest[:idx] + rest[idx + 1 :]):
                yield ((head, partner),) + pairs, fixed

    return build(tuple(range(n)))


def permanent_by_permutations(matrix):
    """Permanent of an n x m matrix (n <= m) summed over injective maps."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    total = 0j
    for columns in itertools.permutations(range(m), n):
        term = 1 + 0j
        for row, col in zip(matrix, columns):
            term *= row[col]
        total += term
    return total


# Points of a half-integer lattice are at least 1/2 apart, and shifting the
# rows by 1/4 keeps every row point at least 1/4 from every column point.
lattice = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda t: complex(*t) / 2)


def _close_sets(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    remaining = list(expected)
    for value in got:
        best = min(remaining, key=lambda w: abs(w - value))
        assert abs(best - value) < tol, (value, remaining)
        remaining.remove(best)


class TestFindRoots:
    def test_plus_minus_one(self):
        _close_sets(find_roots(Polynomial([-1, 0, 1])), [1, -1])

    def test_cube_roots_of_unity(self):
        expected = [complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)) for k in range(3)]
        _close_sets(find_roots(Polynomial([-1, 0, 0, 1])), expected)

    def test_imaginary_pair(self):
        _close_sets(find_roots(Polynomial([1, 0, 1])), [1j, -1j])

    def test_constant_rejected(self):
        with pytest.raises(ZeroDegree):
            find_roots(Polynomial([3]))

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=5),
    )
    def test_residuals_below_threshold(self, lower, lead):
        p = Polynomial(lower + [lead])
        roots = find_roots(p)
        assert len(roots) == p.degree
        for root in roots:
            value = sum(complex(p.coeff(k)) * root**k for k in range(p.degree + 1))
            scale = 1 + abs(complex(p.leading)) * abs(root) ** p.degree
            assert abs(value) / scale < 1e-10

    def test_bad_seed_fails_the_residual_check(self, monkeypatch):
        # Newton cannot leave z = 0 on x^2 - 4 (p'(0) = 0), so only the
        # residual check stands between the bad seed and the caller.
        monkeypatch.setattr(np, "roots", lambda c: np.zeros(len(c) - 1, dtype=complex))
        with pytest.raises(DidNotConverge):
            find_roots(Polynomial([-4, 0, 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_float_coefficients_are_those_of_c_over_the_leading_one(self, seed, monkeypatch):
        # Bitwise, -0.0 included: the integer division in find_roots rounds the
        # same rational as float(c / p.leading).
        seen = []
        monkeypatch.setattr(np, "roots", lambda c: seen.append(list(c)) or np.zeros(0))
        rng = random.Random(seed)

        def rational(digits: int) -> Fraction:
            denominator = rng.randint(1, 10 ** rng.randint(1, digits))
            return Fraction(rng.randint(-(10**digits), 10**digits), denominator)

        for _ in range(200):
            lower = [rational(40) * rng.randint(0, 1) for _ in range(rng.randint(1, 6))]
            p = Polynomial(lower + [rational(30) or 1])
            find_roots(p)
            expected = [float(c / p.leading) for c in reversed(p.coeffs)]
            assert [x.hex() for x in seen.pop()] == [x.hex() for x in expected]

    def test_coefficients_past_float_range_overflow(self):
        p = Polynomial([10**400, Fraction(1, 3)])
        with pytest.raises(OverflowError):
            float(p.coeffs[0] / p.leading)
        with pytest.raises(OverflowError):
            find_roots(p)

    @pytest.mark.parametrize("degree", [1, 2, 5, 9, 24])
    def test_each_root_evaluates_p_at_most_three_times(self, degree, monkeypatch):
        # Two guarded Newton steps and the residual check reuse the value of
        # p at the current estimate: 3 evaluations of p and 2 of p' per root.
        calls = {degree + 1: 0, degree: 0}
        original = numeric_oracle._horner

        def counted(coeffs_desc, z):
            calls[len(coeffs_desc)] += 1
            return original(coeffs_desc, z)

        monkeypatch.setattr(numeric_oracle, "_horner", counted)
        rng = random.Random(degree)
        p = Polynomial([rng.randint(-5, 5) for _ in range(degree)] + [1])
        assert len(find_roots(p)) == degree
        assert 0 < calls[degree + 1] <= 3 * degree
        assert calls[degree] <= 2 * degree

    @pytest.mark.parametrize("degree", [64, 128])
    def test_high_degree_roots_pass_the_residual_check(self, degree):
        rng = random.Random(degree)
        p = Polynomial([rng.randint(-5, 5) for _ in range(degree)] + [1])
        roots = find_roots(p)
        assert len(roots) == degree
        assert roots == sorted(roots, key=lambda z: (z.real, z.imag))
        coeffs = [complex(c) for c in reversed(p.coeffs)]
        for z in roots:
            value = 0j
            for c in coeffs:
                value = value * z + c
            assert abs(value) / (1 + abs(z) ** degree) <= ROOT_RESIDUAL_TOL


class TestBrutePermanent:
    def test_even_case_vanishes(self):
        X = find_roots(Polynomial([-1, 0, 1]))
        Y = find_roots(Polynomial([1, 0, 1]))
        assert abs(brute_permanent(X, Y)) < 1e-9

    def test_cube_case(self):
        X = find_roots(Polynomial([-1, 0, 0, 1]))
        Y = find_roots(Polynomial([1, 0, 0, 1]))
        assert abs(brute_permanent(X, Y) - (-3 / 8)) < 1e-9

    def test_more_rows_than_columns_is_exactly_zero(self):
        assert brute_permanent([1.0, 2.0], [5.0]) == 0
        assert brute_permanent([1.0, 2.0, 3.0], [5.0, 6.0]) == 0

    def test_empty_rows_is_one(self):
        assert brute_permanent([], [3.0, 4.0]) == 1

    def test_singular_entry_rejected(self):
        with pytest.raises(SingularEntry):
            brute_permanent([1.0], [1.0 + 1e-13])

    def test_agrees_with_ryser_on_square_instances(self):
        rng = random.Random(2024)
        for n in list(range(2, 8)) + [8]:
            P, Q = random_coprime_pair(rng, n, n)
            X, Y = find_roots(P), find_roots(Q)
            matrix = [[1.0 / (x - y) for y in Y] for x in X]
            direct = brute_permanent(X, Y)
            ryser = ryser_permanent(matrix)
            assert relative_gap(direct, ryser) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 6))
    @given(data=st.data())
    def test_agrees_with_permutation_sum_on_rectangular_instances(self, n, data):
        X = [x + 0.25 for x in data.draw(st.lists(lattice, min_size=n, max_size=n))]
        Y = data.draw(st.lists(lattice, min_size=n, max_size=8))
        matrix = [[1.0 / (x - y) for y in Y] for x in X]
        assert relative_gap(brute_permanent(X, Y), permanent_by_permutations(matrix)) <= 1e-9

    def test_ryser_requires_square(self):
        with pytest.raises(BadParams):
            ryser_permanent([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


class TestEnumerateInvolutions:
    def test_counts_match_recurrence_table(self):
        for n, expected in enumerate(INVOLUTION_COUNTS):
            assert sum(1 for _ in enumerate_involutions(n)) == expected

    def test_recurrence_holds(self):
        counts = [sum(1 for _ in enumerate_involutions(n)) for n in range(8)]
        for n in range(2, 8):
            assert counts[n] == counts[n - 1] + (n - 1) * counts[n - 2]

    @staticmethod
    def _as_mapping(sigma, n):
        pairs, fixed = sigma
        perm = {i: i for i in fixed}
        for i, j in pairs:
            perm[i] = j
            perm[j] = i
        assert sorted(perm) == list(range(n))
        return tuple(perm[i] for i in range(n))

    def test_each_is_self_inverse_and_distinct(self):
        for n in range(7):
            seen = set()
            for sigma in enumerate_involutions(n):
                pairing = self._as_mapping(sigma, n)
                assert pairing not in seen
                seen.add(pairing)
                for i, j in enumerate(pairing):
                    assert pairing[j] == i

    def test_two_elements(self):
        pairings = {self._as_mapping(s, 2) for s in enumerate_involutions(2)}
        assert pairings == {(0, 1), (1, 0)}


class TestInvolutionSum:
    def test_two_rows_one_column_vanishes(self):
        assert abs(involution_sum([2.0, 5.0], [3.0])) < 1e-12

    def test_single_row_is_partial_fraction_sum(self):
        x = 4.0
        Y = [1.0, 2.5, -3.0]
        expected = sum(1.0 / (x - y) for y in Y)
        assert abs(involution_sum([x], Y) - expected) < 1e-12

    def test_cube_case(self):
        X = find_roots(Polynomial([-1, 0, 0, 1]))
        Y = find_roots(Polynomial([1, 0, 0, 1]))
        assert abs(involution_sum(X, Y) - (-3 / 8)) < 1e-9

    @pytest.mark.parametrize("n", range(9))
    @given(data=st.data())
    def test_weighted_sum_matches_enumeration(self, n, data):
        X = data.draw(st.lists(lattice, min_size=n, max_size=n, unique=True))
        weights = data.draw(st.lists(lattice, min_size=n, max_size=n))
        expected = 0j
        for pairs, fixed in enumerate_involutions(n):
            term = 1 + 0j
            for i, j in pairs:
                term *= 1.0 / (X[i] - X[j]) ** 2
            for k in fixed:
                term *= weights[k]
            expected += term
        got = involution_weighted_sum(X, weights.__getitem__)
        assert relative_gap(got, expected) <= 1e-9

    def test_repeated_x_roots_rejected(self):
        with pytest.raises(RepeatedXRoot):
            involution_sum([1.0, 1.0 + 1e-13], [5.0])

    def test_agrees_with_brute_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(40):
            deg_p = rng.randint(1, 6)
            deg_q = rng.randint(deg_p, 7)
            P, Q = random_coprime_pair(rng, deg_p, deg_q)
            X, Y = find_roots(P), find_roots(Q)
            assert relative_gap(involution_sum(X, Y), brute_permanent(X, Y)) <= 1e-6


class TestUnitRoots:
    def test_powers_return_to_sign(self):
        for n in range(1, 8):
            for sign in (1, -1):
                roots = unit_roots(n, sign)
                assert len(roots) == n
                for r in roots:
                    assert abs(r**n - sign) < 1e-12

    def test_match_polynomial_roots(self):
        _close_sets(unit_roots(4), find_roots(Polynomial([-1, 0, 0, 0, 1])))
        _close_sets(unit_roots(3, -1), find_roots(Polynomial([1, 0, 0, 1])))


class TestRandomCoprimePair:
    def test_shapes_and_coprimality(self):
        rng = random.Random(11)
        for _ in range(25):
            deg_p = rng.randint(1, 5)
            deg_q = rng.randint(1, 7)
            P, Q = random_coprime_pair(rng, deg_p, deg_q)
            assert P.degree == deg_p and Q.degree == deg_q
            assert P.leading == 1 and Q.leading == 1
            assert all(abs(P.coeff(k)) <= 5 for k in range(deg_p))
            assert all(abs(Q.coeff(k)) <= 5 for k in range(deg_q))
            assert poly_gcd(P, Q).degree == 0

    def test_x_roots_are_separated(self):
        rng = random.Random(12)
        for _ in range(15):
            P, _ = random_coprime_pair(rng, 4, 5)
            X = find_roots(P)
            for i in range(len(X)):
                for j in range(i + 1, len(X)):
                    assert abs(X[i] - X[j]) > 1e-6


def _cauchy_closed_form(X, Y):
    n = len(X)
    return (-1) ** (n * (n - 1) // 2) * delta(X) * delta(Y) / difference_product(X, Y)


class TestBorderedDeterminants:
    def test_square_case_closed_form(self):
        X, Y = [1.0, -1.0], [1j, -1j]
        assert abs(cauchy_matrix_det(X, Y) - _cauchy_closed_form(X, Y)) < 1e-9

    def test_two_row_border_closed_form(self):
        X, Y = [0.5], [1.0, 2.0, -3.0]
        got = cauchy_matrix_det(X, Y)
        assert abs(got - _cauchy_closed_form(X, Y)) < 1e-9

    def test_closed_form_across_shapes(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(n, 7)
            P, Q = random_coprime_pair(rng, n, m)
            X, Y = find_roots(P), find_roots(Q)
            assert relative_gap(cauchy_matrix_det(X, Y), _cauchy_closed_form(X, Y)) <= 1e-6

    def test_squared_matrix_ratio_is_the_permanent(self):
        rng = random.Random(32)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 5)
            m = rng.randint(n, 6)
            P, Q = random_coprime_pair(rng, n, m)
            X, Y = find_roots(P), find_roots(Q)
            det_c = cauchy_matrix_det(X, Y)
            if abs(det_c) < 1e-9:
                continue
            ratio = borchardt_matrix_det(X, Y) / det_c
            assert relative_gap(ratio, brute_permanent(X, Y)) <= 1e-6
            checked += 1

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(BadParams):
            cauchy_matrix_det([1.0, 2.0], [3.0])
        with pytest.raises(BadParams):
            borchardt_matrix_det([1.0, 2.0], [3.0])

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
        monkeypatch.setattr(numeric_oracle, "_root_seeds", lambda c: [0j] * (len(c) - 1))
        with pytest.raises(DidNotConverge):
            find_roots(Polynomial([-4, 0, 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_float_coefficients_are_those_of_c_over_the_leading_one(self, seed, monkeypatch):
        # Bitwise, -0.0 included: the integer division in find_roots rounds the
        # same rational as float(c / p.leading).
        seen = []
        monkeypatch.setattr(numeric_oracle, "_root_seeds", lambda c: seen.append(list(c)) or [])
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

    @staticmethod
    def _seeded_polynomials(kind: str, rng: random.Random) -> list[Polynomial]:
        def rational() -> Fraction:
            return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10 ** rng.randint(1, 6)))

        polys = []
        for _ in range(150):
            n = 1 if kind == "degree 1" else rng.randint(2, 9)
            if kind == "zero roots":
                zeros = rng.randint(1, n)
                coeffs = [0] * zeros + [rng.randint(-5, 5) for _ in range(n - zeros)] + [rng.randint(1, 5)]
            elif kind == "non-monic":
                coeffs = [rng.randint(-5, 5) for _ in range(n)] + [rng.choice([-7, -2, 3, 10])]
            else:  # degree 1 and rational
                coeffs = [rational() for _ in range(n)] + [rational() or 1]
            polys.append(Polynomial(coeffs))
        return polys

    @pytest.mark.parametrize("kind", ["degree 1", "zero roots", "rational", "non-monic"])
    def test_seeds_are_those_of_numpy_roots_bit_for_bit(self, kind, monkeypatch):
        calls, original = [], numeric_oracle._root_seeds

        def recorded(monic_desc):
            seeds = original(monic_desc)
            calls.append((list(monic_desc), seeds))
            return seeds

        monkeypatch.setattr(numeric_oracle, "_root_seeds", recorded)
        for p in self._seeded_polynomials(kind, random.Random(kind)):
            try:
                find_roots(p)
            except DidNotConverge:  # the seeds are compared all the same
                pass
        assert len(calls) == 150
        for monic_desc, seeds in calls:
            expected = np.roots(monic_desc).astype(complex).tolist()
            assert all(type(z) is complex for z in seeds)
            assert [(z.real.hex(), z.imag.hex()) for z in seeds] == [
                (z.real.hex(), z.imag.hex()) for z in expected
            ], monic_desc

    @pytest.mark.parametrize(
        "coeffs,power",
        [([1, 0, 10**400], 0), ([0, 3, 10**400], 1), ([10**890, 0, 1, 10**900], 2), ([1, 2, 10**330], 0)],
    )
    def test_a_nonzero_coefficient_that_underflows_is_did_not_converge(self, coeffs, power, monkeypatch):
        # 1 / 10**400 rounds to 0.0: taken as a zero coefficient, it would make
        # zero roots that the residual check, in the same floats, passes.
        monkeypatch.setattr(numeric_oracle, "_root_seeds", lambda c: pytest.fail("seeds were found"))
        message = rf"^the x\^{power} coefficient of the monic form underflows to 0\.0$"
        with pytest.raises(DidNotConverge, match=message):
            find_roots(Polynomial(coeffs))

    def test_polynomials_without_underflow_reach_the_seeds_unchanged(self, monkeypatch):
        # Exact zeros, and ratios down to about 1e-308, are no underflow.
        seen = []
        monkeypatch.setattr(numeric_oracle, "_root_seeds", lambda c: seen.append(list(c)) or [])
        rng = random.Random(33)
        for i in range(3000):
            n = rng.randint(1, 12)
            if i % 3 == 0:
                coeffs = [rng.randint(-5, 5) * rng.randint(0, 1) for _ in range(n)] + [rng.randint(1, 9)]
            elif i % 3 == 1:
                coeffs = [rng.randint(-9, 9) * 10 ** rng.randint(0, 300) for _ in range(n)]
                coeffs.append(10 ** rng.randint(0, 300))
            else:
                coeffs = [0] * rng.randint(0, n)
                coeffs += [Fraction(rng.randint(-99, 99), rng.randint(1, 10**8)) for _ in range(n)]
                coeffs.append(rng.choice([1, -2, Fraction(7, 3), 10**300]))
            p = Polynomial(coeffs)
            find_roots(p)
            assert [x.hex() for x in seen.pop()] == [float(c / p.leading).hex() for c in reversed(p.coeffs)]
        assert seen == []

    def test_a_refused_newton_step_ends_the_polishing(self, monkeypatch):
        # At an exact root the step goes nowhere and is refused; a second step
        # would take the same p'(z) and refuse the same candidate.
        calls = {3: 0, 2: 0}
        original = numeric_oracle._horner

        def counted(coeffs_desc, z):
            calls[len(coeffs_desc)] += 1
            return original(coeffs_desc, z)

        monkeypatch.setattr(numeric_oracle, "_root_seeds", lambda c: [2 + 0j, -2 + 0j])
        monkeypatch.setattr(numeric_oracle, "_horner", counted)
        assert find_roots(Polynomial([-4, 0, 1])) == [-2 + 0j, 2 + 0j]
        assert calls == {3: 4, 2: 2}

    @pytest.mark.parametrize("c", [Fraction(-2), Fraction(3, 7)])
    def test_a_scaled_polynomial_has_the_same_roots(self, c):
        P = Polynomial([Fraction(1, 3), -2, 0, 5, Fraction(7, 2)])
        assert find_roots(P * c) == find_roots(P)

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

    def test_singular_entry_rejected_with_brute_permanents_message(self):
        with pytest.raises(SingularEntry) as brute:
            brute_permanent([1.0], [1.0 + 1e-13])
        with pytest.raises(SingularEntry) as involution:
            involution_sum([1.0], [1.0 + 1e-13])
        assert str(involution.value) == str(brute.value)

    def test_repeated_x_roots_are_found_before_a_singular_entry(self):
        with pytest.raises(RepeatedXRoot):
            involution_sum([1.0, 1.0 + 1e-13], [1.0])

    def test_a_singular_entry_in_a_later_row_has_brute_permanents_message(self):
        X, Y = [1.0, 3.0], [7.0, 3.0 + 1e-13]
        with pytest.raises(SingularEntry) as brute:
            brute_permanent(X, Y)
        with pytest.raises(SingularEntry) as involution:
            involution_sum(X, Y)
        assert str(involution.value) == str(brute.value)
        assert "x=3.0" in str(involution.value)

    def test_one_reciprocal_difference_matrix_per_sum(self, monkeypatch):
        calls, original = [], numeric_oracle._reciprocal_difference_matrix

        def recorded(X, Y, power=1):
            calls.append((list(X), list(Y), power))
            return original(X, Y, power)

        monkeypatch.setattr(numeric_oracle, "_reciprocal_difference_matrix", recorded)
        X, Y = [0.5, 1.5j, -2.0, 3.0 + 1.0j], [0.25, -1.0, 2.0j, 4.0, -3.0j]
        involution_sum(X, Y)
        assert calls == [(X, Y, 1)]

    def test_fixed_point_weight_adds_its_terms_in_order(self):
        # sum over other x of 1/(x - x_k), then over y of 1/(x_k - y), term by
        # term from 0j: the value is bitwise that of the weight written out.
        rng = random.Random(11)
        for _ in range(20):
            P, Q = random_coprime_pair(rng, rng.randint(1, 5), rng.randint(1, 6))
            X, Y = find_roots(P), find_roots(Q)

            def written_out(k):
                acc = 0j
                for i, x in enumerate(X):
                    if i != k:
                        acc += 1.0 / (x - X[k])
                for y in Y:
                    acc += 1.0 / (X[k] - y)
                return acc

            assert involution_sum(X, Y) == involution_weighted_sum(X, written_out)

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

    @pytest.mark.parametrize("n,sign", [(0, 1), (-1, -1), (3, 2), (3, 0)])
    def test_bad_arguments_rejected(self, n, sign):
        with pytest.raises(BadParams):
            unit_roots(n, sign)


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

    def test_a_candidate_whose_roots_overflow_is_drawn_again(self, monkeypatch):
        # find_roots' OverflowError, as at a high degree, rejects the candidate
        # like DidNotConverge; the next candidate is the next draw of the rng.
        original, overflowed = numeric_oracle.find_roots, []

        def overflow_once(p):
            if not overflowed:
                overflowed.append(p)
                raise OverflowError("|z|^3 overflows in the residual check")
            return original(p)

        monkeypatch.setattr(numeric_oracle, "find_roots", overflow_once)
        P, Q = random_coprime_pair(random.Random(4), 3, 4)
        rng = random.Random(4)
        first = [rng.randint(-5, 5) for _ in range(3 + 4)]
        assert overflowed == [Polynomial(first[:3] + [1])]
        assert (P, Q) == random_coprime_pair(rng, 3, 4)

    @pytest.mark.parametrize("deg_p,deg_q", [(0, 2), (2, 0)])
    def test_degrees_must_be_positive(self, deg_p, deg_q):
        with pytest.raises(BadParams, match="at least 1"):
            random_coprime_pair(random.Random(0), deg_p, deg_q)


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

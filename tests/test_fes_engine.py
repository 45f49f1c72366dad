"""Banded-determinant shortcut for the two cyclotomic row families."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottperm import (
    Polynomial,
    RowFamily,
    SharedRoot,
    ZeroLeadingCoefficient,
    classify_row_polynomial,
    exact_det,
    fes,
    fes_matrix,
    fes_tilde,
    fes_tilde_matrix,
    per_via_fes,
    poly_gcd,
    resultant,
    scott_permanent,
    special_resultant,
)
from scottperm import fes_engine
from scottperm.errors import BadParams, ResourceLimit, ZeroDegree
from scottperm.exact_core import MAX_DEGREE
from scottperm.fes_engine import all_ones_poly, power_minus_one
from scottperm.scott_engine import evaluate
from test_exact_core import degree_polys

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def monomial(r: int, a) -> Polynomial:
    return Polynomial.from_pairs([(r, a)])


# c*y^m - d with m up to 64; d = c or d = -c puts a root of unity among Q's roots.
binomial_columns = st.builds(
    lambda m, c, d, tie: Polynomial.from_pairs([(0, -(tie * c if tie else d)), (m, c)]),
    st.integers(min_value=1, max_value=64),
    rationals.filter(bool),
    rationals,
    st.sampled_from([0, 1, -1]),
)


class TestBrokenDiag:
    """A Q with one nonzero coefficient a*y^r gives one broken diagonal of
    fes_matrix, or one added-and-subtracted pair of fes_tilde_matrix."""

    def test_start_row_one_is_plain_diagonal(self):
        # r = 4 is 1 mod 3, so the values (4, 3, 2) * a start in row 1.
        assert fes_matrix(3, monomial(4, 7)).to_lists() == [[28, 0, 0], [0, 21, 0], [0, 0, 14]]

    def test_wrapped_placement(self):
        t = Fraction(7)
        assert fes_matrix(3, monomial(3, t)).to_lists() == [
            [0, 2 * t, 0],
            [0, 0, t],
            [3 * t, 0, 0],
        ]

    def test_fully_broken_two_by_two(self):
        assert fes_matrix(2, monomial(2, 1)).to_lists() == [[0, 1], [2, 0]]

    def test_value_count_must_match_size(self):
        # One value per column, whatever deg Q: n of them for fes, n - 1 for fes_tilde.
        Q = monomial(10, Fraction(1, 3))
        fes_entries = [v for row in fes_matrix(4, Q).to_lists() for v in row if v]
        assert len(fes_entries) == 4 and fes_matrix(4, Q).rows == 4
        assert sorted(fes_entries) == [Fraction(k, 3) for k in (7, 8, 9, 10)]
        tilde = fes_tilde_matrix(4, Q)
        assert (tilde.rows, tilde.cols) == (3, 3)

    def test_start_row_must_be_in_range(self):
        # Exponents past n wrap: y^(5 + 3k) starts in the same row as y^5.
        for k in range(4):
            rows = fes_matrix(3, monomial(5 + 3 * k, 1)).to_lists()
            support = {(i, j) for i in range(3) for j in range(3) if rows[i][j]}
            assert support == {(1, 0), (2, 1), (0, 2)}

    def test_wrapped_pair_for_fes_tilde(self):
        # r = 3, n = 3: +a_r's diagonal loses the entry on row 3, and so does
        # the -a_r copy one row up.
        t = Fraction(5, 2)
        assert fes_tilde_matrix(3, monomial(3, t)).to_lists() == [[0, 2 * t], [-3 * t, 0]]
        a = Fraction(-3)
        assert fes_tilde_matrix(5, monomial(2, a)).to_lists() == [
            [-2 * a, 0, 0, 0],
            [2 * a, -a, 0, 0],
            [0, a, 0, 0],
            [0, 0, 0, a],
        ]

    def test_size_must_be_positive(self):
        with pytest.raises(ZeroDegree):
            fes_matrix(0, monomial(1, 1))
        with pytest.raises(ZeroDegree):
            fes(monomial(1, 1), 0)

    def test_row_polynomials_need_a_root(self):
        assert power_minus_one(1) == Polynomial([-1, 1])
        assert all_ones_poly(2) == Polynomial([1, 1])
        with pytest.raises(ZeroDegree):
            power_minus_one(0)
        with pytest.raises(ZeroDegree):
            all_ones_poly(1)


def quartic(a0, a1, a2, a3) -> Polynomial:
    return Polynomial([a0, a1, a2, a3, 1])


class TestFesMatrix:
    @pytest.mark.parametrize(
        "a0,a1,a2,a3",
        [
            (Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(-5)),
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        ],
    )
    def test_golden_three_by_three_sum(self, a0, a1, a2, a3):
        got = fes_matrix(3, quartic(a0, a1, a2, a3)).to_lists()
        assert got == [
            [a1 + 4, -a0 + 2 * a3, 0],
            [2 * a2, 3, -2 * a0 + a3],
            [3 * a3, a2, -a1 + 2],
        ]

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ZeroDegree):
            fes_matrix(3, Polynomial([]))


class TestFes:
    @given(rationals)
    def test_linear_base_case_is_one(self, b):
        assert fes(Polynomial([-b, 1]), 1) == 1

    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=7),
    )
    def test_homogeneous_of_degree_n(self, scale, coeffs):
        Q = Polynomial(coeffs)
        if Q.degree is None or Q.degree == 0:
            Q = Polynomial([1, 1])
        n = 3
        scaled = Polynomial([scale * Q.coeff(k) for k in range(Q.degree + 1)])
        assert fes(scaled, n) == scale**n * fes(Q, n)


class TestFesTilde:
    def test_smallest_case_is_one_by_one(self):
        matrix = fes_tilde_matrix(2, Polynomial([1, 1, 1]))
        assert matrix.rows == 1 and matrix.cols == 1
        assert fes_tilde(Polynomial([1, 1, 1]), 2) == matrix.at(0, 0)

    def test_needs_at_least_two_rows(self):
        with pytest.raises(ZeroDegree):
            fes_tilde_matrix(1, Polynomial([1, 1]))


def _written_out(family: RowFamily, n: int, Q: Polynomial) -> list[list[Fraction]]:
    """The broken-diagonal matrix from Q's coefficients as given: a_r puts (r - c) a_r
    at row (r + c - 1) mod n, column c; the all-ones rows are each minus the next."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r, a in enumerate(Q.coeffs):
        for c in range(n):
            rows[(r + c - 1) % n][c] += (r - c) * a
    if family is RowFamily.POWER_MINUS_ONE:
        return rows
    return [[a - b for a, b in zip(rows[k][:-1], rows[k + 1])] for k in range(n - 1)]


class TestReferencesOnKeys:
    """fes, fes_tilde and their matrices build their rows from Q's key and scale
    them by one rational factor; on rational non-monic Q they still equal the
    written-out matrix, its determinant and theorem1's numerator, as Fractions."""

    @pytest.mark.parametrize("family", list(RowFamily))
    def test_rational_non_monic_columns(self, family):
        rng = random.Random(31)
        minus_one = family is RowFamily.POWER_MINUS_ONE
        value, matrix = (fes, fes_matrix) if minus_one else (fes_tilde, fes_tilde_matrix)
        for _ in range(30):
            n = rng.randint(1 if minus_one else 2, 9)
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(rng.randint(n, n + 6))]
            Q = Polynomial(coeffs + [Fraction(rng.choice((-7, -3, -2, 2, 3, 5)), rng.choice((1, 2, 3, 4)))])
            det, rows = value(Q, n), matrix(n, Q)
            assert type(det) is Fraction and all(type(v) is Fraction for v in rows.entries)
            assert rows.to_lists() == _written_out(family, n, Q)
            assert det == exact_det(rows)
            P = power_minus_one(n) if minus_one else all_ones_poly(n)
            if resultant(P, Q):
                assert det / resultant(P, Q) == scott_permanent(P, Q).value, (n, Q)

    @pytest.mark.parametrize("build", [fes, fes_tilde, lambda Q, n: fes_matrix(n, Q),
                                       lambda Q, n: fes_tilde_matrix(n, Q)])
    def test_a_zero_column_polynomial_is_zero_degree(self, build):
        # The rows are built before Q's leading coefficient is read.
        with pytest.raises(ZeroDegree, match="the column polynomial must be nonzero"):
            build(Polynomial(), 3)


class TestSpecialResultant:
    def test_square_pair(self):
        assert special_resultant(1, 1, 1, -1, 2, 2) == 4

    def test_identical_binomials_vanish(self):
        assert special_resultant(1, 1, 1, 1, 3, 3) == 0

    def test_binomial_cubic(self):
        assert special_resultant(1, 1, 3, 5, 2, 3) == 16

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ZeroLeadingCoefficient):
            special_resultant(0, 1, 1, 1, 2, 2)
        with pytest.raises(ZeroLeadingCoefficient):
            special_resultant(1, 1, 0, 1, 2, 2)

    def test_zero_degree_rejected(self):
        with pytest.raises(ZeroDegree):
            special_resultant(1, 1, 1, 1, 0, 2)
        with pytest.raises(ZeroDegree):
            special_resultant(1, 1, 1, 1, 2, 0)

    @given(
        st.integers(min_value=-4, max_value=4).filter(bool),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4).filter(bool),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_sylvester_resultant(self, a, b, c, d, m, n):
        p = Polynomial.from_pairs([(m, a), (0, -b)])
        q = Polynomial.from_pairs([(n, c), (0, -d)])
        assert special_resultant(a, b, c, d, m, n) == resultant(p, q)

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool))
    def test_scales_with_degree_of_first_argument(self, scale):
        base = special_resultant(2, 3, 1, 5, 3, 4)
        scaled = special_resultant(2, 3, scale * 1, scale * 5, 3, 4)
        assert scaled == scale**3 * base


class TestClassifyRowPolynomial:
    def test_power_family(self):
        assert classify_row_polynomial(power_minus_one(5)) == (RowFamily.POWER_MINUS_ONE, 5)

    def test_all_ones_family(self):
        assert classify_row_polynomial(Polynomial([1, 1, 1, 1])) == (RowFamily.ALL_ONES, 4)

    def test_detection_is_up_to_scale(self):
        assert classify_row_polynomial(Polynomial([-2, 0, 0, 2])) == (
            RowFamily.POWER_MINUS_ONE,
            3,
        )

    def test_other_polynomials_are_unclassified(self):
        assert classify_row_polynomial(Polynomial([2, 0, 1])) is None
        assert classify_row_polynomial(Polynomial([7])) is None


class TestPerViaFes:
    def test_cube_case_uses_binomial_shortcut(self):
        result = per_via_fes(RowFamily.POWER_MINUS_ONE, 3, Polynomial([1, 0, 0, 1]))
        assert result.value == Fraction(-3, 8)
        assert result.method == "fes"

    def test_factorial_family(self):
        for n in range(2, 7):
            Q = Polynomial.from_pairs([(0, 1), (n, 1), (2 * n, 1)])
            result = per_via_fes("power_minus_one", n, Q)
            assert result.value == (-1) ** (n + 1) * math.factorial(n)

    def test_all_ones_smallest(self):
        result = per_via_fes(RowFamily.ALL_ONES, 2, Polynomial([1, 1, 1]))
        assert result.value == -1
        assert result.method == "fes_tilde"

    def test_shared_root_rejected(self):
        with pytest.raises(SharedRoot):
            per_via_fes(RowFamily.POWER_MINUS_ONE, 3, Polynomial([-1, 0, 0, 1]))
        with pytest.raises(SharedRoot):
            per_via_fes(RowFamily.ALL_ONES, 3, Polynomial([1, 1, 1]))

    @pytest.mark.parametrize("kind", ["fes", "x", 3])
    def test_unknown_kind_is_bad_params_naming_the_families(self, kind):
        with pytest.raises(BadParams, match="unknown row family") as caught:
            per_via_fes(kind, 3, Polynomial([1, 0, 0, 0, 1]))
        assert "'power_minus_one'" in str(caught.value) and "'all_ones'" in str(caught.value)

    def test_zero_column_polynomial_rejected(self):
        for kind in RowFamily:
            with pytest.raises(ZeroDegree, match="column polynomial must be nonzero"):
                per_via_fes(kind, 3, Polynomial([]))

    @pytest.mark.parametrize(
        "kind,n,Q",
        [
            (RowFamily.POWER_MINUS_ONE, 3, Polynomial([-1, 0, 0, 1])),
            (RowFamily.POWER_MINUS_ONE, 4, Polynomial([-2, 2, -1, 1])),
            (RowFamily.ALL_ONES, 3, Polynomial([1, 1, 1])),
        ],
    )
    def test_shared_root_is_pairs_error_with_its_message(self, kind, n, Q):
        P = power_minus_one(n) if kind is RowFamily.POWER_MINUS_ONE else all_ones_poly(n)
        with pytest.raises(SharedRoot) as direct:
            per_via_fes(kind, n, Q)
        with pytest.raises(SharedRoot) as routed:
            evaluate(P, Q, "fes")
        assert str(direct.value) == str(routed.value)

    @given(st.integers(min_value=1, max_value=8), degree_polys(0, 4))
    def test_shared_root_rejected_power_family(self, n, cofactor):
        Q = cofactor * Polynomial([-1, 1])  # 1 is a root of every x^n - 1
        with pytest.raises(SharedRoot):
            per_via_fes(RowFamily.POWER_MINUS_ONE, n, Q)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        rationals.filter(bool),
    )
    def test_shared_root_rejected_by_binomial_shortcut(self, n, m, c):
        Q = Polynomial.from_pairs([(0, -c), (m, c)])  # c*y^m - c vanishes at 1
        with pytest.raises(SharedRoot):
            per_via_fes(RowFamily.POWER_MINUS_ONE, n, Q)

    @given(st.integers(min_value=1, max_value=4), degree_polys(0, 4))
    def test_shared_root_rejected_all_ones_family(self, half, cofactor):
        Q = cofactor * Polynomial([1, 1])  # -1 is a root of 1 + ... + x^(n-1) for even n
        with pytest.raises(SharedRoot):
            per_via_fes(RowFamily.ALL_ONES, 2 * half, Q)

    def test_shared_root_found_before_any_matrix_is_built(self, monkeypatch):
        def unreachable(family, n, Q):
            raise AssertionError("matrix built for a pair with a shared root")

        monkeypatch.setattr(fes_engine, "_banded_rows", unreachable)
        for kind, n, Q in (
            (RowFamily.POWER_MINUS_ONE, 3, Polynomial([-1, 0, 0, 1])),  # binomial Q
            (RowFamily.POWER_MINUS_ONE, 4, Polynomial([-2, 2, -1, 1])),  # (y - 1)(y^2 + 2)
            (RowFamily.ALL_ONES, 3, Polynomial([1, 1, 1])),
        ):
            with pytest.raises(SharedRoot):
                per_via_fes(kind, n, Q)

    def test_binomial_columns_take_the_general_resultant(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("per_via_fes took a second resultant path")

        monkeypatch.setattr(fes_engine, "special_resultant", unreachable)
        result = per_via_fes(RowFamily.POWER_MINUS_ONE, 3, Polynomial([1, 0, 0, 1]))
        assert result.value == Fraction(-3, 8)
        with pytest.raises(SharedRoot):
            per_via_fes(RowFamily.POWER_MINUS_ONE, 4, Polynomial.from_pairs([(0, 3), (6, -3)]))

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_a_degree_above_the_budget_is_pairs_resource_limit(self, monkeypatch, side):
        big = MAX_DEGREE + 1
        n, Q = (big, Polynomial([3, 1])) if side == "row" else (3, Polynomial.from_pairs([(0, 2), (big, 1)]))
        with pytest.raises(ResourceLimit) as routed:
            evaluate(power_minus_one(n), Q, "fes")

        def unreachable(*args):
            raise AssertionError("work done on a polynomial above the degree budget")

        monkeypatch.setattr(fes_engine, "power_minus_one", unreachable)
        monkeypatch.setattr(fes_engine, "_coprime_resultant", unreachable)
        with pytest.raises(ResourceLimit) as direct:
            per_via_fes(RowFamily.POWER_MINUS_ONE, n, Q)
        assert str(direct.value) == str(routed.value)
        assert f"the {side} polynomial's degree 1025 is above" in str(direct.value)

    def test_the_budget_is_admitted(self, monkeypatch):
        # _bareiss only counts the rows, so no 1024 x 1024 determinant is taken.
        monkeypatch.setattr(fes_engine, "_bareiss", len)
        result = per_via_fes(RowFamily.POWER_MINUS_ONE, MAX_DEGREE, Polynomial([3, 1]))
        assert (result.n, result.m) == (1024, 1)
        column = Polynomial.from_pairs([(0, 3), (MAX_DEGREE, 1)])
        assert per_via_fes(RowFamily.POWER_MINUS_ONE, 2, column).m == 1024

    def test_vanishes_with_more_rows_than_columns(self):
        result = per_via_fes(RowFamily.POWER_MINUS_ONE, 4, Polynomial([1, 0, 2]))
        assert result.value == 0
        assert any("vanishes" in note for note in result.notes)
        assert fes(Polynomial([1, 0, 2]), 4) == 0

    @given(
        st.sampled_from(list(RowFamily)),
        st.integers(min_value=2, max_value=12),
        st.one_of(degree_polys(1, 14), binomial_columns),
    )
    @settings(max_examples=100)  # half of the examples are binomial columns
    def test_route_equivalence_on_rational_columns(self, family, n, Q):
        # Q is rational and not monic, so fes divides out a power of its denominator.
        P = power_minus_one(n) if family is RowFamily.POWER_MINUS_ONE else all_ones_poly(n)
        if resultant(P, Q) == 0:
            with pytest.raises(SharedRoot):
                per_via_fes(family, n, Q)
            return
        assert per_via_fes(family, n, Q).value == scott_permanent(P, Q).value

    def test_route_equivalence_power_family(self):
        rng = random.Random(50)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 5)
            degree = rng.randint(1, 8)
            Q = Polynomial([rng.randint(-5, 5) for _ in range(degree)] + [rng.choice([1, 2, -3])])
            P = power_minus_one(n)
            if Q.degree is None or poly_gcd(P, Q).degree != 0:
                continue
            assert per_via_fes(RowFamily.POWER_MINUS_ONE, n, Q).value == scott_permanent(P, Q).value
            checked += 1

    def test_route_equivalence_all_ones_family(self):
        rng = random.Random(51)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 5)
            degree = rng.randint(1, 8)
            Q = Polynomial([rng.randint(-5, 5) for _ in range(degree)] + [rng.choice([1, 2, -3])])
            P = all_ones_poly(n)
            if Q.degree is None or poly_gcd(P, Q).degree != 0:
                continue
            assert per_via_fes(RowFamily.ALL_ONES, n, Q).value == scott_permanent(P, Q).value
            checked += 1

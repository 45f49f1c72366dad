"""Exact rational substrate: polynomial ring, series, determinants, resultants."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scottperm import (
    BothZero,
    NonSquare,
    Polynomial,
    RationalMatrix,
    ZeroConstantTerm,
    ZeroPolynomial,
    exact_det,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    resultant,
    series_inverse,
    sylvester_matrix,
)
from scottperm import exact_core
from scottperm.exact_core import _bareiss, _pseudo_remainder, _subresultant
from scottperm.fes_engine import RowFamily, _banded_rows
from scottperm.scott_engine import _theorem1_rows

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def polys(max_degree: int = 6) -> st.SearchStrategy[Polynomial]:
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(Polynomial)


def nonzero_polys(max_degree: int = 6) -> st.SearchStrategy[Polynomial]:
    return polys(max_degree).filter(lambda p: not p.is_zero)


def positive_degree_polys(max_degree: int = 5) -> st.SearchStrategy[Polynomial]:
    return polys(max_degree).filter(lambda p: p.degree is not None and p.degree >= 1)


def degree_polys(lo: int, hi: int) -> st.SearchStrategy[Polynomial]:
    """Polynomials of degree lo..hi with a nonzero, not necessarily unit, leading coefficient."""
    return st.tuples(
        st.lists(rationals, min_size=lo, max_size=hi), rationals.filter(bool)
    ).map(lambda parts: Polynomial(parts[0] + [parts[1]]))


X_MINUS_1 = Polynomial([-1, 1])
X_PLUS_1 = Polynomial([1, 1])
X2_MINUS_1 = Polynomial([-1, 0, 1])
X2_PLUS_1 = Polynomial([1, 0, 1])


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial_has_no_degree(self):
        zero = Polynomial([0, 0, 0])
        assert zero.is_zero
        assert zero.degree is None
        assert zero == Polynomial([])

    def test_coeff_out_of_range_is_zero(self):
        p = Polynomial([5, 7])
        assert p.coeff(0) == 5
        assert p.coeff(1) == 7
        assert p.coeff(2) == 0
        assert p.coeff(99) == 0

    def test_from_pairs_accumulates_repeats(self):
        p = Polynomial.from_pairs([(0, 1), (2, 3), (2, -1)])
        assert p == Polynomial([1, 0, 2])

    def test_from_pairs_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Polynomial.from_pairs([(-1, 2)])

    def test_monic(self):
        assert Polynomial([2, 0, 4]).monic() == Polynomial([Fraction(1, 2), 0, 1])

    def test_key_is_the_primitive_list_with_a_positive_lead(self):
        assert Polynomial().key == []
        assert Polynomial([4, 0, -6]).key == [-2, 0, 3]
        P = Polynomial([Fraction(1, 2), Fraction(-2, 3), -5])
        assert P.key == [-3, 4, 30]
        assert P.key is P.key
        for c in (Fraction(-7, 3), 10**12):
            assert (P * c).key == P.key
        # The kept key is no field: equality, hash and repr stay on the coefficients.
        fresh = Polynomial(P.coeffs)
        assert P == fresh and hash(P) == hash(fresh) and repr(P) == repr(fresh)

    def test_immutable_value_semantics(self):
        # What a frozen dataclass over `coeffs` gave: equality within the class
        # only, the hash of (coeffs,), and no attribute set or deleted.
        P = Polynomial([1, Fraction(1, 2)])
        assert P == Polynomial([1, Fraction(1, 2), 0]) and P != Polynomial([1])
        assert P != P.coeffs and P.__eq__(P.coeffs) is NotImplemented
        assert hash(P) == hash((P.coeffs,))
        assert len({P, Polynomial([1, Fraction(1, 2)])}) == 1
        with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
            P.coeffs = ()
        with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
            del P.coeffs
        assert P.coeffs == (1, Fraction(1, 2))

    def test_negation_subtraction_and_repr(self):
        p, q = Polynomial([1, Fraction(1, 2), 3]), Polynomial([4, 0, 3])
        assert -p == Polynomial([-1, Fraction(-1, 2), -3])
        assert p - q == Polynomial([-3, Fraction(1, 2)])
        assert (p - p).is_zero
        assert repr(Polynomial([1, 2])) == "Polynomial([Fraction(1, 1), Fraction(2, 1)])"

    @pytest.mark.parametrize(
        "values",
        [
            [0, 1, -1, 5, -5],  # in the shared table
            [True, False, True],  # bools are ints
            [128, -128, 129, -129, 10**30, -(10**30)],  # the table's edges and beyond
            [-7, -3, -200],  # negative, inside and outside the table
        ],
    )
    def test_int_coefficients_are_equal_fractions(self, values):
        coeffs = Polynomial(values).coeffs
        assert coeffs == tuple(Fraction(int(v)) for v in values)
        for c, v in zip(coeffs, values):
            assert type(c) is Fraction
            assert (type(c.numerator), type(c.denominator)) == (int, int)
            assert hash(c) == hash(Fraction(int(v)))

    @given(polys(), polys())
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys(), polys())
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polys(3), polys(3), polys(3))
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(nonzero_polys(4), nonzero_polys(4))
    def test_degree_adds_under_multiplication(self, p, q):
        assert (p * q).degree == p.degree + q.degree


class TestPolyEval:
    def test_root_of_quadratic(self):
        assert poly_eval(X2_MINUS_1, 1) == 0

    def test_direct_arithmetic(self):
        assert poly_eval(X2_MINUS_1, 3) == 8

    def test_zero_polynomial(self):
        assert poly_eval(Polynomial([]), 5) == 0

    @given(polys(4), polys(4), rationals)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, x):
        assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)
        assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


class TestPolyMul:
    def test_difference_of_squares(self):
        assert poly_mul(X_MINUS_1, X_PLUS_1) == X2_MINUS_1

    def test_zero_absorbs(self):
        assert poly_mul(Polynomial([1, 2, 3]), Polynomial([])) == Polynomial([])

    def test_binomial_square(self):
        assert poly_mul(X_PLUS_1, X_PLUS_1) == Polynomial([1, 2, 1])


_LINEAR = Polynomial([1, 1])
_TWO_BY_THREE = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: Polynomial([]).leading, ZeroPolynomial),
        (lambda: poly_divmod(_LINEAR, Polynomial([])), ZeroPolynomial),
        (lambda: series_inverse(_LINEAR, -1), ValueError),
        (lambda: RationalMatrix(2, 2, [1, 2, 3]), ValueError),
        (lambda: RationalMatrix.from_rows([[1, 2], [3]]), ValueError),
        (lambda: _TWO_BY_THREE.at(2, 0), IndexError),
        (lambda: _TWO_BY_THREE.at(0, -1), IndexError),
        (lambda: _TWO_BY_THREE @ _TWO_BY_THREE, ValueError),
        (lambda: sylvester_matrix(Polynomial([]), _LINEAR), ZeroPolynomial),
    ],
    ids=[
        "leading-of-zero", "divmod-by-zero", "negative-order", "entry-count", "ragged-rows",
        "row-index", "column-index", "matmul-shape", "sylvester-of-zero",
    ],
)
def test_error_contracts(call, error):
    with pytest.raises(error):
        call()


def test_rational_matrix_is_an_immutable_value():
    # What a frozen dataclass over rows, cols and entries gave.
    M = RationalMatrix.from_rows([[1, Fraction(1, 2)]])
    assert M == RationalMatrix(1, 2, [1, Fraction(1, 2)]) and M != RationalMatrix(2, 1, [1, Fraction(1, 2)])
    assert M.__eq__((1, 2, M.entries)) is NotImplemented
    assert hash(M) == hash((1, 2, M.entries))
    assert repr(M) == "RationalMatrix(rows=1, cols=2, entries=(Fraction(1, 1), Fraction(1, 2)))"
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        M.rows = 2
    with pytest.raises(AttributeError, match="cannot delete field 'entries'"):
        del M.entries


class TestPolyDivmod:
    @given(polys(6), positive_degree_polys(4))
    def test_division_invariant(self, p, q):
        quotient, remainder = poly_divmod(p, q)
        assert q * quotient + remainder == p
        assert remainder.degree is None or remainder.degree < q.degree


class TestSeriesInverse:
    def test_geometric_series(self):
        assert series_inverse(Polynomial([1, -1]), 3) == [1, 1, 1, 1]

    def test_cubed_geometric_series(self):
        got = series_inverse(Polynomial([1, 0, 0, -1]), 7)
        assert got == [1, 0, 0, 1, 0, 0, 1, 0]

    def test_alternating_series(self):
        assert series_inverse(Polynomial([1, 1]), 3) == [1, -1, 1, -1]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            series_inverse(Polynomial([0, 1]), 3)

    @given(
        polys(6).filter(lambda p: p.coeff(0) != 0),
        st.integers(min_value=0, max_value=16),
    )
    def test_product_with_inverse_is_one_mod_t_k(self, p, order):
        inverse = Polynomial(series_inverse(p, order))
        product = poly_mul(p, inverse)
        assert product.coeff(0) == 1
        for k in range(1, order + 1):
            assert product.coeff(k) == 0


def _rational_poly(rng: random.Random, degree: int) -> Polynomial:
    """A seeded polynomial with rational coefficients and a lead that is not 1."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(degree)]
    return Polynomial(coeffs + [Fraction(rng.choice((-7, -3, -2, 2, 3, 5)), rng.choice((1, 2, 3, 4)))])


class TestReferencesOnKeys:
    """`resultant` and `series_inverse` run on the key and one rational factor;
    on rational non-monic inputs they still equal their references, as Fractions."""

    def test_resultant_is_the_sylvester_determinant(self):
        rng = random.Random(31)
        for _ in range(60):
            p, q = _rational_poly(rng, rng.randint(0, 8)), _rational_poly(rng, rng.randint(0, 8))
            value = resultant(p, q)
            assert type(value) is Fraction
            assert value == exact_det(sylvester_matrix(p, q)), (p, q)

    def test_series_inverse_is_the_inverse_series(self):
        rng = random.Random(32)
        for _ in range(60):
            p = _rational_poly(rng, rng.randint(0, 8))
            if p.coeff(0) == 0:
                p = p + Polynomial([Fraction(-5, 3)])
            order = rng.randint(0, 20)
            inverse = series_inverse(p, order)
            assert len(inverse) == order + 1 and all(type(c) is Fraction for c in inverse)
            product = poly_mul(p, Polynomial(inverse))
            assert [product.coeff(k) for k in range(order + 1)] == [1] + [0] * order, p


class TestResultant:
    def test_plus_minus_one_vs_squares_plus_one(self):
        assert resultant(X2_MINUS_1, X2_PLUS_1) == 4

    def test_binomial_cubic(self):
        assert resultant(X2_MINUS_1, Polynomial([-5, 0, 0, 3])) == 16

    def test_shared_roots_vanish(self):
        assert resultant(X2_MINUS_1, X2_MINUS_1) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            resultant(Polynomial([]), X_PLUS_1)
        with pytest.raises(ZeroPolynomial):
            resultant(X_PLUS_1, Polynomial([]))

    @given(rationals, nonzero_polys(4))
    def test_linear_first_argument_evaluates(self, a, q):
        p = Polynomial([-a, 1])
        assert resultant(p, q) == poly_eval(q, a)

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
        st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0),
    )
    def test_product_formula_over_known_roots(self, xs, ys, lead):
        p = Polynomial([1])
        for x in xs:
            p = p * Polynomial([-x, 1])
        q = Polynomial([lead])
        for y in ys:
            q = q * Polynomial([-y, 1])
        expected = Fraction(lead) ** len(xs)
        for x in xs:
            for y in ys:
                expected *= x - y
        assert resultant(p, q) == expected

    @given(positive_degree_polys(4), positive_degree_polys(4))
    def test_zero_resultant_iff_common_factor(self, p, q):
        vanishes = resultant(p, q) == 0
        shares = poly_gcd(p, q).degree >= 1
        assert vanishes == shares

    @given(degree_polys(3, 5), degree_polys(0, 2))
    def test_higher_degree_first_matches_sylvester(self, p, q):
        assert resultant(p, q) == exact_det(sylvester_matrix(p, q))

    @given(degree_polys(0, 0), degree_polys(0, 5))
    def test_constant_on_either_side_matches_sylvester(self, c, q):
        assert resultant(c, q) == exact_det(sylvester_matrix(c, q)) == c.leading**q.degree
        assert resultant(q, c) == exact_det(sylvester_matrix(q, c)) == c.leading**q.degree

    @given(degree_polys(0, 3), degree_polys(0, 3), rationals)
    def test_shared_root_is_zero_both_ways(self, a, b, root):
        linear = Polynomial([-root, 1])
        p, q = a * linear, b * linear
        assert resultant(p, q) == exact_det(sylvester_matrix(p, q)) == 0
        assert resultant(q, p) == 0

    @given(positive_degree_polys(3), positive_degree_polys(3))
    def test_sylvester_matrix_determinant_is_the_resultant(self, p, q):
        matrix = sylvester_matrix(p, q)
        size = p.degree + q.degree
        assert matrix.rows == size and matrix.cols == size
        assert exact_det(matrix) == resultant(p, q)


def sparse_polys(degree: int) -> st.SearchStrategy[Polynomial]:
    """Degree exactly `degree`, nonzero leading and constant coefficients (a
    non-unit leading one allowed), and middle coefficients often 0, so that
    remainders drop by several degrees."""
    nonzero = rationals.filter(bool)
    if degree == 0:
        return nonzero.map(lambda c: Polynomial([c]))
    middle = st.lists(
        st.one_of(st.just(Fraction(0)), nonzero), min_size=degree - 1, max_size=degree - 1
    )
    return st.tuples(nonzero, middle, nonzero).map(
        lambda parts: Polynomial([parts[0], *parts[1], parts[2]])
    )


# Half the pairs have equal degrees, where the sequence's first step drops no degree.
degrees = st.integers(min_value=0, max_value=7)
degree_pairs = st.one_of(st.tuples(degrees, degrees), degrees.filter(bool).map(lambda d: (d, d)))


class TestSubresultantResultant:
    """`resultant` is one subresultant pseudo-remainder sequence; the Sylvester
    determinant is the reference on inputs chosen to reach every branch."""

    @given(degree_pairs.flatmap(lambda d: st.tuples(sparse_polys(d[0]), sparse_polys(d[1]))))
    def test_matches_the_sylvester_determinant(self, pair):
        p, q = pair
        assert resultant(p, q) == exact_det(sylvester_matrix(p, q))
        assert resultant(q, p) == exact_det(sylvester_matrix(q, p))

    @given(
        degree_pairs.flatmap(lambda d: st.tuples(sparse_polys(d[0]), sparse_polys(d[1]))),
        rationals,
        rationals.filter(bool),
    )
    def test_common_linear_factor_gives_exactly_zero(self, pair, root, scale):
        linear = Polynomial([-root * scale, scale])
        p, q = pair[0] * linear, pair[1] * linear
        assert resultant(p, q) == resultant(q, p) == Fraction(0)


def _kernel_pairs() -> dict[str, list[tuple[list[int], list[int]]]]:
    """Seeded integer pairs for `_subresultant`, by the kind of sequence they make."""
    rng = random.Random(26)

    def dense(degree: int, lead: int = 1) -> list[int]:
        return [rng.randint(-5, 5) for _ in range(degree)] + [lead]

    def sparse(degree: int, lead: int = 1) -> list[int]:
        return [rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(degree)] + [lead]

    def times(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    return {
        # Degrees one apart: every step of the sequence drops one degree.
        "normal": [(dense(n), dense(n + 1)) for n in (1, 2, 4, 7, 10, 13) for _ in range(3)],
        "equal degrees": [(dense(n), dense(n)) for n in (1, 3, 6, 9) for _ in range(3)],
        # x^n - 1 against a sparse Q, and Q with zero middle coefficients: steps
        # that drop two degrees or more.
        "abnormal": [([-1] + [0] * (n - 1) + [1], sparse(m)) for n, m in
                     ((4, 4), (6, 9), (8, 8), (9, 12), (12, 14)) for _ in range(3)]
                    + [(dense(n), [rng.randint(1, 5)] + [0] * (m - 1) + [rng.choice((-2, 1))])
                       for n, m in ((3, 7), (5, 5), (6, 11))],
        "constant side": [([c], dense(m, lead)) for c, m, lead in ((3, 4, 1), (-2, 5, 7), (1, 1, -1))]
                         + [([5], [-3])],
        "leading coefficients": [(dense(n, rng.choice((-1, 2, -3, 7))), dense(m, rng.choice((-1, 3, -5))))
                                 for n, m in ((2, 5), (4, 4), (5, 7), (8, 9), (3, 10)) for _ in range(2)],
        "shared root": [(times(dense(n), common), times(dense(m, -2), common))
                        for n, m, common in ((1, 2, [-1, 1]), (3, 3, [2, 0, 3]), (4, 7, [1, -3]))],
    }


KERNEL_PAIRS = _kernel_pairs()


@st.composite
def pseudo_division_pairs(draw) -> tuple[list[int], list[int]]:
    """(a, b) with deg a - deg b from 0 to 130, lc(b) in +-{1, 2, 3, 7}, and a
    either x^k - 1 or sparse, its top coefficient possibly 0."""
    b = draw(st.lists(st.integers(-5, 5), max_size=10)) + [draw(st.sampled_from([1, -1, 2, -2, 3, -3, 7, -7]))]
    size = len(b) + draw(st.integers(0, 130))
    if size > 1 and draw(st.booleans()):
        return [-1] + [0] * (size - 2) + [1], b
    return draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=size, max_size=size)), b


class TestSubresultantKernel:
    """`_subresultant` on integer lists against the Sylvester determinant, and
    `_pseudo_remainder` against `poly_divmod`."""

    @pytest.mark.parametrize("kind", KERNEL_PAIRS)
    def test_matches_the_sylvester_determinant(self, kind):
        for a, b in KERNEL_PAIRS[kind]:
            A, B = Polynomial(a), Polynomial(b)
            assert _subresultant(a, b) == exact_det(sylvester_matrix(A, B)), (a, b)
            assert _subresultant(b, a) == exact_det(sylvester_matrix(B, A)), (b, a)
            if kind == "shared root":
                assert _subresultant(a, b) == 0

    def test_each_kind_reaches_its_steps(self, monkeypatch):
        # A normal step is formed in place; any other step takes _pseudo_remainder.
        calls = []
        original = exact_core._pseudo_remainder
        monkeypatch.setattr(exact_core, "_pseudo_remainder", lambda a, b: calls.append(0) or original(a, b))
        for a, b in KERNEL_PAIRS["normal"]:
            _subresultant(a, b)
        assert calls == []
        later = 0  # pairs with an abnormal step after the first
        for a, b in KERNEL_PAIRS["abnormal"]:
            calls.clear()
            _subresultant(a, b)
            assert calls, (a, b)
            later += len(calls) > 1
        assert later >= 10

    @pytest.mark.parametrize("kind", KERNEL_PAIRS)
    def test_a_given_first_remainder_is_the_computed_one(self, kind):
        for a, b in KERNEL_PAIRS[kind]:
            if len(a) > len(b):
                a, b = b, a
            if len(a) > 1:
                assert _subresultant(a, b, _pseudo_remainder(b, a)) == _subresultant(a, b)

    @settings(max_examples=200)
    @given(pseudo_division_pairs())
    @example(([-1] + [0] * 130 + [1], [2, -7]))  # x^131 - 1 by a binomial: delta 130
    @example(([-1] + [0] * 11 + [1], [5, 0, 0, 3]))
    @example(([4, 0, 0, 0, 0], [1, 0, 2]))  # zero top: no step subtracts
    @example(([3, -1, 5], [1, 2, -7]))  # delta 0
    def test_pseudo_remainder_scales_a_once(self, pair):
        # lc(b)^(delta+1) * a has an integer quotient by b, so its remainder is
        # the pseudo-remainder, in integers.
        a, b = pair
        scale = b[-1] ** (len(a) - len(b) + 1)
        _, expected = poly_divmod(Polynomial([scale * c for c in a]), Polynomial(b))
        got = _pseudo_remainder(a, b)
        assert got == list(expected.coeffs) and all(type(c) is int for c in got)

    @pytest.mark.parametrize("kind", KERNEL_PAIRS)
    def test_pseudo_remainder(self, kind):
        for a, b in KERNEL_PAIRS[kind]:
            if len(a) < len(b):
                a, b = b, a
            scale = b[-1] ** (len(a) - len(b) + 1)
            _, expected = poly_divmod(Polynomial([scale * c for c in a]), Polynomial(b))
            assert _pseudo_remainder(a, b) == list(expected.coeffs), (a, b)


def _cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * head * _cofactor_det(minor)
    return total


class TestExactDet:
    def test_identity(self):
        assert exact_det(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_two_by_two(self):
        assert exact_det(RationalMatrix.from_rows([[1, 2], [3, 4]])) == -2

    def test_repeated_rows_vanish(self):
        rows = [[1, 2, 3, 4], [5, 6, 7, 8], [1, 2, 3, 4], [9, 1, 2, 3]]
        assert exact_det(RationalMatrix.from_rows(rows)) == 0

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            exact_det(RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        rows = [[Fraction(v) for v in row] for row in rows]
        assert exact_det(RationalMatrix.from_rows(rows)) == _cofactor_det(rows)

    @given(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
    )
    def test_multiplicative(self, rows_a, rows_b):
        a = RationalMatrix.from_rows(rows_a)
        b = RationalMatrix.from_rows(rows_b)
        assert exact_det(a @ b) == exact_det(a) * exact_det(b)


def _one_step_bareiss(rows: list[list[int]]) -> int:
    """Textbook one-step Bareiss elimination: the reference for `_bareiss`.

    Works on a copy, swaps in the first lower row with a nonzero pivot, and
    checks that every division is exact.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        swap = next((r for r in range(k, n) if a[r][k]), None)
        if swap is None:
            return 0
        if swap != k:
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                quotient, remainder = divmod(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                assert remainder == 0
                a[i][j] = quotient
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _kernel_det(rows: list[list[int]]) -> int:
    return _bareiss([list(row) for row in rows])


def _small_ints(rng: random.Random, count: int) -> list[int]:
    return [rng.randint(-5, 5) for _ in range(count)]


class TestBareissKernel:
    """`_bareiss` against a one-step reference that shares no code with it."""

    def test_random_sparse_matrices(self):
        rng = random.Random(1968)
        for n in range(13):
            for _ in range(40):
                rows = [
                    [rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)
                ]
                det = _kernel_det(rows)
                assert det == _one_step_bareiss(rows)
                if n <= 6:
                    assert det == _cofactor_det(rows)

    @pytest.mark.parametrize(
        "rows, det",
        [
            pytest.param([[0, 2, 1], [3, 1, 4], [1, 5, 9]], -32, id="zero-corner"),
            pytest.param(
                [[0, 1, 2, 3], [0, 4, 5, 6], [7, 8, 9, 1], [2, 3, 5, 7]], -54, id="zero-column-head"
            ),
            pytest.param([[1, 2, 3], [2, 4, 5], [1, 0, 1]], -2, id="zero-leading-minor"),
            pytest.param(
                [[1, 2, 3, 4], [2, 4, 1, 0], [3, 6, 5, 2], [-1, -2, 7, 1]], 0, id="dependent-columns"
            ),
            pytest.param([], 1, id="n0"),
            pytest.param([[7]], 7, id="n1"),
            pytest.param([[0, 3], [5, 4]], -15, id="n2"),
            pytest.param([[2, 0, 1], [1, 3, 2], [1, 1, 2]], 6, id="n3"),
            # One case per branch of a three-step pass, each 5x5, so the run
            # ends with the 2x2 step after one pass.
            pytest.param(
                [[0, 2, 1, 4, 1], [0, 1, 3, 2, 5], [3, 1, 4, 1, 5], [2, 7, 1, 8, 2], [1, 4, 1, 4, 2]],
                39,
                id="zero-column-head-swaps-in-row-2",
            ),
            pytest.param(
                [[1, 2, 3, 1, 2], [2, 4, 1, 5, 3], [1, 3, 2, 2, 7], [4, 1, 5, 9, 2], [6, 5, 3, 5, 8]],
                1782,
                id="zero-2x2-minor-swaps-in-row-2",
            ),
            pytest.param(
                [[1, 2, 3, 4, 5], [0, 1, 4, 2, 1], [1, 3, 7, 1, 2], [2, 1, 1, 3, 3], [5, 2, 6, 1, 4]],
                181,
                id="zero-3x3-minor-swaps-in-row-3",
            ),
            pytest.param(
                [[1, 2, 3, 4, 5], [0, 1, 1, 2, 1], [2, 1, 3, 7, 2], [3, 5, 8, 1, 1], [1, 1, 2, 9, 6]],
                0,
                id="every-3x3-minor-zero",
            ),
            pytest.param(
                [[2, 1, 0, 3, 1], [1, 3, 1, 2, 2], [0, 1, 4, 1, 5], [0, 0, 0, 3, 1], [0, 0, 0, 2, 5]],
                234,
                id="lower-rows-scale-only",
            ),
        ],
    )
    def test_named_cases(self, rows, det):
        assert _cofactor_det(rows) == det
        assert _one_step_bareiss(rows) == det
        assert _kernel_det(rows) == det

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_tail_length(self, n):
        # A dominant diagonal makes det nonzero, so the run reaches its tail
        # (n mod 3 rows); half the other entries are 0, which keeps the
        # cofactor expansion cheap.
        rng = random.Random(f"tail-{n}")
        rows = [
            [100 if i == j else rng.choice((0, rng.randint(-9, 9))) for j in range(n)]
            for i in range(n)
        ]
        det = _kernel_det(rows)
        assert det != 0
        assert det == _one_step_bareiss(rows)
        assert det == _cofactor_det(rows)

    @pytest.mark.parametrize(
        "n, m, lead",
        [
            pytest.param(24, 24, 1, id="24-24"),
            pytest.param(32, 32, 1, id="32-32"),
            pytest.param(10, 128, 1, id="10-128"),
            pytest.param(24, 30, 7, id="24-30-lead7"),
        ],
    )
    def test_theorem1_rows(self, n, m, lead):
        rng = random.Random(f"{n}/{m}")
        p, q = _small_ints(rng, n) + [lead], _small_ints(rng, m) + [1]
        rows = _theorem1_rows(p, q, _pseudo_remainder(q, p))
        assert _kernel_det(rows) == _one_step_bareiss(rows)

    @pytest.mark.parametrize("family", list(RowFamily))
    def test_banded_rows(self, family):
        rng = random.Random(family.value)
        rows = _banded_rows(family, 64, _small_ints(rng, 40) + [1])
        assert _kernel_det(rows) == _one_step_bareiss(rows)


class TestPolyGcd:
    def test_common_factor(self):
        assert poly_gcd(X2_MINUS_1, X_MINUS_1) == X_MINUS_1

    def test_coprime(self):
        assert poly_gcd(X2_MINUS_1, X2_PLUS_1) == Polynomial([1])

    def test_zero_argument_yields_monic_other(self):
        assert poly_gcd(Polynomial([2, 0, 4]), Polynomial([])) == Polynomial(
            [Fraction(1, 2), 0, 1]
        )

    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            poly_gcd(Polynomial([]), Polynomial([]))

    @given(nonzero_polys(4), nonzero_polys(4))
    def test_gcd_divides_both_and_is_monic(self, p, q):
        g = poly_gcd(p, q)
        assert g.leading == 1
        _, remainder_p = poly_divmod(p, g)
        _, remainder_q = poly_divmod(q, g)
        assert remainder_p.is_zero
        assert remainder_q.is_zero

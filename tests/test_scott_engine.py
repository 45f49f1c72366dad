"""Determinant engine: H/E builders, the exact permanent, and cross-route verify."""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from scottperm import (
    BadParams,
    DidNotConverge,
    EvalResult,
    Polynomial,
    ResourceLimit,
    RouteOutcome,
    SharedRoot,
    VerifyReport,
    ZeroDegree,
    build_E,
    build_H,
    exact_det,
    find_roots,
    poly_eval,
    random_coprime_pair,
    relative_gap,
    resultant,
    scott_permanent,
    verify,
)
from scottperm import closed_catalog, exact_core, fes_engine, numeric_oracle, scott_engine
from test_exact_core import degree_polys

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)


def power_poly(n: int, constant: int) -> Polynomial:
    return Polynomial.from_pairs([(0, constant), (n, 1)])


class TestBuildH:
    def test_golden_four_by_six(self):
        H = build_H(power_poly(4, -1), 3)
        assert H.to_lists() == [
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ]

    @given(rationals)
    def test_single_variable_row_is_geometric(self, c):
        H = build_H(Polynomial([-c, 1]), 2)
        assert H.to_lists() == [[1, c]]

    def test_two_by_two_alternating(self):
        H = build_H(Polynomial([-1, 0, 1]), 1)
        assert H.to_lists() == [[1, 0], [0, 1]]

    def test_normalizes_non_monic_input(self):
        assert build_H(Polynomial([-2, 0, 2]), 2).to_lists() == build_H(
            Polynomial([-1, 0, 1]), 2
        ).to_lists()

    def test_bad_input_rejected(self):
        for constant in (Polynomial([]), Polynomial([3])):
            with pytest.raises(ZeroDegree):
                build_H(constant, 2)
        with pytest.raises(ValueError, match="m must be nonnegative"):
            build_H(Polynomial([-1, 1]), -1)


class TestBuildE:
    def test_golden_six_by_four(self):
        Q = Polynomial([5, -3, 2, 1])  # y^3 + 2y^2 - 3y + 5
        e0, e1, e2, e3 = 1, -2, -3, -5
        E = build_E(Q, 4)
        assert E.to_lists() == [
            [e2, e3, 0, 0],
            [-2 * e1, 0, 2 * e3, 0],
            [3 * e0, -e1, -e2, 3 * e3],
            [0, 2 * e0, 0, -2 * e2],
            [0, 0, e0, e1],
            [0, 0, 0, 0],
        ]

    @given(st.lists(rationals, min_size=3, max_size=3))
    def test_single_column_weights(self, lower):
        Q = Polynomial(lower + [1])
        m = 3
        elementary = [(-1) ** s * Q.coeff(m - s) for s in range(m + 1)]
        E = build_E(Q, 1)
        expected = [[j * (-1) ** (m - j) * elementary[m - j]] for j in range(1, m + 1)]
        assert E.to_lists() == expected

    @given(rationals)
    def test_smallest_case_is_one(self, b):
        assert build_E(Polynomial([-b, 1]), 1).to_lists() == [[1]]

    def test_bad_input_rejected(self):
        with pytest.raises(ZeroDegree):
            build_E(Polynomial([]), 2)
        with pytest.raises(ValueError, match="n must be positive"):
            build_E(Polynomial([-1, 1]), 0)


SCOTT_VALUES = {1: Fraction(1, 2), 2: 0, 3: Fraction(-3, 8), 4: 0, 5: Fraction(45, 32)}


def scott_closed_form(n: int) -> Fraction:
    """0 for even n; for odd n, a signed odd-double-factorial square over 2^n."""
    if n % 2 == 0:
        return Fraction(0)
    if n == 1:
        return Fraction(1, 2)
    odd_product = 1
    for k in range(1, n - 1, 2):
        odd_product *= k
    return Fraction((-1) ** ((n - 1) // 2) * n * odd_product**2, 2**n)


class TestScottPermanent:
    def test_even_case(self):
        assert scott_permanent(power_poly(2, -1), power_poly(2, 1)).value == 0

    def test_cube_case(self):
        assert scott_permanent(power_poly(3, -1), power_poly(3, 1)).value == Fraction(-3, 8)

    def test_coprime_quartic_case(self):
        result = scott_permanent(power_poly(3, -1), power_poly(4, 1))
        assert result.value == 12
        assert result.method == "theorem1"
        assert result.n == 3 and result.m == 4

    def test_alternating_family_small(self):
        for n, expected in SCOTT_VALUES.items():
            got = scott_permanent(power_poly(n, -1), power_poly(n, 1)).value
            assert got == expected == scott_closed_form(n)

    def test_shared_root_rejected(self):
        with pytest.raises(SharedRoot):
            scott_permanent(power_poly(2, -1), power_poly(2, -1))

    def test_constant_row_polynomial_rejected(self):
        with pytest.raises(ZeroDegree):
            scott_permanent(Polynomial([5]), power_poly(2, 1))

    def test_constant_column_polynomial_vanishes(self):
        result = scott_permanent(power_poly(2, -1), Polynomial([5]))
        assert result.value == 0
        assert any("vanishes" in note for note in result.notes)

    def test_vanishing_when_more_rows_than_columns(self):
        rng = random.Random(40)
        for _ in range(20):
            deg_q = rng.randint(1, 4)
            deg_p = rng.randint(deg_q + 1, 6)
            P, Q = random_coprime_pair(rng, deg_p, deg_q)
            result = scott_permanent(P, Q)
            assert result.value == 0
            assert any("vanishes" in note for note in result.notes)
            product = build_H(P, Q.degree) @ build_E(Q, P.degree)
            assert exact_det(product) == 0

    def test_numerator_identity(self):
        rng = random.Random(41)
        for _ in range(30):
            deg_p = rng.randint(1, 5)
            deg_q = rng.randint(deg_p, 6)
            P, Q = random_coprime_pair(rng, deg_p, deg_q)
            result = scott_permanent(P, Q)
            numerator = exact_det(build_H(P, Q.degree) @ build_E(Q, P.degree))
            assert result.value * resultant(P, Q) == numerator

    @given(degree_polys(1, 4), degree_polys(1, 6))
    def test_integer_numerator_matches_h_times_e(self, P, Q):
        res = resultant(P.monic(), Q.monic())
        if res == 0:
            with pytest.raises(SharedRoot):
                scott_permanent(P, Q)
            return
        numerator = exact_det(build_H(P, Q.degree) @ build_E(Q, P.degree))
        assert scott_permanent(P, Q).value * res == numerator

    @given(degree_polys(0, 4), degree_polys(0, 4), rationals)
    def test_shared_root_raises_in_both_orientations(self, a, b, root):
        linear = Polynomial([-root, 1])
        P, Q = a * linear, b * linear
        for rows, columns in ((P, Q), (Q, P)):  # one of them has n > m when degrees differ
            with pytest.raises(SharedRoot):
                scott_permanent(rows, columns)
            with pytest.raises(SharedRoot):
                verify(rows, columns)

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_scaling_invariance(self, scale, seed):
        rng = random.Random(seed)
        P, Q = random_coprime_pair(rng, rng.randint(1, 4), rng.randint(1, 5))
        scaled = Polynomial([scale * Q.coeff(k) for k in range(Q.degree + 1)])
        assert scott_permanent(P, scaled) == scott_permanent(P, Q)

    def test_single_row_is_logarithmic_derivative(self):
        rng = random.Random(42)
        for _ in range(25):
            P, Q = random_coprime_pair(rng, 1, rng.randint(1, 6))
            a = -P.coeff(0)
            derivative = Polynomial([k * Q.coeff(k) for k in range(1, Q.degree + 1)])
            expected = poly_eval(derivative, a) / poly_eval(Q, a)
            assert scott_permanent(P, Q).value == expected


def h_times_e_formula(P: Polynomial, Q: Polynomial) -> Fraction:
    """det(H @ E) / Res over the rational matrices, the numerator before the integer kernel."""
    res = resultant(P.monic(), Q.monic())
    if res == 0:
        raise SharedRoot("the polynomials share a root")
    return exact_det(build_H(P, Q.degree) @ build_E(Q, P.degree)) / res


class TestNumeratorKernel:
    """det(H @ E) == +-det G / ((a^(m-n+2) lc(Q))^n Res), G the reduced Bezoutian."""

    @given(degree_polys(1, 5), degree_polys(0, 6), st.one_of(st.none(), rationals))
    @example(Polynomial([Fraction(-1, 2), 0, 3]), Polynomial([1, 0, 0, 2]), None)  # L = 6
    @example(Polynomial([Fraction(-1, 2), 0, 3]), Polynomial([7]), None)  # constant Q
    @example(Polynomial([1, 2, 0, Fraction(5, 3)]), Polynomial([2, 5]), None)  # n > m
    def test_matches_the_h_times_e_formula(self, P, Q, shared):
        if shared is not None:  # give P and Q the common root `shared`
            linear = Polynomial([-shared, 1])
            P, Q = P * linear, Q * linear
        try:
            expected = h_times_e_formula(P, Q)
        except SharedRoot:
            with pytest.raises(SharedRoot):
                scott_permanent(P, Q)
            return
        assert shared is None
        assert scott_permanent(P, Q).value == expected

    def test_rows_are_the_reduced_bezoutian(self):
        rng = random.Random(45)
        shapes = set()
        while len(shapes) < 60:
            n = rng.randint(1, 8)
            m = rng.randint(n, 12)
            lead = rng.choice((1, -1, 3, 7))
            p = [rng.randint(-9, 9) for _ in range(n)] + [lead]
            q = [rng.randint(-9, 9) for _ in range(m)] + [rng.choice((1, -1, 3, -7))]
            P, Q = Polynomial(p), Polynomial(q)
            derivative = Polynomial([j * c for j, c in enumerate(q)][1:])
            scale = lead ** (m - n + 1)
            r0 = exact_core.poly_divmod(Q * scale, P)[1]
            r1 = exact_core.poly_divmod(derivative * scale, P)[1]
            expected = naive_bezoutian(P, r1)
            low = naive_bezoutian(P, r0)
            for i in range(n - 1):
                for j in range(n):
                    expected[i][j] -= (i + 1) * low[i + 1][j]
            assert scott_engine._theorem1_rows(p, q, [int(c) for c in r0.coeffs]) == expected
            shapes.add((n, m, lead))
        assert {lead for _, _, lead in shapes} == {1, -1, 3, 7}


def rational_square_pair(rng: random.Random, n: int) -> tuple[Polynomial, Polynomial]:
    """Rational P and Q of degree n, P with a lead coefficient that is rarely 1."""
    def coeff() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))

    lead = Fraction(rng.choice((2, 3, 7, -5, 1000003)), rng.choice((1, 2, 3)))
    P = Polynomial([coeff() for _ in range(n)] + [lead])
    Q = Polynomial([coeff() for _ in range(n)] + [Fraction(rng.randint(1, 9), rng.randint(1, 4))])
    return P, Q


class TestSquareNonMonicPairs:
    """For n = m, lc(p) = a divides G: r1 = a q' and r0 = a q - q_n p, so
    Bez(p, r0) = a Bez(p, q); the value is +-det(G / a) / Res(p, q)."""

    @staticmethod
    def whole_g_value(pair: scott_engine.Pair) -> Fraction:
        """+-det G / (a^n Res(p, q)), on G itself."""
        n, p = pair.n, pair.p
        det = exact_core._bareiss(scott_engine._theorem1_rows(p, pair.q, pair.r0))
        return Fraction(-det if n * (n - 1) // 2 % 2 else det, p[-1] ** n * pair.resultant)

    def test_values_equal_the_rational_reference(self):
        rng, checked = random.Random(141), 0
        while checked < 60:
            P, Q = rational_square_pair(rng, rng.randint(1, 10))
            if P.key[-1] == 1:  # the content took the lead coefficient out
                continue
            try:
                expected = h_times_e_formula(P, Q)
            except SharedRoot:
                continue
            assert scott_permanent(P, Q).value == expected, (P, Q)
            checked += 1

    def test_values_equal_those_of_g_itself(self):
        rng, checked = random.Random(142), 0
        while checked < 500:
            P, Q = rational_square_pair(rng, rng.randint(1, 24))
            if P.key[-1] == 1:
                continue
            try:
                pair = scott_engine.Pair(P, Q)
            except SharedRoot:
                continue
            assert scott_engine._theorem1(pair).value == self.whole_g_value(pair), (P, Q)
            checked += 1

    @pytest.mark.parametrize(
        "p,q,divided",
        [
            ([3, -1, 4, 0, 2, 7], [2, 0, 5, 1, -3, 1], True),  # n = m, a = 7
            ([-2, 5, 0, 3, 1], [1, 3, 2, 0, 2], False),  # n = m, monic
            ([3, -1, 4, 0, 2, 7], [2, 0, 5, 1, -3, 1, 1], False),  # m > n
        ],
    )
    def test_only_square_non_monic_rows_are_divided(self, p, q, divided, monkeypatch):
        seen, original = [], scott_engine._bareiss

        def recorded(rows):
            seen.append([row[:] for row in rows])  # _bareiss works in place
            return original(rows)

        monkeypatch.setattr(scott_engine, "_bareiss", recorded)
        pair = scott_engine.Pair(Polynomial(p), Polynomial(q))
        scott_engine._theorem1(pair)
        whole = scott_engine._theorem1_rows(pair.p, pair.q, pair.r0)
        a = p[-1]
        assert seen == [[[g // a for g in row] for row in whole] if divided else whole]
        assert all(g % a == 0 for row in whole for g in row) or not divided


def naive_bezoutian(A: Polynomial, B: Polynomial) -> list[list[Fraction]]:
    """The n x n coefficients of (A(x)B(y) - A(y)B(x)) / (x - y), n = deg A > deg B, term by term.

    For s > t, x^s y^t - x^t y^s = (x - y) * sum_k x^(t+k) y^(s-1-k), k = 0..s-t-1.
    """
    n = A.degree
    out = [[Fraction(0)] * n for _ in range(n)]
    for s in range(n + 1):
        for t in range(s):
            weight = A.coeff(s) * B.coeff(t) - A.coeff(t) * B.coeff(s)
            for k in range(s - t):
                out[t + k][s - 1 - k] += weight
    return out


def shifted(P: Polynomial, c: Fraction) -> Polynomial:
    """P(x - c), whose roots are P's plus c."""
    out = Polynomial([])
    for coeff in reversed(P.coeffs):
        out = out * Polynomial([-c, 1]) + Polynomial([coeff])
    return out


def scaled(P: Polynomial, a: Fraction) -> Polynomial:
    """a^n P(x / a), whose roots are P's times a."""
    n = P.degree
    return Polynomial([c * a ** (n - k) for k, c in enumerate(P.coeffs)])


SHIFT, SCALE = Fraction(3, 2), Fraction(-2, 3)


def integer_pair(n: int, m: int, seed: object) -> tuple[Polynomial, Polynomial]:
    rng = random.Random(seed)
    P = Polynomial([rng.randint(-5, 5) for _ in range(n)] + [rng.choice((1, -2, 3))])
    Q = Polynomial([rng.randint(-5, 5) for _ in range(m)] + [rng.choice((1, 5))])
    return P, Q


class TestMetamorphicLaws:
    """PER is unchanged by a common shift x, y -> x + 3/2 and multiplied by a^(-n) when
    every root is multiplied by a = -2/3.  Both images are rational and non-monic."""

    @staticmethod
    def check_laws(P: Polynomial, Q: Polynomial) -> None:
        per = scott_permanent(P, Q).value
        assert scott_permanent(shifted(P, SHIFT), shifted(Q, SHIFT)).value == per
        assert scott_permanent(scaled(P, SCALE), scaled(Q, SCALE)).value == per / SCALE**P.degree

    @given(st.data())
    def test_random_pairs(self, data):
        n = data.draw(st.integers(1, 24), label="n")
        m = data.draw(st.integers(n, 24), label="m")
        P, Q = integer_pair(n, m, data.draw(st.integers(0, 2**32), label="seed"))
        assume(resultant(P, Q) != 0)
        self.check_laws(P, Q)

    def test_fixed_pair_at_48(self):
        self.check_laws(*integer_pair(48, 48, "law/48"))


SHARED_ROOT_MESSAGE = "the polynomials share a root, so some entry 1/(x - y) is undefined"


def seeded_pairs(seed: int) -> list[tuple[str, Polynomial, Polynomial]]:
    """Non-monic integer, rational, constant-Q and content-carrying pairs."""
    rng = random.Random(seed)

    def ints(count: int) -> list[int]:
        return [rng.randint(-6, 6) for _ in range(count)]

    def fracs(count: int) -> list[Fraction]:
        return [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(count)]

    pairs = []
    for _ in range(6):
        n, m = rng.randint(1, 6), rng.randint(0, 8)
        lead = rng.choice((-3, 2, 5))
        pairs.append(("non-monic", Polynomial(ints(n) + [lead]), Polynomial(ints(m) + [-lead])))
        pairs.append(("rational", Polynomial(fracs(n) + [Fraction(lead, 3)]),
                      Polynomial(fracs(m) + [Fraction(2, 7)])))
        pairs.append(("constant Q", Polynomial(fracs(n) + [lead]), Polynomial([Fraction(lead, 2)])))
        content = rng.choice((2, 3, 6))
        pairs.append(("content", Polynomial([content * c for c in ints(n) + [lead]]),
                      Polynomial([2 * c for c in ints(m) + [1]])))
    return pairs


class TestIntegerPair:
    """`Pair` reads P's and Q's integer keys; every route's value and every
    SharedRoot equal those of the rational reference formulas."""

    @pytest.mark.parametrize("seed", range(4))
    def test_theorem1_matches_the_rational_formula(self, seed):
        for kind, P, Q in seeded_pairs(seed):
            try:
                expected = h_times_e_formula(P, Q) if P.degree <= Q.degree else Fraction(0)
            except SharedRoot:
                with pytest.raises(SharedRoot, match=re.escape(SHARED_ROOT_MESSAGE)):
                    scott_engine.evaluate(P, Q, "theorem1")
                continue
            value = scott_engine.evaluate(P, Q, "theorem1").value
            assert value == expected, kind
            # The permanent depends on the roots only, not on P's and Q's scale.
            assert scott_engine.evaluate(P * Fraction(-2, 3), Q * 5, "theorem1").value == value

    @pytest.mark.parametrize("family", list(fes_engine.RowFamily))
    @pytest.mark.parametrize("scale", [1, 3, -2, Fraction(3, 4)])
    def test_row_families_at_any_scale(self, family, scale):
        rng = random.Random(f"{family.value}/{scale}")
        for n in range(2, 8):
            row = (fes_engine.power_minus_one(n) if family is fes_engine.RowFamily.POWER_MINUS_ONE
                   else fes_engine.all_ones_poly(n))
            P = row * scale  # e.g. 3*x^n - 3
            for degree in (0, n - 2, n, n + 3):
                lead = Fraction(rng.choice((1, 2, -3)), rng.choice((1, 2)))
                Q = Polynomial([Fraction(rng.randint(-5, 5), rng.choice((1, 3)))
                                for _ in range(max(degree, 0))] + [lead])
                if resultant(row, Q) == 0:
                    continue
                for Q_scaled in (Q, Q * 2):
                    fes = scott_engine.evaluate(P, Q_scaled, "fes")
                    assert fes.method == family.method
                    reference = fes_engine.per_via_fes(family, n, Q_scaled)
                    assert (fes.value, fes.n, fes.m, fes.notes) == (
                        reference.value, reference.n, reference.m, reference.notes)
                    assert fes.value == scott_engine.evaluate(P, Q_scaled, "theorem1").value
                    banded = fes_engine.fes if family is fes_engine.RowFamily.POWER_MINUS_ONE \
                        else fes_engine.fes_tilde
                    assert fes.value == banded(Q_scaled, n) / resultant(row, Q_scaled)

    @pytest.mark.parametrize("method", ["auto", "theorem1", "fes", "oracle", "involution"])
    def test_shared_root_is_one_error_for_every_route(self, method):
        for P, Q in (
            (Polynomial([-3, 0, 3]), Polynomial([Fraction(-1, 2), Fraction(1, 2)])),  # 3x^2 - 3, (y - 1)/2
            (Polynomial([2, 2, 2]), Polynomial([6, 6, 8, 2, 2])),  # content; 2(y^2 + y + 1)(y^2 + 3)
            (Polynomial([Fraction(-1, 4), 1]), Polynomial([1, 0, -16])),  # rational, n < m
            (Polynomial([-2, 1, 1]), Polynomial([-3, 3])),  # n > m
        ):
            with pytest.raises(SharedRoot) as raised:
                scott_engine.evaluate(P, Q, method)
            assert str(raised.value) == SHARED_ROOT_MESSAGE

    def test_per_via_fes_raises_the_same_shared_root(self):
        for family, n, Q in (
            (fes_engine.RowFamily.POWER_MINUS_ONE, 4, Polynomial([-6, 0, 3, 0, 3])),  # 3(y^4 + y^2 - 2)
            (fes_engine.RowFamily.ALL_ONES, 3, Polynomial([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])),
        ):
            with pytest.raises(SharedRoot) as raised:
                fes_engine.per_via_fes(family, n, Q)
            assert str(raised.value) == SHARED_ROOT_MESSAGE

    def test_squarefree_is_the_rational_resultant_test(self):
        for P in (
            Polynomial([Fraction(1, 4), -1, 1]),  # (x - 1/2)^2
            Polynomial([2, 0, -4, 0, 2]),  # 2 (x^2 - 1)^2
            Polynomial([Fraction(-3, 2), 0, 3]),
            Polynomial([5]) * Polynomial([-1, 1]),
        ):
            derivative = Polynomial([k * c for k, c in enumerate(P.coeffs)][1:])
            pair = scott_engine.Pair(P, Polynomial([7, 0, 1]))
            assert pair.squarefree == (resultant(P, derivative) != 0)

    def test_each_polynomial_is_cleared_once(self, monkeypatch):
        cleared = []
        original = exact_core._clear_denominators

        def counted(values):
            cleared.append(tuple(values))
            return original(values)

        monkeypatch.setattr(exact_core, "_clear_denominators", counted)
        P, Q = Polynomial([Fraction(1, 2), 3, 2]), Polynomial([1, Fraction(-2, 3), 0, 5])
        pair = scott_engine.Pair(P, Q)
        assert (pair.p, pair.q) == ([1, 6, 4], [3, -2, 0, 15])
        for route in ("theorem1", "oracle", "involution"):
            scott_engine.ROUTES[[r.name for r in scott_engine.ROUTES].index(route)].evaluate(pair)
        assert cleared == [P.coeffs, Q.coeffs]

    @pytest.mark.parametrize("method", ["verify", "closed:thm10"])
    def test_a_catalog_pair_is_cleared_once(self, monkeypatch, method):
        # Pair, the catalog's recognizer and find_roots read the same two keys.
        cleared = []
        original = exact_core._clear_denominators

        def counted(values):
            cleared.append(values)
            return original(values)

        for module in (exact_core, closed_catalog):  # each that imports it
            monkeypatch.setattr(module, "_clear_denominators", counted)
        P, Q = closed_catalog.catalog_family("thm10", n=2, r=1, a=(1, 2), b=(1, 1))
        P, Q = P * Fraction(3, 2), Q * Fraction(-5, 7)
        if method == "verify":
            report = verify(P, Q)
            assert report.all_agree
            assert [o.value is not None for o in report.routes if o.method == "closed_form"] == [True]
        else:
            assert scott_engine.evaluate(P, Q, method).method == method
        assert [sum(values is X.coeffs for values in cleared) for X in (P, Q)] == [1, 1]


    def test_content_is_divided_out(self, monkeypatch):
        # A content of 10^12 on both sides changes no value, and the resultant
        # sequence runs on the primitive lists.
        calls = []
        original = exact_core._subresultant

        def counted(a, b, *first):
            calls.append((a, b))
            return original(a, b, *first)

        monkeypatch.setattr(exact_core, "_subresultant", counted)
        content = 10**12
        for P, p, Q, method in (
            (Polynomial([2, -3, 0, 1]), [2, -3, 0, 1], Polynomial([5, 1, -2, 0, 3]), "theorem1"),
            (Polynomial([-3, 0, 0, 0, 3]), [-1, 0, 0, 0, 1], Polynomial([1, 0, 2, -1, 0, 7]), "fes"),
            (Polynomial([2, 2, 2, 2]), [1, 1, 1, 1], Polynomial([-3, 0, 1, 4, 1]), "fes_tilde"),
        ):
            route = "theorem1" if method == "theorem1" else "fes"
            q = [int(c) for c in Q.coeffs]
            calls.clear()
            primitive = scott_engine.evaluate(P, Q, route)
            assert calls == [(p, q)]
            calls.clear()
            scaled = scott_engine.evaluate(P * content, Q * (-7 * content), route)
            assert calls == [(p, q)]  # keys have a positive lead
            assert (scaled.method, scaled.value) == (method, primitive.value)
            assert type(scaled.value) is Fraction
            if route == "fes":
                family, n = fes_engine.classify_row_polynomial(P)
                assert fes_engine.per_via_fes(family, n, Q * content).value == primitive.value

    def test_theorem1_takes_the_pairs_first_remainder(self, monkeypatch):
        # For m >= n, r0 = Q mod P is computed once, by the pair, for both the
        # resultant sequence and theorem1's rows; r1 = Q' mod P by the rows.
        calls = []
        original = scott_engine._pseudo_remainder

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(scott_engine, "_pseudo_remainder", counted)
        p, q = [1, -2, 0, 3], [4, 0, -1, 2, 0, 1, 5]
        value = scott_engine.evaluate(Polynomial(p), Polynomial(q), "theorem1").value
        assert calls == [(q, p), ([0, -2, 6, 0, 5, 30], p)]
        assert value == h_times_e_formula(Polynomial(p), Polynomial(q))


class TestDegreeBudget:
    @pytest.mark.parametrize(
        "run", [scott_permanent, scott_engine.evaluate, verify], ids=["scott_permanent", "evaluate", "verify"]
    )
    @pytest.mark.parametrize("side", ["row", "column"])
    def test_a_degree_above_the_budget_fails_at_once(self, monkeypatch, run, side):
        def unreachable(values):
            raise AssertionError("a coefficient list was cleared")

        monkeypatch.setattr(exact_core, "_clear_denominators", unreachable)
        big = power_poly(scott_engine.MAX_DEGREE + 1, -1)
        P, Q = (big, Polynomial([2, 1])) if side == "row" else (Polynomial([2, 1]), big)
        with pytest.raises(ResourceLimit, match=f"the {side} polynomial's degree 1025 is above"):
            run(P, Q)

    def test_the_budget_is_admitted(self):
        pair = scott_engine.Pair(power_poly(scott_engine.MAX_DEGREE, -1), Polynomial([2, 1]))
        assert (pair.n, pair.m) == (1024, 1)


class TestRelativeGap:
    def test_floor_at_one(self):
        assert relative_gap(0, Fraction(1, 10**7)) == pytest.approx(1e-7)

    def test_scales_by_magnitude(self):
        assert relative_gap(Fraction(10**6), 10**6 + 1) == pytest.approx(1e-6, rel=1e-3)

    def test_mixed_exact_and_complex(self):
        assert relative_gap(Fraction(-3, 8), complex(-0.375, 0)) == 0

    def test_exact_values_beyond_float_range(self):
        huge = Fraction(10**400)
        assert relative_gap(huge, huge) == 0
        assert relative_gap(huge, huge + 10**394) == pytest.approx(1e-6)
        # Against a float, the exact value overflows complex() and the gap is taken exactly.
        assert relative_gap(huge, 1.0) == 1.0

    def test_floats_convert_exactly(self):
        # 0.1 is not 1/10: the float's binary value differs by about 5.6e-18.
        assert relative_gap(Fraction(1, 10), 0.1) == pytest.approx(5.55e-18, rel=1e-3, abs=0)
        assert relative_gap(0.1, complex(0.1, 0)) == 0

    @pytest.mark.parametrize("bad", [math.inf, complex(0, -math.inf), math.nan])
    def test_non_finite_is_infinitely_far(self, bad):
        assert relative_gap(bad, 1) == math.inf
        assert relative_gap(Fraction(1), bad) == math.inf

    def test_a_fraction_and_a_float_whose_float_gap_rounds_to_0(self):
        # The float path sees no gap in either pair; only the equal values have gap 0.
        assert relative_gap(Fraction(1, 3), 1 / 3) > 0
        assert relative_gap(complex(1 / 3, 0), Fraction(1, 3)) > 0
        assert relative_gap(Fraction(1, 2), 0.5) == 0.0
        assert relative_gap(complex(0.5, 0), Fraction(1, 2)) == 0.0

    def test_unequal_exact_values_have_a_nonzero_gap(self):
        a = Fraction(10**30 + 1, 10**30)
        assert relative_gap(a, Fraction(1)) == pytest.approx(1e-30)
        assert relative_gap(a, 1.0) == pytest.approx(1e-30)

    @given(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.one_of(
            st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_float_path_agrees_with_the_exact_gap(self, a, b):
        ar, ai = Fraction(a.real), Fraction(a.imag)
        br, bi = (b, 0) if isinstance(b, Fraction) else (Fraction(b.real), Fraction(b.imag))
        exact = math.sqrt(
            ((ar - br) ** 2 + (ai - bi) ** 2) / max(1, ar * ar + ai * ai, br * br + bi * bi)
        )
        assert abs(relative_gap(a, b) - exact) <= 1e-15
        assert relative_gap(b, a) == relative_gap(a, b)


class TestVerify:
    def test_full_agreement_on_cube_case(self):
        report = verify(power_poly(3, -1), power_poly(3, 1))
        assert isinstance(report, VerifyReport)
        assert report.n == 3 and report.m == 3
        assert report.tolerance == 1e-6
        methods = [route.method for route in report.routes]
        assert methods == ["theorem1", "oracle", "involution", "fes", "closed_form"]
        assert all(route.error is None for route in report.routes)
        assert all(route.elapsed_ms >= 0 for route in report.routes)
        assert len(report.agreements) == 10
        assert report.all_agree

    def test_all_agree_needs_a_compared_pair(self):
        # At n = m = 20 the float routes are skipped for their cost, and no row
        # family or catalog entry applies: theorem1 is compared with nothing.
        report = verify(Polynomial([2, 0, 0, 0, 0, 0, 0, -3] + [0] * 12 + [1]),
                        Polynomial([-5, 0, 0, 1] + [0] * 16 + [1]))
        assert [route.method for route in report.routes if route.value is not None] == ["theorem1"]
        assert report.agreements == ()
        assert report.all_agree is False

    @pytest.mark.parametrize(
        "agreements,expected",
        [
            ((), False),
            ((("theorem1", "oracle", 0.0, True),), True),
            ((("theorem1", "oracle", 0.0, True), ("theorem1", "fes", 1.0, False)), False),
        ],
    )
    def test_all_agree_is_every_compared_pair_agreeing(self, agreements, expected):
        assert VerifyReport(3, 3, 1e-6, (), agreements).all_agree is expected

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-9])
    def test_tolerance_must_be_finite_and_not_negative(self, tolerance):
        with pytest.raises(BadParams, match="tolerance"):
            verify(power_poly(3, -1), power_poly(3, 1), tolerance=tolerance)

    def test_zero_tolerance_is_accepted(self):
        assert verify(power_poly(3, -1), power_poly(3, 1), tolerance=0).tolerance == 0

    def test_exact_routes_agree_exactly(self):
        report = verify(power_poly(3, -1), power_poly(4, 1))
        values = {route.method: route.value for route in report.routes}
        assert values["theorem1"] == 12
        assert values["fes"] == 12
        assert values["closed_form"] == 12

    def test_shared_root_raises(self):
        with pytest.raises(SharedRoot):
            verify(power_poly(2, -1), power_poly(2, -1))

    def test_agreements_are_the_relative_gaps_of_the_values(self, monkeypatch):
        # verify converts each value to complex once, for all its pairs, and each
        # gap is still relative_gap's.
        conversions, original = [], scott_engine._as_complex

        def counted(z):
            conversions.append(z)
            return original(z)

        monkeypatch.setattr(scott_engine, "_as_complex", counted)
        report = verify(power_poly(3, -1), power_poly(4, 1))
        values = {route.method: route.value for route in report.routes}
        assert len(values) == 5 and len(conversions) == 5 and len(report.agreements) == 10
        monkeypatch.undo()
        for a, b, gap, ok in report.agreements:
            assert gap == relative_gap(values[a], values[b]) and ok is (gap <= 1e-6)

    def test_records_are_named_tuples(self):
        result = EvalResult(Fraction(1), "theorem1", 1, 1)
        assert result.notes == () and result == (Fraction(1), "theorem1", 1, 1, ())
        outcome = RouteOutcome("oracle", None, 0.0)
        assert outcome.error is None and outcome.notes == ()
        assert VerifyReport(1, 1, 1e-6, (outcome,)).agreements == ()
        with pytest.raises(AttributeError):
            result.value = Fraction(2)

    def test_resultant_computed_once(self, monkeypatch):
        # Every resultant on the route path is one integer subresultant sequence,
        # on P and Q cleared to integer lists.
        calls = []
        original = exact_core._subresultant

        def counted(a, b, *first):
            calls.append((a, b, *first))
            return original(a, b, *first)

        for module in (exact_core, scott_engine, fes_engine, numeric_oracle, closed_catalog):
            if getattr(module, "_subresultant", None) is original:
                monkeypatch.setattr(module, "_subresultant", counted)
        P, Q = Polynomial([2, 1, 1]), Polynomial([1, -1, 0, 1])  # no row family
        report = verify(P, Q)
        assert [route.method for route in report.routes] == ["theorem1", "oracle", "involution"]
        assert report.all_agree
        # Res(P, Q) once, for the pair's shared-root check, and Res(P, P') once,
        # for the involution route's repeated-root check.  With m >= n, Res(P, Q)
        # opens with r0 = Q mod P, which theorem1's rows take too.
        assert calls == [([2, 1, 1], [1, -1, 0, 1], [3, -2]), ([2, 1, 1], [1, 2])]
        # The fes route divides by the pair's Res(P, Q), and a row family's roots
        # are distinct roots of unity, so a row family takes Res(P, Q) alone while
        # the involution route still runs; with n > m the pair still makes its
        # shared-root check, and a P outside the row families its Res(P, P').
        for P, Q, r0, squarefree_check, method in (
            (power_poly(3, -1), power_poly(4, 2), [[2, 1]], [], "fes"),
            (Polynomial([1, 1, 1]), power_poly(3, 2), [[3]], [], "fes_tilde"),
            # n > m: the pair's sequence opens with P mod Q, and it has no r0 to share.
            (Polynomial([1, 2, 0, 1]), Polynomial([3, 1]), [None], [([1, 2, 0, 1], [2, 0, 3])], "theorem1"),
        ):
            calls.clear()
            report = verify(P, Q)
            routes = {route.method: route for route in report.routes}
            assert method in routes
            assert routes["involution"].error is None
            assert report.all_agree
            assert calls == [([int(c) for c in P.coeffs], [int(c) for c in Q.coeffs], *r0)] + squarefree_check

    @pytest.mark.parametrize(
        "P,Q",
        [
            (Polynomial([-2, 1, 1]), Polynomial([-1, 1])),  # n > m: shared root 1
            (Polynomial([-1, 1]), Polynomial([-2, 1, 1])),  # n <= m
            (Polynomial([-1, 0, 1]), Polynomial([-3, 2, 1])),  # fes row family, n <= m
        ],
    )
    def test_shared_root_raises_in_every_shape(self, P, Q):
        with pytest.raises(SharedRoot):
            verify(P, Q)

    def test_exact_routes_compare_beyond_float_range(self):
        Q = Polynomial([-1 - Fraction(1, 10**400), 1])
        report = verify(Polynomial([-1, 1]), Q)
        values = {route.method: route.value for route in report.routes if route.value is not None}
        assert values["theorem1"] == values["fes"] == -(10**400)
        assert report.all_agree

    def test_non_finite_route_value_is_a_route_error(self, monkeypatch):
        monkeypatch.setattr(numeric_oracle, "brute_permanent", lambda X, Y: complex(math.inf, 0))
        report = verify(power_poly(3, -1), power_poly(3, 1))
        oracle = next(route for route in report.routes if route.method == "oracle")
        assert oracle.value is None
        assert "non-finite" in oracle.error
        assert report.all_agree

    def test_oracle_skipped_beyond_cost_limit(self, monkeypatch):
        monkeypatch.setattr(scott_engine, "ORACLE_COST_LIMIT", 1000)
        report = verify(power_poly(7, -1), power_poly(7, 2))
        oracle = next(route for route in report.routes if route.method == "oracle")
        assert oracle.value is None
        assert any("skipped" in note for note in oracle.notes)
        assert report.all_agree

    @pytest.mark.parametrize(
        "limit,ran",
        [
            (7 * 7 * 2**7, {"oracle", "involution"}),
            (7 * 7 * 2**7 - 1, {"involution"}),
            (7 * 2**7 - 1, set()),
        ],
    )
    def test_float_routes_skipped_by_subset_dp_work(self, monkeypatch, limit, ran):
        monkeypatch.setattr(scott_engine, "ORACLE_COST_LIMIT", limit)
        report = verify(Polynomial([1, 2, 0, 0, 0, 0, 0, 1]), power_poly(7, 2))
        routes = {route.method: route for route in report.routes}
        for method in ("oracle", "involution"):
            route = routes[method]
            if method in ran:
                assert route.error is None and route.value is not None
            else:
                assert route.value is None and any("skipped" in note for note in route.notes)
        # With both float routes skipped, theorem1 is compared with nothing.
        assert report.all_agree is bool(ran)

    def test_float_routes_run_at_n_14(self):
        P, Q = random_coprime_pair(random.Random(14), 14, 14)
        report = verify(P, Q)
        routes = {route.method: route for route in report.routes}
        assert set(routes) == {"theorem1", "oracle", "involution"}
        assert all(route.value is not None for route in routes.values())
        assert len(report.agreements) == 3
        assert report.all_agree

    @pytest.mark.parametrize("n", [2, 10])
    def test_float_routes_agree_on_skinny_pairs_with_m_128(self, n):
        P, Q = random_coprime_pair(random.Random(n), n, 128)
        report = verify(P, Q)
        routes = {route.method: route for route in report.routes}
        for method in ("oracle", "involution"):
            assert routes[method].error is None and routes[method].value is not None
        assert report.all_agree

    def test_roots_found_once_per_polynomial(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return find_roots(p)

        monkeypatch.setattr(numeric_oracle, "find_roots", counted)
        P, Q = Polynomial([2, 1, 1]), Polynomial([1, -1, 0, 1])
        report = verify(P, Q)
        assert {route.method for route in report.routes if route.value is not None} == {
            "theorem1",
            "oracle",
            "involution",
        }
        assert report.all_agree
        assert sorted(calls, key=lambda p: p.degree) == [P, Q]

    def test_root_finding_error_is_an_error_of_each_float_route(self, monkeypatch):
        calls = []
        Q = Polynomial([1, -1, 0, 1])

        def failing_on_q(p):
            calls.append(p)
            if p == Q:
                raise DidNotConverge("no roots for Q")
            return find_roots(p)

        monkeypatch.setattr(numeric_oracle, "find_roots", failing_on_q)
        report = verify(Polynomial([2, 1, 1]), Q)
        routes = {route.method: route for route in report.routes}
        for method in ("oracle", "involution"):
            assert routes[method].value is None
            assert routes[method].error == "DidNotConverge: no roots for Q"
        assert routes["theorem1"].value is not None
        assert calls.count(Q) == 1

    def test_involution_route_takes_a_constant_column_polynomial(self):
        # A constant Q has no roots, so the involution sum runs on X alone.
        pairs = [
            closed_catalog.catalog_family(entry.id, **point)
            for entry in closed_catalog.catalog_entries()
            for point in entry.grid
        ]
        constant_q = [(P, Q) for P, Q in pairs if Q.degree == 0]
        assert len(constant_q) == 25
        for P, Q in constant_q:
            report = verify(P, Q)
            assert all(route.error is None for route in report.routes)
            assert report.all_agree
            involution = next(route for route in report.routes if route.method == "involution")
            assert abs(involution.value) <= 1e-6

    def test_program_errors_in_a_route_propagate(self, monkeypatch):
        def broken(X, Y):
            raise TypeError("a bug, not a route failure")

        monkeypatch.setattr(numeric_oracle, "brute_permanent", broken)
        with pytest.raises(TypeError, match="a bug"):
            verify(power_poly(3, -1), power_poly(3, 1))

    def test_involution_route_rejects_a_repeated_row_root(self):
        # x^3 - 3x + 2 = (x - 1)^2 (x + 2); its float roots near 1 come out
        # about 1e-8 apart, so the involution sum would be garbage.
        report = verify(Polynomial([2, -3, 0, 1]), Polynomial([5, 0, 0, 1, 1]))
        routes = {route.method: route for route in report.routes}
        assert routes["involution"].value is None
        assert routes["involution"].error.startswith("RepeatedXRoot")
        assert routes["theorem1"].value == Fraction(-162, 91)
        assert report.all_agree

    def test_float_overflow_is_a_route_error(self):
        report = verify(Polynomial([-1, 1]), Polynomial([-(10**400), 1]))
        routes = {route.method: route for route in report.routes}
        for method in ("oracle", "involution"):
            assert routes[method].value is None
            assert routes[method].error.startswith("OverflowError: ")
        assert routes["theorem1"].value == routes["closed_form"].value
        assert report.all_agree


class TestRouteTable:
    def test_verify_runs_the_table_in_order(self):
        assert [route.name for route in scott_engine.ROUTES] == [
            "theorem1",
            "oracle",
            "involution",
            "fes",
            "closed_form",
        ]

    @pytest.mark.parametrize("method", ["theorem1", "oracle", "involution", "fes", "closed_form"])
    def test_evaluate_and_verify_call_the_same_engines(self, method, monkeypatch):
        # Each route reaches its engine through the module attribute, so a
        # patched engine is seen by both callers.
        engine = {
            "theorem1": (scott_engine, "_theorem1"),
            "oracle": (numeric_oracle, "brute_permanent"),
            "involution": (numeric_oracle, "involution_sum"),
            "fes": (fes_engine, "banded_permanent"),
            "closed_form": (closed_catalog, "get_entry"),
        }[method]
        calls = []
        original = getattr(*engine)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(*engine, counted)
        P, Q = power_poly(3, -1), power_poly(4, 1)
        result = scott_engine.evaluate(P, Q, method)
        report = verify(P, Q)
        assert len(calls) == 2
        value = next(route.value for route in report.routes if route.method == method)
        assert relative_gap(result.value, value) == 0.0

    def test_auto_takes_fes_only_for_a_row_family(self):
        assert scott_engine.evaluate(power_poly(3, -1), power_poly(3, 1)).method == "fes"
        assert scott_engine.evaluate(Polynomial([1, 1, 1]), power_poly(3, 2)).method == "fes_tilde"
        assert scott_engine.evaluate(Polynomial([2, 0, 1]), power_poly(3, 1)).method == "theorem1"

    def test_pair_is_checked_after_the_method_is_resolved(self):
        with pytest.raises(BadParams, match="unknown method"):
            scott_engine.evaluate(Polynomial([5]), power_poly(3, 1), "magic")
        with pytest.raises(ZeroDegree):
            scott_engine.evaluate(Polynomial([5]), power_poly(3, 1), "fes")
        with pytest.raises(BadParams, match="needs a row polynomial"):
            scott_engine.evaluate(Polynomial([2, 0, 1]), power_poly(3, 1), "fes")
        with pytest.raises(ZeroDegree):
            verify(power_poly(2, -1), Polynomial([]))

    @pytest.mark.parametrize(
        "P,Q",
        [
            (power_poly(3, -1), power_poly(4, 1)),  # fes row family
            (Polynomial([1, 1, 1]), power_poly(3, 2)),  # fes_tilde row family
            (Polynomial([2, 0, 1]), power_poly(3, 1)),  # no row family
        ],
    )
    def test_verify_recognizes_the_row_family_once(self, P, Q, monkeypatch):
        calls = []
        original = fes_engine.classify_row_polynomial

        def counted(poly):
            calls.append(poly)
            return original(poly)

        monkeypatch.setattr(fes_engine, "classify_row_polynomial", counted)
        verify(P, Q)
        assert calls == [P]

    @pytest.mark.parametrize("method", ["theorem1"])
    def test_methods_that_ignore_the_row_family_do_not_recognize_it(self, method, monkeypatch):
        def refuse(poly):
            raise AssertionError("P's row family was recognized")

        monkeypatch.setattr(fes_engine, "classify_row_polynomial", refuse)
        assert scott_engine.evaluate(power_poly(3, -1), power_poly(4, 1), method).n == 3

    @pytest.mark.parametrize("method", ["oracle", "involution"])
    def test_float_routes_take_a_row_familys_roots_from_the_family(self, method, monkeypatch):
        classified, found = [], []
        classify, find = fes_engine.classify_row_polynomial, numeric_oracle.find_roots

        def counted_classify(poly):
            classified.append(poly)
            return classify(poly)

        def counted_find(poly):
            found.append(poly)
            return find(poly)

        monkeypatch.setattr(fes_engine, "classify_row_polynomial", counted_classify)
        monkeypatch.setattr(numeric_oracle, "find_roots", counted_find)
        P, Q = power_poly(3, -1), power_poly(4, 1)
        result = scott_engine.evaluate(P, Q, method)
        assert relative_gap(result.value, 12) <= 1e-12
        assert classified == [P]
        assert found == [Q]

    @pytest.mark.parametrize("method", ["oracle", "involution", "closed_form", "closed:cor12", "fes"])
    def test_every_method_reports_a_shared_root(self, method):
        # Q = (y - 1)^2 (y - 3): the float roots of the double root come out
        # about 1e-8 apart, so only an exact test sees the root shared with P.
        P, Q = Polynomial([-1, 1]), Polynomial([-3, 7, -5, 1])
        if method == "fes":  # x - 1 is a row family, x^3 + x^2 + 2x + 1 is none
            P = Polynomial([1, 2, 1, 1])
            Q = P * Polynomial([3, 1])
        with pytest.raises(SharedRoot):
            scott_engine.evaluate(P, Q, method)

    def test_verify_stops_at_the_first_catalog_match(self, monkeypatch):
        # Every cor11 grid pair is matched by thm10 or cor11, the first two
        # entries, so the closed_form route reads no further; a full
        # find_matching pass would read all 34.
        read = []
        original = closed_catalog._infer

        def counted(entry, shape):
            read.append(entry.id)
            return original(entry, shape)

        monkeypatch.setattr(closed_catalog, "_infer", counted)
        entry = closed_catalog.get_entry("cor11")
        for point in entry.grid:
            read.clear()
            report = verify(*entry.family(point))
            closed = [route for route in report.routes if route.method == "closed_form"]
            assert len(closed) == 1 and closed[0].error is None, point
            assert 1 <= len(read) <= 2, (point, read)

    def test_closed_form_evaluates_the_validated_match_once(self, monkeypatch):
        # iter_matching has validated the match and checked its domain, so the
        # closed_form route evaluates it without catalog_eval's second pass.
        original = closed_catalog.catalog_eval

        def refuse(entry_id, **params):
            raise AssertionError("the match was validated again")

        monkeypatch.setattr(closed_catalog, "catalog_eval", refuse)
        for entry in closed_catalog.catalog_entries():
            if entry.read is None:
                continue
            point = entry.grid[0]
            report = verify(*entry.family(point))
            closed = [route for route in report.routes if route.method == "closed_form"]
            assert len(closed) == 1 and closed[0].error is None, entry.id
            assert closed[0].value == original(entry.id, **point), entry.id

    def test_a_constant_polynomial_has_no_roots(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return find_roots(p)

        monkeypatch.setattr(numeric_oracle, "find_roots", counted)
        P, Q = power_poly(2, -1), Polynomial([5])
        pair = scott_engine.Pair(P, Q)
        assert pair.roots(Q) == []
        assert sorted(pair.roots(P), key=lambda z: z.real) == pytest.approx([-1, 1], abs=1e-15)
        assert pair.roots(P) is pair.roots(P)
        assert calls == []  # x^2 - 1 is a row family: its roots come in closed form
        P = power_poly(2, -2)
        pair = scott_engine.Pair(P, Q)
        assert pair.roots(Q) == []
        assert pair.roots(P) is pair.roots(P)
        assert calls == [P]


ROW_FAMILY_PS = {f"x^{n}-1": fes_engine.power_minus_one(n) for n in range(1, 65)} | {
    f"all_ones_{n}": fes_engine.all_ones_poly(n) for n in range(2, 65)
}


class TestRowFamilyRoots:
    @pytest.mark.parametrize("P", ROW_FAMILY_PS.values(), ids=ROW_FAMILY_PS)
    def test_closed_form_roots_are_those_of_find_roots(self, P):
        closed = scott_engine.Pair(P, Polynomial([-2, 1])).roots(P)
        found = find_roots(P)
        assert len(closed) == len(found) == P.degree
        for z in closed:  # the roots are at least 2 sin(pi/64) ~ 0.098 apart
            nearest = min(found, key=lambda w: abs(w - z))
            assert abs(nearest - z) <= 1e-12
            found.remove(nearest)

    def test_verify_agrees_on_row_family_pairs(self):
        rng = random.Random(16)
        small = [P for P in ROW_FAMILY_PS.values() if P.degree <= 9]
        checked = 0
        while checked < 12:
            P = rng.choice(small)
            m = P.degree + rng.randrange(3)
            Q = Polynomial([rng.randint(-5, 5) for _ in range(m)] + [1])
            try:
                report = verify(P, Q)
            except SharedRoot:
                continue
            routes = {route.method: route for route in report.routes}
            assert routes["oracle"].error is None and routes["involution"].error is None, (P, Q)
            assert report.all_agree, (P, Q)
            checked += 1


class TestEvalResult:
    def test_fields_echo_the_computation(self):
        result = scott_permanent(power_poly(2, -1), power_poly(3, 2))
        assert isinstance(result, EvalResult)
        assert result.method == "theorem1"
        assert (result.n, result.m) == (2, 3)
        assert isinstance(result.notes, tuple)

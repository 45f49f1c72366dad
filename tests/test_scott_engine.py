"""Determinant engine: H/E builders, the exact permanent, and cross-route verify."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scottperm import (
    BadParams,
    DidNotConverge,
    EvalResult,
    Polynomial,
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

    def test_floats_convert_exactly(self):
        # 0.1 is not 1/10: the float's binary value differs by about 5.6e-18.
        assert relative_gap(Fraction(1, 10), 0.1) == pytest.approx(5.55e-18, rel=1e-3, abs=0)
        assert relative_gap(0.1, complex(0.1, 0)) == 0

    @pytest.mark.parametrize("bad", [math.inf, complex(0, -math.inf), math.nan])
    def test_non_finite_is_infinitely_far(self, bad):
        assert relative_gap(bad, 1) == math.inf
        assert relative_gap(Fraction(1), bad) == math.inf


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

    def test_exact_routes_agree_exactly(self):
        report = verify(power_poly(3, -1), power_poly(4, 1))
        values = {route.method: route.value for route in report.routes}
        assert values["theorem1"] == 12
        assert values["fes"] == 12
        assert values["closed_form"] == 12

    def test_shared_root_raises(self):
        with pytest.raises(SharedRoot):
            verify(power_poly(2, -1), power_poly(2, -1))

    def test_resultant_computed_once(self, monkeypatch):
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return resultant(p, q)

        for module in (exact_core, scott_engine, fes_engine, numeric_oracle, closed_catalog):
            if getattr(module, "resultant", None) is resultant:
                monkeypatch.setattr(module, "resultant", counted)
        P, Q = Polynomial([2, 1, 1]), Polynomial([1, -1, 0, 1])  # no row family
        report = verify(P, Q)
        assert [route.method for route in report.routes] == ["theorem1", "oracle", "involution"]
        assert report.all_agree
        assert len(calls) == 1

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

    def test_oracle_skipped_beyond_cost_limit(self):
        report = verify(power_poly(7, -1), power_poly(7, 2), oracle_cost_limit=1000)
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
    def test_float_routes_skipped_by_subset_dp_work(self, limit, ran):
        report = verify(Polynomial([1, 2, 0, 0, 0, 0, 0, 1]), power_poly(7, 2), oracle_cost_limit=limit)
        routes = {route.method: route for route in report.routes}
        for method in ("oracle", "involution"):
            route = routes[method]
            if method in ran:
                assert route.error is None and route.value is not None
            else:
                assert route.value is None and any("skipped" in note for note in route.notes)
        assert report.all_agree

    def test_float_routes_run_at_n_14(self):
        P, Q = random_coprime_pair(random.Random(14), 14, 14)
        report = verify(P, Q)
        routes = {route.method: route for route in report.routes}
        assert set(routes) == {"theorem1", "oracle", "involution"}
        assert all(route.value is not None for route in routes.values())
        assert len(report.agreements) == 3
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
            "theorem1": (scott_engine, "scott_permanent"),
            "oracle": (numeric_oracle, "brute_permanent"),
            "involution": (numeric_oracle, "involution_sum"),
            "fes": (fes_engine, "per_via_fes"),
            "closed_form": (closed_catalog, "catalog_eval"),
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
        monkeypatch.setattr(closed_catalog, "classify_row_polynomial", counted)
        verify(P, Q)
        assert calls == [P]

    @pytest.mark.parametrize("method", ["theorem1", "oracle", "involution"])
    def test_methods_that_ignore_the_row_family_do_not_recognize_it(self, method, monkeypatch):
        def refuse(poly):
            raise AssertionError("P's row family was recognized")

        monkeypatch.setattr(fes_engine, "classify_row_polynomial", refuse)
        assert scott_engine.evaluate(power_poly(3, -1), power_poly(4, 1), method).n == 3

    def test_a_constant_polynomial_has_no_roots(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return find_roots(p)

        monkeypatch.setattr(numeric_oracle, "find_roots", counted)
        P, Q = power_poly(2, -1), Polynomial([5])
        pair = scott_engine.Pair(P, Q)
        assert pair.roots(Q) == []
        assert len(pair.roots(P)) == 2
        assert pair.roots(P) is pair.roots(P)
        assert calls == [P]


class TestEvalResult:
    def test_fields_echo_the_computation(self):
        result = scott_permanent(power_poly(2, -1), power_poly(3, 2))
        assert isinstance(result, EvalResult)
        assert result.method == "theorem1"
        assert (result.n, result.m) == (2, 3)
        assert isinstance(result.notes, tuple)

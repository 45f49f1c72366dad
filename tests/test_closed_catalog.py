"""Closed-form catalog: values, families, parameter handling, recognition."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scottperm import (
    BadParams,
    OutOfDomain,
    Polynomial,
    ShiftedFactorial,
    catalog_entries,
    catalog_eval,
    catalog_family,
    catalog_ids,
    classify_row_polynomial,
    find_matching,
    involution_identity_check,
    poch,
    scott_permanent,
)
from scottperm import closed_catalog
from scottperm.closed_catalog import falling, get_entry, power_plus_one

ALL_IDS = (
    "thm10", "cor11", "cor12", "cor13", "cor14", "cor15", "cor16", "cor17",
    "cor18", "cor19", "cor20", "cor21", "cor22", "cor23", "cor24", "cor25",
    "cor26", "cor27", "cor28", "cor29", "cor30", "cor31", "thm32", "cor33",
    "cor34", "cor35", "cor36", "thm37", "thm38", "thm39", "prop40", "prop41",
    "prop42", "prop43",
)


class TestCatalogMetadata:
    def test_all_ids_present_in_order(self):
        assert catalog_ids() == ALL_IDS

    def test_grid_totals(self):
        entries = catalog_entries()
        assert all(entry.grid for entry in entries)
        assert sum(len(entry.grid) for entry in entries) == 862

    def test_entry_lookup_round_trip(self):
        for entry in catalog_entries():
            assert get_entry(entry.id) is entry

    def test_statements_are_ascii(self):
        for entry in catalog_entries():
            assert all(ord(ch) < 128 for ch in entry.statement), entry.id
            assert all(ord(ch) < 128 for ch in entry.domain_desc), entry.id

    def test_factorial_trinomial_entry_metadata(self):
        entry = get_entry("cor19")
        assert entry.statement == (
            "PER(x^n-1, y^(2n) + a y^n + 1) = (-1)^(n+1) n! for a != -2"
        )
        assert entry.domain_desc == "a != -2"
        assert entry.param_names == ("n", "a")
        assert len(entry.grid) == 25

    def test_unknown_entry(self):
        with pytest.raises(BadParams):
            get_entry("thm99")
        with pytest.raises(BadParams):
            catalog_eval("thm99", n=1)


class TestKnownValues:
    def test_factorial_trinomial(self):
        assert catalog_eval("cor19", n=3, a=1) == 6

    def test_odd_binomial_factorial(self):
        assert catalog_eval("cor27", n=3) == 12

    def test_power_tower_mix(self):
        assert catalog_eval("cor30", n=2) == -2

    def test_unit_value_family(self):
        assert catalog_eval("cor31", n=4) == 1

    def test_arithmetic_weights_short_row(self):
        assert catalog_eval("thm38", n=3, m=2, a=0) == 20

    def test_arithmetic_weights_full_row(self):
        assert catalog_eval("thm32", n=2, m=2, a=0) == Fraction(-13, 3)

    def test_shifted_binomial(self):
        assert catalog_eval("cor22", n=2, m=2, b=3) == Fraction(1, 4)

    def test_spread_all_ones(self):
        assert catalog_eval("cor24", n=2, m=3, s=2) == 2


class TestKnownFamilies:
    def test_binomial_family(self):
        P, Q = catalog_family("cor17", n=2, m=3)
        assert P == Polynomial([-1, 0, 1])
        assert Q == Polynomial.from_pairs([(0, 1), (6, 1)])

    def test_unit_value_family(self):
        P, Q = catalog_family("cor31", n=3)
        assert P == Polynomial([-1, 0, 0, 1])
        assert Q == Polynomial([-1, 3, 0, 1])

    def test_arithmetic_family_with_all_ones_rows(self):
        P, Q = catalog_family("thm39", n=3, m=2, a=1)
        assert P == Polynomial([1, 1, 1])
        assert Q == Polynomial([1, 2, 3, 4, 5])

    def test_power_plus_one_helper(self):
        assert power_plus_one(4) == Polynomial([1, 0, 0, 0, 1])
        with pytest.raises(BadParams):
            power_plus_one(0)


class TestEngineAgreement:
    """Spot checks; the acceptance sweep covers every grid point."""

    @pytest.mark.parametrize(
        "entry_id,params",
        [
            ("cor30", {"n": 3}),
            ("thm32", {"n": 2, "m": 2, "a": 0}),
            ("cor22", {"n": 2, "m": 2, "b": 3}),
            ("cor24", {"n": 2, "m": 3, "s": 2}),
            ("thm39", {"n": 3, "m": 2, "a": 1}),
        ],
    )
    def test_closed_form_matches_engine(self, entry_id, params):
        value = catalog_eval(entry_id, **params)
        P, Q = catalog_family(entry_id, **params)
        assert scott_permanent(P, Q).value == value

    def test_vanishing_families(self):
        assert catalog_eval("cor20", n=2, m=2, r=1, a=-2, b=0) == 0
        P, Q = catalog_family("cor20", n=2, m=2, r=1, a=-2, b=0)
        assert scott_permanent(P, Q).value == 0
        assert catalog_eval("cor21", n=3, b=2) == 0
        P, Q = catalog_family("cor21", n=3, b=2)
        assert scott_permanent(P, Q).value == 0


class TestSpecializations:
    """More general entries reproduce their special cases exactly."""

    def test_binomial_from_block_family(self):
        for n in range(1, 5):
            for m in range(1, 4):
                a = (1,) + (0,) * (m - 1) + (1,)
                b = (0,) * (m + 1)
                assert catalog_eval("cor17", n=n, m=m) == catalog_eval(
                    "thm10", n=n, r=1, a=a, b=b
                )

    def test_factorial_trinomial_from_general_trinomial(self):
        for n in range(1, 5):
            for a in (-1, 0, 1, 3):
                assert catalog_eval("cor19", n=n, a=a) == catalog_eval(
                    "cor18", n=n, m=2, r=1, a=a, b=1
                )

    def test_geometric_from_weighted_blocks(self):
        for n in range(1, 6):
            for m in range(1, 5):
                assert catalog_eval("cor12", n=n, m=m) == catalog_eval(
                    "cor11", n=n, a=(1,) * (m + 1)
                )


class TestDomainChecks:
    @pytest.mark.parametrize(
        "entry_id,params",
        [
            ("cor19", {"n": 3, "a": -2}),
            ("cor31", {"n": 1}),
            ("cor27", {"n": 2}),
            ("cor13", {"n": 2, "m": 3}),
            ("prop43", {"n": 2}),
            ("thm37", {"n": 3, "m": 1, "a": 0, "s": 2}),
            ("thm39", {"n": 2, "m": 1, "a": 0}),
            ("thm10", {"n": 2, "r": 1, "a": (1, 2), "b": (1,)}),
        ],
    )
    def test_out_of_domain_names_the_entry(self, entry_id, params):
        with pytest.raises(OutOfDomain, match=entry_id):
            catalog_eval(entry_id, **params)
        with pytest.raises(OutOfDomain, match=entry_id):
            catalog_family(entry_id, **params)


class TestParamValidation:
    def test_missing_parameter(self):
        with pytest.raises(BadParams, match="missing"):
            catalog_eval("cor19", n=3)

    def test_unknown_parameter(self):
        with pytest.raises(BadParams, match="unknown"):
            catalog_eval("cor19", n=3, a=1, z=2)

    def test_float_rejected(self):
        with pytest.raises(BadParams):
            catalog_eval("cor19", n=3, a=1.5)

    def test_bool_rejected_as_count(self):
        with pytest.raises(BadParams):
            catalog_eval("cor27", n=True)

    def test_count_minimums(self):
        with pytest.raises(BadParams):
            catalog_eval("cor19", n=0, a=1)
        with pytest.raises(BadParams):
            catalog_eval("cor24", n=1, m=2, s=1)

    def test_vector_validation(self):
        with pytest.raises(BadParams):
            catalog_eval("cor11", n=2, a=())
        with pytest.raises(BadParams):
            catalog_eval("cor11", n=2, a="xy")


class TestShiftedFactorial:
    def test_small_values(self):
        assert poch(3, 0) == 1
        assert poch(3, 2) == 12
        assert poch(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_zero_law(self):
        for base in range(-5, 6):
            for length in range(5):
                value = poch(base, length)
                hits_zero = length >= 1 and -length + 1 <= base <= 0
                assert (value == 0) == hits_zero

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        st.integers(min_value=1, max_value=8),
    )
    def test_recurrence(self, base, length):
        assert poch(base, length) == poch(base, length - 1) * (base + length - 1)

    def test_dataclass_value(self):
        assert ShiftedFactorial(Fraction(-3), 4).value == 0
        assert ShiftedFactorial(Fraction(2), 3).value == poch(2, 3)
        with pytest.raises(BadParams):
            ShiftedFactorial(Fraction(2), -1).value

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.integers(min_value=0, max_value=6),
    )
    def test_falling_mirror(self, base, length):
        assert falling(base, length) == (-1) ** length * poch(-base, length)


class TestRecognition:
    def test_full_grid_is_recognized_consistently(self):
        total = 0
        self_hits = 0
        for entry in catalog_entries():
            for point in entry.grid:
                total += 1
                P, Q = entry.family(point)
                expected = entry.closed_form(point)
                matches = find_matching(P, Q)
                assert matches, (entry.id, point)
                hits = []
                for matched_id, matched_params in matches:
                    assert catalog_eval(matched_id, **matched_params) == expected, (
                        entry.id,
                        point,
                        matched_id,
                        matched_params,
                    )
                    hits.append(matched_id)
                if entry.id in hits:
                    self_hits += 1
        assert total == 862
        assert self_hits >= 800

    @pytest.mark.parametrize(
        "entry_id,params",
        [
            ("thm10", {"n": 2, "r": 1, "a": (1, 2), "b": (1, 1)}),
            ("cor19", {"n": 2, "a": 1}),
            ("cor22", {"n": 3, "m": 2, "b": 2}),
            ("cor27", {"n": 3}),
            ("cor31", {"n": 3}),
            ("thm39", {"n": 3, "m": 2, "a": 1}),
        ],
    )
    def test_non_degenerate_points_self_match(self, entry_id, params):
        P, Q = catalog_family(entry_id, **params)
        expected = catalog_eval(entry_id, **params)
        matches = find_matching(P, Q)
        ids = [mid for mid, _ in matches]
        assert entry_id in ids
        for mid, mp in matches:
            assert catalog_eval(mid, **mp) == expected

    def test_matching_is_scale_invariant(self):
        P, Q = catalog_family("cor19", n=2, a=1)
        scale = Fraction(3, 2)
        P2 = Polynomial([scale * P.coeff(k) for k in range(P.degree + 1)])
        Q2 = Polynomial([-2 * Q.coeff(k) for k in range(Q.degree + 1)])
        base = sorted(mid for mid, _ in find_matching(P, Q))
        assert sorted(mid for mid, _ in find_matching(P2, Q2)) == base

    def test_row_family_recognized_once_per_find_matching(self, monkeypatch):
        calls = []

        def counted(P):
            calls.append(P)
            return classify_row_polynomial(P)

        monkeypatch.setattr(closed_catalog, "classify_row_polynomial", counted)
        for entry in catalog_entries():
            for point in entry.grid:
                P, Q = entry.family(point)
                calls.clear()
                matches = find_matching(P, Q)
                assert len(calls) <= 1, (entry.id, point)
                for matched_id, matched_params in matches:
                    # infer(P, Q), as the CLI's closed:<id> route calls it, agrees.
                    inferred = get_entry(matched_id).infer(P, Q)
                    assert catalog_eval(matched_id, **inferred) == catalog_eval(
                        matched_id, **matched_params
                    )

    def test_a_known_row_family_is_not_recognized_again(self, monkeypatch):
        pairs = [entry.family(point) for entry in catalog_entries() for point in entry.grid[:2]]
        expected = [find_matching(P, Q) for P, Q in pairs]
        rows = [classify_row_polynomial(P) for P, _ in pairs]

        def refuse(P):
            raise AssertionError("P's row family was recognized again")

        monkeypatch.setattr(closed_catalog, "classify_row_polynomial", refuse)
        assert [find_matching(P, Q, row=row) for (P, Q), row in zip(pairs, rows)] == expected

    def test_unrelated_pair_matches_nothing(self):
        assert find_matching(Polynomial([2, 0, 1]), Polynomial([1, 1, 1])) == []


class TestInvolutionIdentities:
    def test_factorial_identity(self):
        report = involution_identity_check("prop40", 3)
        assert report.id == "prop40" and report.n == 3
        assert report.expected == 6
        assert abs(report.value - 6) < 1e-9
        assert report.ok and report.gap <= report.tolerance

    def test_null_identity(self):
        report = involution_identity_check("prop41", 4)
        assert report.expected == 0
        assert report.ok

    def test_unit_identity_sweep(self):
        for n in range(2, 10):
            report = involution_identity_check("prop42", n)
            assert report.expected == 1
            assert report.ok, (n, report.gap)

    def test_half_factorial_identity_odd_only(self):
        for n in (3, 5, 7):
            report = involution_identity_check("prop43", n)
            assert report.expected == Fraction(math.factorial(n + 1), 2)
            assert report.ok, (n, report.gap)
        with pytest.raises(OutOfDomain):
            involution_identity_check("prop43", 4)

    def test_bad_requests(self):
        with pytest.raises(BadParams):
            involution_identity_check("prop99", 3)
        with pytest.raises(BadParams):
            involution_identity_check("prop40", 0)

    def test_tolerance_is_echoed(self):
        report = involution_identity_check("prop40", 3, tolerance=1e-3)
        assert report.tolerance == 1e-3

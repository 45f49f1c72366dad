"""Closed-form catalog: values, families, parameter handling, recognition."""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from scottperm import (
    BadParams,
    OutOfDomain,
    Polynomial,
    SharedRoot,
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
from scottperm import closed_catalog, fes_engine
from scottperm.closed_catalog import falling, get_entry, power_plus_one
from scottperm.fes_engine import power_minus_one
from scottperm.scott_engine import Pair

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

    # (P, Q) as (exponent, coefficient) pairs, written out from each statement.
    # The prop4x statements name only P; their Q is the one in the module notes.
    WRITTEN_OUT = {
        "cor12": lambda n, m: ([(n, 1), (0, -1)], [(l * n, 1) for l in range(m + 1)]),
        "cor13": lambda n, m: ([(n, 1), (0, 1)], [(l * n, 1) for l in range(m + 1)]),
        "cor14": lambda n, m: ([(n, 1), (0, -1)], [(l * n, l) for l in range(m + 1)]),
        "cor15": lambda n, m: ([(n, 1), (0, -1)], [(l * l * n, l) for l in range(m + 1)]),
        "cor17": lambda n, m: ([(n, 1), (0, -1)], [(m * n, 1), (0, 1)]),
        "cor19": lambda n, a: ([(n, 1), (0, -1)], [(2 * n, 1), (n, a), (0, 1)]),
        "cor21": lambda n, b: ([(n, 1), (0, -1)], [(2 * n, 1), (n, -2), (0, b)]),
        "cor25": lambda n, m: ([(l, 1) for l in range(n)], [(l, 1) for l in range(m)]),
        "cor26": lambda n, m: ([(n, 1), (0, -1)], [(m, 1), (0, 1)]),
        "cor27": lambda n: ([(n, 1), (0, -1)], [(n + 1, 1), (0, 1)]),
        "cor31": lambda n: ([(n, 1), (0, -1)], [(n, 1), (1, n), (0, -1)]),
        "thm32": lambda n, m, a: ([(n, 1), (0, -1)], [(l, l + a) for l in range(m * n)]),
        "cor33": lambda n, m: ([(n, 1), (0, -1)], [(l, l) for l in range(m * n)]),
        "cor34": lambda n, m: ([(n, 1), (0, -1)], [(l, l + 1) for l in range(m * n)]),
        "prop40": lambda n: ([(n, 1), (0, -1)], [(2 * n, 1), (n, 1), (0, 1)]),
        "prop41": lambda n: ([(n, 1), (0, -1)], [(2 * n, 1), (n, -2)]),
        "prop42": lambda n: ([(n, 1), (0, -1)], [(n, 1), (1, n), (0, -1)]),
        "prop43": lambda n: ([(n, 1), (0, -1)], [(n + 1, 1), (0, 1)]),
    }

    @pytest.mark.parametrize("entry_id", sorted(WRITTEN_OUT))
    def test_family_is_the_pair_its_statement_writes_out(self, entry_id):
        entry = get_entry(entry_id)
        assert entry.grid
        for point in entry.grid:
            P, Q = self.WRITTEN_OUT[entry_id](**point)
            assert entry.family(point) == (Polynomial.from_pairs(P), Polynomial.from_pairs(Q)), point

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


def _vectors(low: int, high: int):
    """Rational vectors, negative and mixed-sign entries included."""
    return st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7),
                    min_size=low, max_size=high)


class TestIntegerClosedForms:
    """thm10's and cor11's closed forms run on integers over one common
    denominator; off the grid, with rational, negative and mixed-sign vectors,
    they still equal theorem1 on the family's own pair."""

    @staticmethod
    def _against_theorem1(entry_id: str, params: dict) -> None:
        try:
            expected = catalog_eval(entry_id, **params)
        except OutOfDomain:
            assume(False)
        P, Q = catalog_family(entry_id, **params)
        assume(Q.degree >= P.degree)  # the families' identities need n <= m
        assert scott_permanent(P, Q).value == expected, (entry_id, params)

    @pytest.mark.parametrize(
        "entry_id,params",
        [
            ("thm10", {"n": 3, "r": 2, "a": (Fraction(1, 2), -3), "b": (Fraction(-2, 3), Fraction(5, 4))}),
            ("thm10", {"n": 5, "r": 3, "a": (-1, -2), "b": (-3, Fraction(-1, 7))}),
            ("thm10", {"n": 6, "r": 4, "a": (Fraction(3, 5), -1, 2), "b": (1, Fraction(1, 3), -2)}),
            ("thm10", {"n": 4, "r": 6, "a": (Fraction(-7, 2),), "b": (Fraction(5, 3),)}),
            ("cor11", {"n": 6, "a": (Fraction(1, 2), -3, Fraction(2, 3))}),
            ("cor11", {"n": 4, "a": (-1, -2, -5)}),
            ("cor11", {"n": 3, "a": (Fraction(-2, 3), Fraction(1, 5))}),
        ],
    )
    def test_off_grid_points(self, entry_id, params):
        self._against_theorem1(entry_id, params)

    @given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 3), st.data())
    def test_thm10_against_theorem1(self, n, r, length, data):
        a, b = data.draw(_vectors(length, length)), data.draw(_vectors(length, length))
        assume(b[-1] != 0)
        self._against_theorem1("thm10", {"n": n, "r": r, "a": tuple(a), "b": tuple(b)})

    @given(st.integers(1, 6), _vectors(1, 3))
    def test_cor11_against_theorem1(self, n, a):
        assume(a[-1] != 0)
        self._against_theorem1("cor11", {"n": n, "a": tuple(a)})


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
            ("thm10", {"n": 2, "r": 1, "a": (1,), "b": (-1,)}),
            ("cor16", {"n": 1, "m": 2, "r": 2, "a": 1, "b": 1}),
            ("cor16", {"n": 1, "m": 2, "r": 1, "a": 1, "b": -2}),
            ("cor18", {"n": 1, "m": 2, "r": 2, "a": 1, "b": 1}),
            ("cor18", {"n": 1, "m": 2, "r": 1, "a": -2, "b": 1}),
            ("cor20", {"n": 1, "m": 2, "r": 2, "a": -1, "b": 0}),
            ("cor21", {"n": 2, "b": 1}),
            ("cor24", {"n": 2, "m": 2, "s": 1}),
            ("thm37", {"n": 2, "m": 1, "a": 0, "s": 2}),
            ("thm37", {"n": 2, "m": 1, "a": Fraction(-1, 2), "s": 1}),
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
        with pytest.raises(BadParams, match="sequence"):
            catalog_eval("cor11", n=2, a=5)
        # A vector takes ints and Fractions only, as a rational does.
        for bad in ((1.5, 2), ("1/2", 2), (True, 2)):
            with pytest.raises(BadParams):
                catalog_eval("cor11", n=2, a=bad)


class TestPoch:
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

    def test_fraction_base_and_negative_length(self):
        assert poch(Fraction(-3), 4) == 0
        assert poch(Fraction(2), 3) == 24
        with pytest.raises(BadParams):
            poch(Fraction(2), -1)
        # An int base still gives a Fraction, also for the empty product.
        assert type(poch(2, 3)) is Fraction and type(poch(2, 0)) is Fraction

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.integers(min_value=0, max_value=6),
    )
    def test_falling_mirror(self, base, length):
        assert falling(base, length) == (-1) ** length * poch(-base, length)

    @given(
        st.one_of(
            st.integers(min_value=-30, max_value=30),
            st.fractions(min_value=-30, max_value=30, max_denominator=12),
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_integer_products_equal_fraction_products(self, base, length):
        # Both multiply integer numerators over one denominator; the plain
        # products below step through Fractions.
        rising = lowering = Fraction(1)
        for t in range(length):
            rising *= base + t
            lowering *= base - t
        assert poch(base, length) == rising and type(poch(base, length)) is Fraction
        assert falling(base, length) == lowering and type(falling(base, length)) is Fraction


def _same_up_to_scale(A: Polynomial, B: Polynomial) -> bool:
    return A.degree == B.degree and A.monic() == B.monic()


def _gate_pairs() -> list[tuple[Polynomial, Polynomial]]:
    """Every grid pair, scaled by (3/2, -2), swapped where that leaves a
    nonconstant P, and 300 seeded random pairs with sparse supports."""
    grid = [entry.family(point) for entry in catalog_entries() for point in entry.grid]
    rng = random.Random(1)

    def sparse(low: int, high: int) -> Polynomial:
        body = [rng.choice([0, 0, 1, -1, 2, -2, 3]) for _ in range(rng.randint(low, high))]
        return Polynomial(body + [rng.choice([1, -1, 2, 3])])

    return (
        grid
        + [(P * Fraction(3, 2), Q * -2) for P, Q in grid]
        + [(Q, P) for P, Q in grid if Q.degree >= 1]
        + [(sparse(1, 6), sparse(0, 12)) for _ in range(300)]
    )


def _record_builds(monkeypatch) -> list[tuple[str, Polynomial, Polynomial]]:
    """Each catalog family built from here on, as (entry id, P, Q)."""
    builds = []
    for entry in catalog_entries():
        def family(params, entry=entry):
            built = entry.family(params)
            builds.append((entry.id, *built))
            return built

        monkeypatch.setitem(closed_catalog._REGISTRY, entry.id, dataclasses.replace(entry, family=family))
    return builds


class TestRecognition:
    def test_full_grid_is_recognized_consistently(self):
        total = 0
        missed = []
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
                if entry.id not in hits:
                    missed.append((entry.id, point))
        assert total == 862
        # Q's split into the family's terms is not unique at thm10's r % n == 0
        # and at cor28/cor29's r == n; the prop4x entries have no reader.
        expected_misses = [
            (entry.id, point)
            for entry in catalog_entries()
            for point in entry.grid
            if entry.id.startswith("prop")
            or (entry.id == "thm10" and point["r"] % point["n"] == 0)
            or (entry.id in ("cor28", "cor29") and point["r"] == point["n"])
        ]
        assert missed == expected_misses
        assert total - len(missed) == 817

    def test_every_match_is_a_family_member_with_the_exact_value(self):
        checked = 0
        for P, Q in _gate_pairs():
            for matched_id, params in find_matching(P, Q):
                fP, fQ = get_entry(matched_id).family(params)
                assert _same_up_to_scale(fP, P) and _same_up_to_scale(fQ, Q), (matched_id, params)
                assert catalog_eval(matched_id, **params) == scott_permanent(P, Q).value, (
                    matched_id, params, P, Q,
                )
                checked += 1
        assert checked > 5000

    def test_the_pair_reads_the_first_match_of_find_matching(self):
        checked = 0
        for P, Q in _gate_pairs():
            try:
                pair = Pair(P, Q)
            except SharedRoot:
                continue
            assert pair.match == (find_matching(P, Q) or [None])[0], (P, Q)
            checked += pair.match is not None
        assert checked > 1500

    def test_constant_q_is_an_arithmetic_progression(self):
        # thm32 and cor36 at n = 2, m = 1 have Q = sum_{l<2} (l - 1) y^l = -1, up to scale.
        matches = dict(find_matching(power_minus_one(2), Polynomial([3])))
        assert {"thm32", "cor36"} <= set(matches)
        assert matches["thm32"] == {"n": 2, "m": 1, "a": -1}
        assert catalog_eval("thm32", **matches["thm32"]) == 0
        assert catalog_eval("cor36", **matches["cor36"]) == 0

    @pytest.mark.parametrize(
        "P,Q",
        [
            (Polynomial([5]), power_minus_one(3)),  # constant P
            (Polynomial([]), power_minus_one(3)),  # zero P
            (power_minus_one(2), Polynomial([])),  # zero Q
            (Polynomial([0, 0, 0, 1]), power_minus_one(3)),  # monomial P: cor14 at n = 3, m = 1, swapped
            (Polynomial([0, 2]), Polynomial([1, 1])),  # monomial P of degree 1
        ],
    )
    def test_degenerate_pairs_match_nothing(self, P, Q):
        assert find_matching(P, Q) == []
        assert all(entry.infer(P, Q) is None for entry in catalog_entries())

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

    def test_find_matching_recognizes_no_row_family(self, monkeypatch):
        calls = []

        def counted(P):
            calls.append(P)
            return classify_row_polynomial(P)

        assert not hasattr(closed_catalog, "classify_row_polynomial")
        monkeypatch.setattr(fes_engine, "classify_row_polynomial", counted)
        for entry in catalog_entries():
            for point in entry.grid:
                P, Q = entry.family(point)
                matches = find_matching(P, Q)
                assert calls == [], (entry.id, point)
                for matched_id, matched_params in matches:
                    # infer(P, Q), as the CLI's closed:<id> route calls it, agrees.
                    inferred = get_entry(matched_id).infer(P, Q)
                    assert catalog_eval(matched_id, **inferred) == catalog_eval(
                        matched_id, **matched_params
                    )

    def test_find_matching_never_calls_classify_row_polynomial(self, monkeypatch):
        pairs = [entry.family(point) for entry in catalog_entries() for point in entry.grid[:2]]
        expected = [find_matching(P, Q) for P, Q in pairs]

        def refuse(P):
            raise AssertionError("find_matching recognized P's row family")

        monkeypatch.setattr(fes_engine, "classify_row_polynomial", refuse)
        assert [find_matching(P, Q) for P, Q in pairs] == expected

    def test_plus_one_rows_build_no_minus_one_family(self, monkeypatch):
        # P's key tells x^3 + 1 from x^3 - 1 before any family is built.
        minus_one = {e.id for e in catalog_entries() if e.family(e.grid[0])[0].coeff(0) < 0}
        P = power_plus_one(3)
        columns = [entry.family(point)[1] for entry in catalog_entries() for point in entry.grid]
        builds = _record_builds(monkeypatch)
        for Q in columns:
            shape = closed_catalog._Shape(P, Q)
            for reader in catalog_entries():
                closed_catalog._infer(reader, shape)
        assert len(builds) > 0
        assert [entry_id for entry_id, _, _ in builds if entry_id in minus_one] == []

    @pytest.mark.parametrize(
        "P,proposed",
        [
            (Polynomial([-1, 0, 0, 2]), False),
            (Polynomial([-2, 0, 0, 1]), False),
            (Polynomial([1, 0, 0, -1]), True),
            (Polynomial([-3, 0, 0, 3]), True),
        ],
        ids=["2x^3-1", "x^3-2", "-x^3+1", "3x^3-3"],
    )
    def test_minus_one_rows_are_those_classify_row_polynomial_names(self, P, proposed):
        # The catalog's own x^n - 1 guard and the row-family recognizer agree.
        shape = closed_catalog._Shape(P, Polynomial([5, 0, 1]))
        assert list(closed_catalog._minus_one(lambda s, n: [n])(shape)) == ([3] if proposed else [])
        family = fes_engine.RowFamily.POWER_MINUS_ONE
        assert (classify_row_polynomial(P) == (family, 3)) is proposed

    @staticmethod
    def _scaled_params(entry_id: str, params: dict, Q: Polynomial, d: Fraction) -> dict:
        """params as find_matching gives them for (c*P, d*Q): thm10's and cor11's
        vectors are Q's own coefficients, and so is thm39's a for a constant Q."""
        if entry_id in ("thm10", "cor11"):
            return {k: tuple(d * c for c in v) if isinstance(v, tuple) else v
                    for k, v in params.items()}
        if entry_id == "thm39" and Q.degree == 0:
            return {**params, "a": d * params["a"]}
        return params

    def test_scaling_keeps_entries_and_params(self):
        grid = [entry.family(point) for entry in catalog_entries() for point in entry.grid]
        sample = grid[::7]
        scales = ((Fraction(-2), Fraction(3, 2)), (Fraction(5, 7), Fraction(-1, 3)),
                  (Fraction(-1), Fraction(-4, 9)))
        checked = 0
        for P, Q in sample:
            base = find_matching(P, Q)
            for c, d in scales:
                scaled = find_matching(P * c, Q * d)
                assert [i for i, _ in scaled] == [i for i, _ in base], (P, Q, c, d)
                for (entry_id, params), (_, got) in zip(base, scaled):
                    expected = self._scaled_params(entry_id, params, Q, d)
                    assert got == expected, (entry_id, P, Q, c, d)
                    assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]
                    checked += 1
        assert len(sample) > 100 and checked > 500

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=8), min_size=1, max_size=8),
           st.fractions(min_value=-5, max_value=5, max_denominator=6))
    def test_keys_are_equal_exactly_for_proportional_polynomials(self, coeffs, c):
        X = Polynomial(coeffs)
        assume(not X.is_zero and c != 0)
        key = X.key
        assert key[-1] > 0 and math.gcd(*key) == 1 and len(key) == len(X.coeffs)
        assert all(Fraction(k, key[-1]) == x / X.leading for k, x in zip(key, X.coeffs))
        assert (X * c).key == key
        if X.degree:  # X + 1 is then not proportional to X
            assert (X + Polynomial([1])).key != key

    @pytest.mark.parametrize("first_only", [True, False])
    def test_readers_build_no_failing_family(self, monkeypatch, first_only):
        # Each reader checks P's and Q's coefficients on their keys before it
        # proposes, so every family built is the pair's own: on verify's first
        # match (Pair.match) over the grid pairs, and on a full find_matching
        # over the gate pairs.
        shapes = []

        class Recorded(closed_catalog._Shape):
            def __init__(self, P, Q):
                super().__init__(P, Q)
                shapes.append(self)

        monkeypatch.setattr(closed_catalog, "_Shape", Recorded)
        if first_only:
            pairs = [entry.family(point) for entry in catalog_entries() for point in entry.grid]
        else:
            pairs = _gate_pairs()
        builds = _record_builds(monkeypatch)
        failed = built = 0
        for P, Q in pairs:
            if first_only:
                assert Pair(P, Q).match is not None
            else:
                find_matching(P, Q)
            failed += sum(fp.key != P.key or fq.key != Q.key for _, fp, fq in builds)
            built += len(builds)
            builds.clear()
        assert len(shapes) == len(pairs)
        assert built >= 862
        assert failed == 0

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

    def test_domain_is_the_catalog_entry_domain(self):
        with pytest.raises(OutOfDomain, match="prop42: n >= 2 required"):
            involution_identity_check("prop42", 1)
        with pytest.raises(OutOfDomain, match=r"^prop43: n must be odd \(the weight has a pole at x = -1\)$"):
            involution_identity_check("prop43", 4)

    def test_bad_requests(self):
        with pytest.raises(BadParams):
            involution_identity_check("prop99", 3)
        with pytest.raises(BadParams):
            involution_identity_check("prop40", 0)

    def test_tolerance_is_echoed(self):
        report = involution_identity_check("prop40", 3, tolerance=1e-3)
        assert report.tolerance == 1e-3

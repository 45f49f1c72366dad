"""Polynomial text handling and the four CLI subcommands."""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scottperm import (
    EvalResult,
    ParseError,
    Polynomial,
    ResourceLimit,
    catalog_entries,
    catalog_family,
    cli,
    numeric_oracle,
    scott_engine,
)
from scottperm.cli import (
    DegreeZeroWarning,
    PolyExpr,
    _cmd_verify,
    bench_rows,
    main,
    parse_poly,
    render_poly,
)

from test_closed_catalog import ALL_IDS


# Longer than Python's default limit of 4300 digits for int() of a string.
LONG_INT = "9" * 5000


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_json(capsys, *argv: str) -> dict:
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def error_json(capsys, expected_code: int, *argv: str) -> dict:
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "detail"}
    return payload


class TestParsePoly:
    def test_monomial_sum(self):
        expr = parse_poly("x^5 - 1")
        assert expr.parsed == Polynomial([-1, 0, 0, 0, 0, 1])
        assert expr.variable == "x"
        assert expr.source == "x^5 - 1"

    def test_fractional_coefficients_and_variable(self):
        expr = parse_poly("y^4 + 3/2*y - 7")
        assert expr.parsed == Polynomial([-7, Fraction(3, 2), 0, 0, 1])
        assert expr.variable == "y"

    def test_coefficient_list(self):
        assert parse_poly("[1, 2, 3]").parsed == Polynomial([1, 2, 3])
        assert parse_poly("[ -1, 0, 0, 1 ]").parsed == Polynomial([-1, 0, 0, 1])

    def test_star_is_optional(self):
        assert parse_poly("2x^2 - 2").parsed == Polynomial([-2, 0, 2])

    def test_repeated_exponents_accumulate(self):
        assert parse_poly("x + x + 1").parsed == Polynomial([1, 2])

    @pytest.mark.parametrize(
        "text",
        ["", "x^0", "x^-1", "x + y", "[1, 2", "1/0*x", "x x", "@", "x^^2"],
    )
    def test_rejects_malformed_text(self, text):
        with pytest.raises(ParseError) as exc_info:
            parse_poly(text)
        assert exc_info.value.position >= 0
        assert "position" in str(exc_info.value)

    def test_error_points_at_the_offending_spot(self):
        with pytest.raises(ParseError) as exc_info:
            parse_poly("x + y")
        assert exc_info.value.position == 4

    @pytest.mark.parametrize("text", ["5", "[0]", "[]"])
    def test_constant_input_warns(self, text):
        with pytest.warns(DegreeZeroWarning, match="constant"):
            parse_poly(text)


# Pinned parse results: each accepted text with its coefficients (low degree
# first) and variable, each rejected text with the position of its error.
PARSED = [
    ("x^5 - 1", "-1 0 0 0 0 1", "x"),
    ("y^4 + 3/2*y - 7", "-7 3/2 0 0 1", "y"),
    ("[1, 2, 3]", "1 2 3", "x"),
    ("[ -1, 0, 0, 1 ]", "-1 0 0 1", "x"),
    ("[+1, -3/4]", "1 -3/4", "x"),
    ("[1/2, 3/4, -5/6]", "1/2 3/4 -5/6", "x"),
    ("2x^2 - 2", "-2 0 2", "x"),
    ("x + x + 1", "1 2", "x"),
    ("3 / 2 * x ^ 2", "0 0 3/2", "x"),
    ("007x", "0 7", "x"),
    ("-x", "0 -1", "x"),
    ("  +  x  ", "0 1", "x"),
    ("x\t-\n1", "-1 1", "x"),
    ("-3/6 z^3 + 2/4z", "0 1/2 0 -1/2", "z"),
    ("x^10 + x^10", "0 0 0 0 0 0 0 0 0 0 2", "x"),
    ("0x + 1", "1", "x"),
    ("xy^2 + xy", "0 1 1", "xy"),
    ("α^2 - 1", "-1 0 1", "α"),
    ("x^2 + ٣x", "0 3 1", "x"),  # int() takes every decimal digit
    ("x^٣", "0 0 0 1", "x"),
    ("5", "5", "x"),
    ("0", "", "x"),
    ("x - x", "", "x"),
    ("[0]", "", "x"),
    ("[]", "", "x"),
    ("[ ]", "", "x"),
]
REJECTED = [
    ("", 0), ("x^0", 2), ("x^-1", 2), ("x + y", 4), ("[1, 2", 5), ("1/0*x", 2), ("x x", 2),
    ("@", 0), ("x^^2", 2), ("x - -1", 4), ("2 3", 2), ("1/2/3", 3), ("3/x", 2), ("3/*x", 2),
    ("2*", 2), ("2*3", 2), ("x^", 2), ("x^2 3", 4), ("x^2 y", 4), ("x 2", 2), ("[1, ]", 4),
    ("[,]", 1), ("[1 x]", 3), ("[1] x", 4), ("[1/0]", 3), ("[-]", 2), ("x + [1]", 4), ("+", 1),
    ("x +", 3), ("--1", 1), ("*x", 0), ("/3", 0), ("2/3/x", 3), ("x^1/2", 3), ("1/0 2", 2),
    ("2 0", 2), ("x ^ 0 + 1", 4), ("x^2 + 1 @", 8), ("x + + @", 6), ("x*2", 1), ("2x*", 2),
    ("2**x", 2), ("x y", 2), ("x_1", 1), ("x^2_", 3), ("[1,2]]", 5), ("[1,2] 3", 6), ("]", 0),
    ("½x", 0), (f"x^{LONG_INT}", 2), (f"{LONG_INT}*x + 1", 0), (f"x + 1/{LONG_INT}", 6),
    (f"[{LONG_INT}, 1]", 1), (f"[1/{LONG_INT}, 1]", 3), (f"y^{LONG_INT} + 2", 2),
    (f"{LONG_INT}x + @", 5004), (f"x + y + {LONG_INT}", 4),
]
# Characters that no token starts, such as '@' and the digit '²' that int()
# refuses, are reported first, wherever they stand.
NON_DECIMAL_DIGITS = [("x^²", 2), ("²x", 0), ("x²", 1), ("x + y²", 5)]
# Text from these characters makes any kind of token, in or out of place.
TEXT_ALPHABET = "0123456789abxyzXY+-*/^[], \t\n²٣α½"


@st.composite
def valid_sums(draw):
    """(text, name, terms): a valid sum with random spacing, signs, integer, p/q and
    implicit coefficients, optional '*', repeated exponents and a name of one to
    three letters, and each term's (exponent, signed coefficient)."""
    name = draw(st.text("xyzαβ", min_size=1, max_size=3))
    space = st.sampled_from(["", " ", "  ", "\t", "\n "])
    digits = st.integers(0, 10**30).map(str) | st.integers(0, 99).map(lambda k: "0" + str(k))
    text, terms, named = "", [], False
    for i in range(draw(st.integers(1, 8))):
        sign = draw(st.sampled_from(["+", "-"] + ([""] if i == 0 else [])))
        exponent = draw(st.sampled_from([None, 1]) | st.integers(0, 40))  # None: no name
        numerator = draw(st.none() if exponent is not None and draw(st.booleans()) else digits)
        coeff, shown = Fraction(1), ""
        if numerator is not None:
            coeff, shown = Fraction(int(numerator)), numerator
            if draw(st.booleans()):
                denominator = draw(st.integers(1, 10**12))
                coeff /= denominator
                shown += draw(space) + "/" + draw(space) + str(denominator)
        if exponent is not None:
            if numerator is not None:
                shown += draw(space) + draw(st.sampled_from(["*", ""])) + draw(space)
            shown += name
            if exponent != 1 or draw(st.booleans()):
                exponent = max(exponent, 1)
                shown += draw(space) + "^" + draw(space) + str(exponent)
            named = True
        text += draw(space) + sign + draw(space) + shown + draw(space)
        terms.append((exponent or 0, -coeff if sign == "-" else coeff))
    return text, name if named else None, terms


class TestParseCorpus:
    @pytest.mark.filterwarnings("ignore::scottperm.cli.DegreeZeroWarning")
    @pytest.mark.parametrize("text,coeffs,variable", PARSED)
    def test_accepted_text(self, text, coeffs, variable):
        expr = parse_poly(text)
        assert expr.parsed == Polynomial([Fraction(c) for c in coeffs.split()])
        assert all(type(c) is Fraction for c in expr.parsed.coeffs)
        assert (expr.variable, expr.source) == (variable, text)

    @pytest.mark.parametrize("text,position", REJECTED, ids=[t[:20] for t, _ in REJECTED])
    def test_rejected_text(self, text, position):
        with pytest.raises(ParseError) as exc_info:
            parse_poly(text)
        assert exc_info.value.position == position
        assert str(exc_info.value).endswith(f"(at position {position})")

    @pytest.mark.parametrize("text,position", NON_DECIMAL_DIGITS)
    def test_a_digit_that_int_refuses_is_an_unexpected_character(self, text, position):
        with pytest.raises(ParseError) as exc_info:
            parse_poly(text)
        assert exc_info.value.position == position
        assert str(exc_info.value).startswith("unexpected character '²'")

    @pytest.mark.filterwarnings("ignore::scottperm.cli.DegreeZeroWarning")
    @pytest.mark.parametrize("grammar,form", [(cli._SUM, "{}"), (cli._LIST, "[{}]")])
    def test_the_readers_take_the_terms_that_the_grammar_table_takes(self, grammar, form):
        # _read_sum and _read_list test a term by conditions on its groups, and
        # _reject walks the same grammar as a table; they must agree on every
        # sequence of the tokens of groups 2-8.
        follows, needs, _ = grammar
        tokens = ["2", "/", "3", "*", "x", "^", "4"]
        for mask in range(1, 128):
            body = " ".join(token for i, token in enumerate(tokens) if mask >> i & 1)
            m = cli._TERM.fullmatch(body)  # the digit runs land in groups 2, 4, 8 in turn
            last, whole = 0, True
            for group in (g for g in range(2, 9) if m.group(g)):
                whole = whole and group in follows[last]
                last = group
            try:
                parse_poly(form.format(body))
                parsed = True
            except ParseError:
                parsed = False
            assert parsed == (whole and last not in needs), body

    @settings(max_examples=400)
    @given(valid_sums())
    def test_a_valid_sum_parses_to_the_polynomial_of_its_terms(self, sum_and_terms):
        text, name, terms = sum_and_terms
        table: dict[int, Fraction] = {}
        for exponent, coeff in terms:
            table[exponent] = table.get(exponent, 0) + coeff
        expected = Polynomial([table.get(k, 0) for k in range(max(table) + 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegreeZeroWarning)
            expr = parse_poly(text)
        assert (expr.parsed, expr.variable) == (expected, name or "x"), text

    @settings(max_examples=400)
    @given(st.text(TEXT_ALPHABET, max_size=16).filter(lambda t: not re.search(r"\^\s*\d{4}", t)))
    def test_any_text_parses_or_is_a_parse_error(self, text):
        # Exponents stay below 10^3: a larger one is a long list of zeros.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegreeZeroWarning)
            try:
                assert isinstance(parse_poly(text), PolyExpr)
            except ParseError as exc:
                assert 0 <= exc.position <= len(text)


class TestRenderPoly:
    @pytest.mark.parametrize(
        "coeffs,variable,expected",
        [
            ([-7, Fraction(3, 2), 0, 0, 1], "y", "y^4 + 3/2*y - 7"),
            ([], "x", "0"),
            ([0, 1], "x", "x"),
            ([2], "x", "2"),
            ([-1, 0, 1], "x", "x^2 - 1"),
            ([0, -1], "x", "-x"),
        ],
    )
    def test_snapshots(self, coeffs, variable, expected):
        assert render_poly(Polynomial(coeffs), variable) == expected

    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
            min_size=2,
            max_size=7,
        ).filter(lambda c: c[-1] != 0)
    )
    def test_round_trip(self, coeffs):
        p = Polynomial(coeffs)
        assert parse_poly(render_poly(p)).parsed == p


class TestEvalCommand:
    def test_auto_uses_banded_shortcut_for_recognized_rows(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^3+1")
        assert set(payload) == {"n", "m", "method", "value", "elapsed_ms", "notes"}
        assert payload["n"] == 3 and payload["m"] == 3
        assert payload["method"] == "fes"
        assert payload["value"] == {"num": "-3", "den": "8"}
        assert isinstance(payload["elapsed_ms"], float)
        assert isinstance(payload["notes"], list)

    def test_auto_falls_back_to_determinant_route(self, capsys):
        payload = eval_json(capsys, "eval", "[2, 0, 1]", "y^3+1")
        assert payload["method"] == "theorem1"

    @pytest.mark.parametrize(
        "P,Q,method,shown",
        [
            ("x^3 - 2*x + 5", "y^4 + y - 3", "theorem1", "theorem1"),
            ("x^5 - 1", "y^7 + 2*y^2 + 5", "fes", "fes"),
            ("x^4 + x^3 + x^2 + x + 1", "y^6 - 2*y + 7", "fes", "fes_tilde"),
            ("x^3 - 2*x + 5", "y^4 + y - 3", "auto", "theorem1"),
            ("3/2*x^3 - 2*x + 5", "-2/3*y^4 + y - 3", "theorem1", "theorem1"),
            ("3/2*x^3 - 3/2", "2/3*y^5 + y - 3", "fes", "fes"),
            ("-x^2 - x - 1", "1/2*y^4 + 7", "fes", "fes_tilde"),
            ("3/2*x^3 - 3/2", "1/2*y^4 + 7", "auto", "fes"),
        ],
    )
    def test_the_exact_routes_never_build_the_fraction_coefficients(
        self, capsys, monkeypatch, P, Q, method, shown
    ):
        # They read each polynomial's key and scale only, on integer and on
        # rational, non-monic text alike.
        def unread(self):
            raise AssertionError("Polynomial.coeffs was built")

        monkeypatch.setattr(Polynomial, "coeffs", property(unread))
        payload = eval_json(capsys, "eval", "--method", method, "--", P, Q)
        assert payload["method"] == shown

    def test_explicit_determinant_route(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^3+1", "--method", "theorem1")
        assert payload["method"] == "theorem1"
        assert payload["value"] == {"num": "-3", "den": "8"}

    def test_oracle_route_reports_complex_value(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^3+1", "--method", "oracle")
        assert payload["method"] == "oracle"
        assert set(payload["value"]) == {"re", "im"}
        assert abs(payload["value"]["re"] + 0.375) < 1e-6
        assert abs(payload["value"]["im"]) < 1e-6

    def test_involution_route(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^3+1", "--method", "involution")
        assert payload["method"] == "involution"
        assert abs(payload["value"]["re"] + 0.375) < 1e-6

    def test_closed_route_reports_matched_parameters(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^6+y^3+1", "--method", "closed:cor19")
        assert payload["method"] == "closed:cor19"
        assert payload["value"] == {"num": "6", "den": "1"}
        assert payload["notes"] == ["matched with n=3, a=1"]

    def test_closed_route_prints_vector_parameters_as_rationals(self, capsys):
        payload = eval_json(capsys, "eval", "x^2-1", "y^3+5", "--method", "closed:thm10")
        assert payload["notes"] == ["matched with n=2, r=1, a=(5, 0), b=(0, 1)"]

    def test_closed_route_matches_the_binomial_member_of_cor19(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^6+1", "--method", "closed:cor19")
        assert payload["value"] == {"num": "6", "den": "1"}
        assert payload["notes"] == ["matched with n=3, a=0"]

    def test_closed_route_reports_why_a_member_is_out_of_domain(self, capsys):
        # y^2 + 1 shares no root with x^2 - 1; with y^3 + 1 the pair is SharedRoot.
        payload = error_json(
            capsys, 4, "eval", "x^2-1", "y^2+1", "--method", "closed:cor26"
        )
        assert payload["error"] == "OutOfDomain"
        assert payload["detail"] == "cor26: n must be odd"

    def test_closed_route_rejects_non_members(self, capsys):
        payload = error_json(
            capsys, 4, "eval", "x^3-1", "y^4+1", "--method", "closed:cor19"
        )
        assert payload["error"] == "OutOfDomain"
        assert "not in this family" in payload["detail"]

    def test_closed_route_unknown_entry(self, capsys):
        payload = error_json(
            capsys, 1, "eval", "x^3-1", "y^4+1", "--method", "closed:thm99"
        )
        assert payload["error"] == "BadParams"

    def test_closed_route_without_matcher(self, capsys):
        payload = error_json(
            capsys, 1, "eval", "x^3-1", "y^6+y^3+1", "--method", "closed:prop40"
        )
        assert payload["error"] == "BadParams"
        assert "matcher" in payload["detail"]

    def test_banded_route_needs_a_recognized_row_polynomial(self, capsys):
        payload = error_json(capsys, 1, "eval", "x^2+2", "y^3+1", "--method", "fes")
        assert payload["error"] == "BadParams"

    def test_unknown_method(self, capsys):
        payload = error_json(capsys, 1, "eval", "x^2-1", "y^3+1", "--method", "magic")
        assert payload["error"] == "BadParams"

    def test_involution_route_rejects_a_repeated_row_root(self, capsys):
        payload = error_json(
            capsys, 1, "eval", "x^3 - 3x + 2", "y^4 + y^3 + 5", "--method", "involution"
        )
        assert payload["error"] == "RepeatedXRoot"

    def test_shared_root_exit_code(self, capsys):
        payload = error_json(capsys, 2, "eval", "x^2-1", "y^2-1")
        assert payload["error"] == "SharedRoot"

    @pytest.mark.parametrize(
        "P,Q,method",
        [
            # (y - 1)^2 (y - 3) shares its double root with x - 1.
            *(("x-1", "y^3-5y^2+7y-3", method)
              for method in ("oracle", "involution", "closed_form", "closed:cor12")),
            ("x^2-1", "y^3+1", "closed:cor26"),  # a cor26 member outside its domain
            # x^3 + x^2 + 2x + 1 is no row family, and Q is it times (y + 3).
            ("x^3+x^2+2x+1", "y^4+4y^3+5y^2+7y+3", "fes"),
        ],
    )
    def test_shared_root_exit_code_for_every_method(self, capsys, P, Q, method):
        payload = error_json(capsys, 2, "eval", P, Q, "--method", method)
        assert payload["error"] == "SharedRoot"

    def test_parse_error_exit_code(self, capsys):
        payload = error_json(capsys, 3, "eval", "x^^2", "y^3+1")
        assert payload["error"] == "ParseError"
        assert "position" in payload["detail"]

    @pytest.mark.parametrize(
        "P,Q,position",
        [
            (f"x^{LONG_INT}", "y+1", 2),
            (f"{LONG_INT}*x + 1", "y+1", 0),
            (f"x + 1/{LONG_INT}", "y+1", 6),
            (f"[{LONG_INT}, 1]", "y+1", 1),
            (f"[1/{LONG_INT}, 1]", "y+1", 3),
            ("x+1", f"y^{LONG_INT} + 2", 2),  # column polynomial
        ],
        ids=["exponent", "coefficient", "denominator", "list", "list-denominator", "column"],
    )
    def test_integer_past_the_digit_limit_is_a_parse_error(self, capsys, P, Q, position):
        payload = error_json(capsys, 3, "eval", P, Q)
        assert payload["error"] == "ParseError"
        assert payload["detail"].endswith(f"(at position {position})")

    @pytest.mark.parametrize(
        "P,Q,exponent",
        [
            ("x^20000000", "y+1", "20000000"),
            ("3*x^2 - x^ 5000", "y", "5000"),
            ("x+1", f"y^{cli.MAX_DEGREE + 1} + 2", str(cli.MAX_DEGREE + 1)),  # column polynomial
        ],
        ids=["huge", "spaced", "column"],
    )
    def test_exponent_above_the_degree_budget_is_a_resource_limit(self, capsys, P, Q, exponent):
        # Refused as the term is read, before any coefficient list is built.
        start = time.perf_counter()
        payload = error_json(capsys, 5, "eval", P, Q)
        assert time.perf_counter() - start < 1
        position = (P if exponent in P else Q).index(exponent)
        assert payload == {
            "error": "ResourceLimit",
            "detail": f"exponent {exponent} is above the degree budget {cli.MAX_DEGREE}"
                      f" (at position {position})",
        }

    def test_the_degree_budget_is_admitted(self, capsys):
        payload = eval_json(capsys, "eval", f"x^{cli.MAX_DEGREE}", "y+1")
        assert (payload["n"], payload["m"]) == (cli.MAX_DEGREE, 1)

    def test_a_character_that_starts_no_token_comes_before_the_budget(self):
        with pytest.raises(ParseError, match="unexpected character '@'"):
            parse_poly("x^5000 @")
        with pytest.raises(ResourceLimit):
            parse_poly("x^5000 + +")

    def test_vanishing_rectangular_case(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y - 5")
        assert payload["value"] == {"num": "0", "den": "1"}
        assert payload["n"] == 3 and payload["m"] == 1

    def test_closed_form_route_takes_the_first_catalog_match(self, capsys):
        payload = eval_json(capsys, "eval", "x^3-1", "y^6+y^3+1", "--method", "closed_form")
        assert payload["method"] == "closed_form"
        assert payload["value"] == {"num": "6", "den": "1"}
        assert payload["notes"] == ["matched cor11"]

    def test_closed_form_route_needs_a_catalog_match(self, capsys):
        payload = error_json(capsys, 1, "eval", "[2, 0, 1]", "y^3+1", "--method", "closed_form")
        assert payload["error"] == "BadParams"

    @pytest.mark.filterwarnings("ignore::scottperm.cli.DegreeZeroWarning")
    @pytest.mark.parametrize(
        "method", ["auto", "theorem1", "fes", "oracle", "involution", "closed_form", "closed:cor19"]
    )
    @pytest.mark.parametrize(
        "P,Q,side",
        [("5", "y^3+1", "row"), ("[0]", "y^3+1", "row"), ("x^3-1", "0", "column")],
    )
    def test_degenerate_pairs_are_zero_degree_for_every_method(self, capsys, method, P, Q, side):
        payload = error_json(capsys, 1, "eval", P, Q, "--method", method)
        assert payload["error"] == "ZeroDegree"
        assert f"the {side} polynomial" in payload["detail"]

    @pytest.mark.filterwarnings("ignore::scottperm.cli.DegreeZeroWarning")
    @pytest.mark.parametrize("method", ["magic", "closed:thm99", "closed:prop40"])
    def test_method_is_resolved_before_the_pair_is_checked(self, capsys, method):
        payload = error_json(capsys, 1, "eval", "5", "y^3+1", "--method", method)
        assert payload["error"] == "BadParams"


ROUTE_NAMES = ("theorem1", "oracle", "involution", "fes", "closed_form")


@pytest.mark.filterwarnings("ignore::scottperm.cli.DegreeZeroWarning")
@pytest.mark.parametrize(
    "P,Q",
    [("x^3-1", "y^4+1"), ("x^2+x+1", "y^3+2"), ("x^2-1", "5"), ("[2, 0, 1]", "y^3+1")],
)
@pytest.mark.parametrize("method", ROUTE_NAMES)
def test_eval_matches_the_verify_route_of_the_same_name(capsys, method, P, Q):
    report = eval_json(capsys, "verify", P, Q)
    code, out, err = run_cli(capsys, "eval", P, Q, "--method", method)
    # The fes route is named after the row family it found.
    names = ("fes", "fes_tilde") if method == "fes" else (method,)
    routes = [route for route in report["routes"] if route["method"] in names]
    if not routes:  # the route does not take this pair
        assert code == 1 and json.loads(err)["error"] == "BadParams"
        return
    (route,) = routes
    if route["error"] is not None:
        assert code == 1
        assert route["error"].startswith(json.loads(err)["error"] + ": ")
        return
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["method"], payload["value"], payload["notes"]) == (
        route["method"],
        route["value"],
        route["notes"],
    )


class TestVerifyCommand:
    def test_no_compared_pair_is_not_agreement(self, capsys):
        payload = eval_json(capsys, "verify", "--", "x^20 - 3*x^7 + 2", "y^20 + y^3 - 5")
        assert payload["agreements"] == []
        assert payload["all_agree"] is False

    def test_a_coefficient_that_underflows_fails_both_float_routes(self, capsys):
        # x^2 + 10^-400 has the roots +-1e-200 i, not the two zero roots that its floats give.
        payload = eval_json(capsys, "verify", "--", "x^2 + 1/1" + "0" * 400, "y^3 - 2")
        theorem1, oracle, involution = payload["routes"]
        assert theorem1["error"] is None
        value = Fraction(int(theorem1["value"]["num"]), int(theorem1["value"]["den"]))
        P, Q = Polynomial([Fraction(1, 10**400), 0, 1]), Polynomial([-2, 0, 0, 1])
        assert value == scott_engine.scott_permanent(P, Q).value != 0
        message = "DidNotConverge: the x^0 coefficient of the monic form underflows to 0.0"
        for route, method in ((oracle, "oracle"), (involution, "involution")):
            assert (route["method"], route["value"], route["error"]) == (method, None, message)
        assert payload["agreements"] == [] and payload["all_agree"] is False

    def test_full_agreement(self, capsys):
        payload = eval_json(capsys, "verify", "x^3-1", "y^4+1")
        assert set(payload) == {"n", "m", "tolerance", "all_agree", "routes", "agreements"}
        assert payload["all_agree"] is True
        assert [r["method"] for r in payload["routes"]] == [
            "theorem1",
            "oracle",
            "involution",
            "fes",
            "closed_form",
        ]
        for route in payload["routes"]:
            assert set(route) == {"method", "value", "error", "elapsed_ms", "notes"}
            assert route["error"] is None
        assert len(payload["agreements"]) == 10
        for pair in payload["agreements"]:
            assert set(pair) == {"a", "b", "gap", "agree"}
            assert pair["agree"] is True

    def test_tolerance_is_echoed(self, capsys):
        payload = eval_json(capsys, "verify", "x^2-1", "y^3+2", "--tolerance", "1e-9")
        assert payload["tolerance"] == 1e-9
        assert payload["all_agree"] is True

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
    def test_tolerance_must_be_finite_and_not_negative(self, capsys, tolerance):
        payload = error_json(capsys, 1, "verify", "x^2-1", "y^3+2", f"--tolerance={tolerance}")
        assert payload["error"] == "BadParams"
        assert "tolerance" in payload["detail"]

    def test_shared_root_exit_code(self, capsys):
        payload = error_json(capsys, 2, "verify", "x^3-1", "y^3-1")
        assert payload["error"] == "SharedRoot"

    def test_values_beyond_float_range_exit_cleanly(self):
        # The permanent is -10^400: too large for a float, and the float
        # oracles see x = y.  The exact routes must still be compared.
        q_text = f"y - {10**400 + 1}/{10**400}"
        proc = subprocess.run(
            [sys.executable, "-m", "scottperm", "verify", "x - 1", q_text],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["all_agree"] is True
        assert {pair["gap"] for pair in payload["agreements"]} == {0.0}


# Q = y - 10^400 has a coefficient beyond the float range, and the roots of
# Q = y^2 + 10^299 y + 1 take the residual check in find_roots past it: both
# float routes fail with OverflowError.
OVERFLOWING_Q = {"coefficient": f"y - {10**400}", "root": f"y^2 + {10**299}*y + 1"}
# The estimate's last digits are LAPACK's.
ROOT_OVERFLOW = "|z|^2 overflows in the residual check at root estimate (-"


class TestFloatRouteOverflow:
    @pytest.mark.parametrize("q_text", OVERFLOWING_Q.values(), ids=OVERFLOWING_Q)
    @pytest.mark.parametrize("method", ["oracle", "involution"])
    def test_eval_exits_1_with_a_json_error(self, method, q_text):
        proc = subprocess.run(
            [sys.executable, "-m", "scottperm", "eval", "x - 1", q_text, "--method", method],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.count("\n") == 1
        error = json.loads(proc.stderr)
        assert error["error"] == "OverflowError"
        if q_text == OVERFLOWING_Q["root"]:
            assert error["detail"].startswith(ROOT_OVERFLOW)

    @pytest.mark.parametrize("q_text", OVERFLOWING_Q.values(), ids=OVERFLOWING_Q)
    def test_verify_reports_them_as_route_errors(self, capsys, q_text):
        payload = eval_json(capsys, "verify", "x - 1", q_text)
        errors = {route["method"]: route["error"] for route in payload["routes"] if route["error"]}
        assert set(errors) == {"oracle", "involution"}
        assert all(error.startswith("OverflowError: ") for error in errors.values())
        if q_text == OVERFLOWING_Q["root"]:
            prefix = f"OverflowError: {ROOT_OVERFLOW}"
            assert all(error.startswith(prefix) for error in errors.values())


class TestCatalogCommand:
    def test_lists_every_entry(self, capsys):
        payload = eval_json(capsys, "catalog")
        assert [row["id"] for row in payload] == list(ALL_IDS)
        for row in payload:
            assert set(row) == {"id", "params", "statement", "domain", "grid_points"}
        assert sum(row["grid_points"] for row in payload) == 862

    def test_single_entry(self, capsys):
        payload = eval_json(capsys, "catalog", "--id", "cor19")
        assert len(payload) == 1
        row = payload[0]
        assert row["params"] == ["n", "a"]
        assert "-2" in row["domain"]

    def test_unknown_entry(self, capsys):
        payload = error_json(capsys, 1, "catalog", "--id", "zzz")
        assert payload["error"] == "BadParams"


class TestBenchCommand:
    def test_csv_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "2..4", "2..4", "--seed", "1", "--max-n", "3"
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,oracle_ms,theorem1_ms,agree"
        assert len(lines) == 4
        for line, n in zip(lines[1:], (2, 3, 4)):
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[0] == str(n) and fields[1] == str(n)
            if n <= 3:
                assert fields[2] != "" and fields[4] == "true"
            else:
                assert fields[2] == "" and fields[4] == ""

    def test_json_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "2..3", "3", "--seed", "2", "--max-n", "10", "--json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [(row["n"], row["m"]) for row in rows] == [(2, 3), (3, 3)]
        for row in rows:
            assert set(row) == {"n", "m", "oracle_ms", "theorem1_ms", "agree"}
            assert row["agree"] is True

    def test_range_broadcast_mismatch(self, capsys):
        payload = error_json(capsys, 1, "bench", "2..3", "2..4", "--seed", "0")
        assert payload["error"] == "BadParams"

    def test_bad_range_text(self, capsys):
        assert error_json(capsys, 1, "bench", "5..2", "3")["error"] == "BadParams"
        assert error_json(capsys, 1, "bench", "abc", "3")["error"] == "BadParams"

    def test_range_end_above_the_degree_budget_is_a_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "range", lambda *args: pytest.fail("the range was listed"), raising=False)
        with pytest.raises(ResourceLimit, match="range end 1025 is above the degree budget 1024"):
            cli._parse_range("2..1025")
        monkeypatch.undo()
        assert error_json(capsys, 5, "bench", "1025", "3")["error"] == "ResourceLimit"
        assert cli._parse_range(f"{cli.MAX_DEGREE}") == [cli.MAX_DEGREE]

    def test_a_large_n_row_prints_one_row_without_its_oracle_leg(self, capsys):
        # The oracle leg is skipped (n > --max-n), so the pair is drawn without
        # finding a root (seed 2's first P of degree 500 would overflow find_roots).
        code, out, err = run_cli(capsys, "bench", "500", "3", "--seed", "2")
        assert code == 0, err
        header, row = out.splitlines()
        assert header == "n,m,oracle_ms,theorem1_ms,agree" and row.startswith("500,3,,")

    def test_a_row_without_its_oracle_leg_finds_no_root(self, monkeypatch):
        monkeypatch.setattr(numeric_oracle, "find_roots", lambda p: pytest.fail("find_roots was called"))
        (row,) = bench_rows([600], [3], seed=2, max_n=10)
        assert row["oracle_ms"] is None and row["agree"] is None and row["theorem1_ms"] > 0

    def test_only_rows_that_time_the_oracle_reject_close_roots(self, monkeypatch):
        drawn, original = [], scott_engine.scott_permanent

        def recorded(P, Q):
            if not drawn or drawn[-1] != (P, Q):
                drawn.append((P, Q))
            return original(P, Q)

        monkeypatch.setattr(scott_engine, "scott_permanent", recorded)
        timed, skipped, timed_again = bench_rows([3, 12, 4], [3, 3, 5], seed=5, max_n=10)
        assert timed["agree"] is True and skipped["agree"] is None and timed_again["agree"] is True
        rng = random.Random(5)
        assert drawn == [
            numeric_oracle.random_coprime_pair(rng, 3, 3),
            numeric_oracle._random_monic_pair(rng, 12, 3),
            numeric_oracle.random_coprime_pair(rng, 4, 5),
        ]

    def test_each_polynomial_of_a_timed_row_is_root_found_once(self, monkeypatch):
        found, original = [], numeric_oracle.find_roots

        def recorded(p):
            found.append(p)
            return original(p)

        monkeypatch.setattr(numeric_oracle, "find_roots", recorded)
        rows = bench_rows([4, 5], [5, 6], seed=1, max_n=10)
        assert [row["agree"] for row in rows] == [True, True]
        # Seed 1's first draw of each row passes the close-root test: P, then Q, once each.
        rng = random.Random(1)
        drawn = [numeric_oracle._random_monic_pair(rng, 4, 5), numeric_oracle._random_monic_pair(rng, 5, 6)]
        assert found == [drawn[0][0], drawn[0][1], drawn[1][0], drawn[1][1]]

    def test_seed_0_rows_are_those_of_random_coprime_pairs(self, capsys):
        # Every row of `bench 2..8 2..8 --seed 0` times the oracle, so each draws
        # its pair with random_coprime_pair: the columns that do not time are fixed.
        code, out, err = run_cli(capsys, "bench", "2..8", "2..8", "--seed", "0")
        assert code == 0, err
        columns = [line.split(",")[:2] + line.split(",")[4:] for line in out.splitlines()]
        assert columns == [["n", "m", "agree"]] + [[str(n), str(n), "true"] for n in range(2, 9)]

    def test_oracle_leg_is_skipped_above_verifys_cost_limit(self, monkeypatch):
        # The oracle's m*n*2^n DP steps: 15 * 41 * 2^15 is just above verify's default limit.
        assert scott_engine.ORACLE_COST_LIMIT < 15 * 41 * 2**15
        (over,) = bench_rows([15], [41], seed=3, max_n=20)
        assert over["oracle_ms"] is None and over["agree"] is None and over["theorem1_ms"] > 0
        monkeypatch.setattr(scott_engine, "ORACLE_COST_LIMIT", 4 * 4 * 2**4)
        within, at, above = bench_rows([4, 4, 4], [3, 4, 5], seed=3, max_n=20)
        assert within["agree"] is True and at["agree"] is True
        assert above["oracle_ms"] is None and above["agree"] is None


def _without_timings(payload):
    if isinstance(payload, dict):
        return {k: _without_timings(v) for k, v in payload.items() if k != "elapsed_ms"}
    if isinstance(payload, list):
        return [_without_timings(v) for v in payload]
    return payload


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("eval",),
        ("verify", "x-1", "y", "--tolerance", "abc"),
        ("bench", "1..2", "1..2", "--seed", "z"),
        ("eval", "x-1", "y", "--bogus"),
    ],
)
def test_usage_errors_are_bad_params(capsys, argv):
    assert error_json(capsys, 1, *argv)["error"] == "BadParams"


@pytest.mark.parametrize("argv", [("--help",), ("eval", "--help")])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: scottperm")


DISPATCH_ARGV = [
    (),
    ("--help",),
    ("-h",),
    ("frob",),
    ("frob", "x", "y"),
    ("--", "eval", "x-1", "y+2"),
    ("-x", "eval"),
    ("eval", "--", "x^2 - 1", "y^3 + 2"),
    ("eval", "--", "-x^2+1", "y^3 + 2"),
    ("eval", "-x^2+1", "y^3 + 2"),
    ("eval", "--method=theorem1", "x^2 - 2", "y^3 + 2"),
    ("eval", "--meth", "fes", "x^3 - 1", "y^4 + 2"),
    ("eval", "x^3 - 1", "y^4 + 2", "--method", "magic"),
    ("eval", "--method"),
    *((command, flag) for command in ("eval", "verify", "catalog", "bench") for flag in ("-h", "--help")),
    ("eval", "--he"),
    ("eval",),
    ("eval", "x-1"),
    ("eval", "x-1", "y+2", "z"),
    ("eval", "x-1", "y+2", "--bogus"),
    ("verify", "--", "-x+1", "y^2+3", "--tolerance", "1e-9"),
    ("verify", "x-1", "y+2", "--tolerance", "abc"),
    ("verify", "x-1", "y+2", "--tol", "inf"),
    ("catalog", "--id", "cor9"),
    ("catalog", "extra"),
    ("bench", "1..2", "1..2", "--seed", "z"),
    ("bench", "2", "2", "--max-n", "q"),
    ("bench", "2"),
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV)
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv):
    """main hands argv after a command name to that command's parser; the exit
    code, stdout and stderr are those of the top-level parser handing it on."""

    def run() -> tuple:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        return code, re.sub(r'"elapsed_ms": [-0-9.e]+', "", out), err

    direct = run()
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert direct == run()


def _listed_methods(text: str) -> list[str]:
    return re.split(r",(?: or)? ", " ".join(text.split()))


def test_help_and_unknown_method_list_every_method(capsys):
    expected = ["auto", *(route.name for route in scott_engine.ROUTES), "closed:<id>"]
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    help_text = capsys.readouterr().out.split("--method METHOD")[-1]
    assert _listed_methods(help_text) == expected
    detail = error_json(capsys, 1, "eval", "x-1", "y+2", "--method", "magic")["detail"]
    assert detail.startswith("unknown method 'magic'; use ")
    assert _listed_methods(detail.split("; use ")[1]) == expected


class TestModuleEntryPoint:
    def test_repeated_calls_in_one_process_match_fresh_processes(self, capsys):
        # main reuses one parser; no subcommand or option may leak into the next call.
        for argv in (
            ("eval", "x^3-1", "y^4+1", "--method", "theorem1"),
            ("verify", "x^3-1", "y^4+1"),
            ("eval", "x^3-1", "y^4+1"),
            ("verify", "x^2+x+1", "y^3+2", "--tolerance", "1e-9"),
            ("eval", "x^2+x+1", "y^3+2"),
        ):
            code, out, err = run_cli(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "scottperm", *argv], capture_output=True, text=True
            )
            assert (code, err) == (fresh.returncode, fresh.stderr)
            assert _without_timings(json.loads(out)) == _without_timings(json.loads(fresh.stdout))
        assert json.loads(out)["method"] == "fes_tilde"

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scottperm", "eval", "x^3-1", "y^3+1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["value"] == {"num": "-3", "den": "8"}

    def test_an_exponent_above_the_budget_exits_at_once(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "scottperm", "eval", "x^20000000", "y+1"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert time.perf_counter() - start < 5  # an interpreter start, not a degree-20000000 eval
        assert (proc.returncode, proc.stdout) == (5, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ResourceLimit"

    def test_numpy_is_imported_only_by_a_float_route(self):
        # Nor are the catalog, the gallery and the float oracles, which load on first use.
        script = (
            "import contextlib, io, json, sys\n"
            "import scottperm.cli as cli\n"
            "lazy = ['scottperm.closed_catalog', 'scottperm.det_gallery',"
            " 'scottperm.numeric_oracle', 'numpy']\n"
            "def loaded():\n"
            "    return [name for name in lazy if name in sys.modules]\n"
            "assert loaded() == [], ('import', loaded())\n"
            "for P, Q, method in (('x^3 - 2*x + 5', 'y^4 + y - 3', 'theorem1'),\n"
            "                     ('x^5 - 1', 'y^7 + 2*y^2 + 5', 'fes'),\n"
            "                     ('x^4 + x^3 + x^2 + x + 1', 'y^6 - 2*y + 7', 'fes_tilde')):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert cli.main(['eval', '--', P, Q]) == 0\n"
            "    assert json.loads(out.getvalue())['method'] == method\n"
            "    assert loaded() == [], (method, loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['eval', '--method', 'closed:cor19', 'x^3-1', 'y^6+y^3+1']) == 0\n"
            "assert loaded() == [lazy[0]], ('closed:cor19', loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['catalog']) == 0\n"
            "assert loaded() == [lazy[0]], ('catalog', loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', 'x^3-1', 'y^4+2']) == 0\n"
            "assert loaded() == [lazy[0], lazy[2], lazy[3]], ('verify', loaded())\n"
            "import scottperm\n"
            "scottperm.GALLERY_IDS\n"
            "assert loaded() == lazy, ('gallery', loaded())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def constant_warning(text: str) -> dict:
    return {"warning": "DegreeZeroWarning", "detail": f"constant polynomial parsed from {text!r}"}


class TestWarningLines:
    @pytest.mark.parametrize(
        "argv,code,lines",
        [
            (("verify", "--", "x - 1", "3"), 0, [constant_warning("3")]),
            (("eval", "x^2 - 1", "7"), 0, [constant_warning("7")]),
            (
                ("eval", "5", "3"),
                1,
                [
                    constant_warning("5"),
                    constant_warning("3"),
                    {"error": "ZeroDegree", "detail": "the row polynomial must have degree >= 1"},
                ],
            ),
        ],
    )
    def test_every_stderr_line_is_json_with_warnings_first(self, capsys, argv, code, lines):
        got, _, err = run_cli(capsys, *argv)
        assert got == code
        assert [json.loads(line) for line in err.splitlines()] == lines

    def test_a_callers_filter_still_decides_what_shows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cli.DegreeZeroWarning)
            code, out, err = run_cli(capsys, "verify", "--", "x - 1", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["all_agree"]

    def test_the_interpreter_writes_the_same_json_lines(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scottperm", "verify", "--", "x - 1", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [constant_warning("3")]


class TestTextFormat:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "x^3-1", "y^4+2"),
            ("verify", "x^3-1", "y^4+2"),
            ("catalog",),
            ("catalog", "--id", "cor11"),
            ("bench", "2..3", "4", "--json"),
        ],
    )
    def test_stdout_is_one_document_indented_by_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_an_error_is_one_compact_line_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "eval", "x^^2", "y^3+1")
        assert (code, out) == (3, "")
        assert err == json.dumps(json.loads(err)) + "\n"
        assert err.count("\n") == 1


def decimal(n: int) -> str:
    """str(n) at any size: the digit limit of str() is lifted for this call only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def value_payload(value) -> dict | None:
    """A value field as a dict: null, a Fraction's num and den in decimal, or re and im."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return {"num": decimal(value.numerator), "den": decimal(value.denominator)}
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def verify_payload(report: scott_engine.VerifyReport) -> dict:
    """The verify document as a dict, field by field from the report: the reference
    that json.dumps(..., indent=2) prints and the rendered document must equal."""
    return {
        "n": report.n,
        "m": report.m,
        "tolerance": report.tolerance,
        "all_agree": report.all_agree,
        "routes": [
            {
                "method": route.method,
                "value": value_payload(route.value),
                "error": route.error,
                "elapsed_ms": round(route.elapsed_ms, 3),
                "notes": list(route.notes),
            }
            for route in report.routes
        ],
        "agreements": [
            {"a": a, "b": b, "gap": gap, "agree": ok} for a, b, gap, ok in report.agreements
        ],
    }


class TestVerifyDocument:
    @staticmethod
    def recording(monkeypatch) -> list:
        """The reports that scott_engine.verify returns from here on, in order."""
        reports, original = [], scott_engine.verify

        def recorded(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(scott_engine, "verify", recorded)
        return reports

    def test_every_catalog_pair_prints_the_document_of_its_report(self, capsys, monkeypatch):
        reports = self.recording(monkeypatch)
        for entry in catalog_entries():
            for point in entry.grid:
                P, Q = catalog_family(entry.id, **point)
                code, out, err = run_cli(capsys, "verify", "--", render_poly(P, "x"), render_poly(Q, "y"))
                assert code == 0, err
                assert out == json.dumps(verify_payload(reports[-1]), indent=2) + "\n", (entry.id, point)
        assert len(reports) == 862

    def test_a_random_pair_prints_the_document_of_its_report(self, capsys, monkeypatch):
        reports = self.recording(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "x^7 - 3x^2 + x - 2", "y^7 + 2y^5 - y + 4")
        assert code == 0, err
        (report,) = reports
        assert [route.error for route in report.routes] == [None, None, None]
        assert out == json.dumps(verify_payload(report), indent=2) + "\n"

    # theorem1's numerator has 5001 digits, more than str() gives by default (4300).
    ROUTES = (
        scott_engine.RouteOutcome("theorem1", Fraction(-(10**5000) - 1, 3), 12.34567),
        scott_engine.RouteOutcome(
            "oracle", None, 0.0, None, ("skipped: m*n*2^n exceeds oracle_cost_limit",)
        ),
        scott_engine.RouteOutcome(
            "involution", None, 0.0004, 'DidNotConverge: "z" at C:\\tmp\\ is naïve ∑ \U0001f600 \x00\t/'
        ),
        scott_engine.RouteOutcome("fes", complex(-0.0, 5e-324), 1e-05),
        scott_engine.RouteOutcome("closed_form", Fraction(7), 3.0, None, ("matched thm10", "é \"two\"")),
    )

    @pytest.mark.parametrize(
        "report",
        [
            scott_engine.VerifyReport(3, 5, 1e-06, ROUTES, ()),
            scott_engine.VerifyReport(
                3, 5, 0.5, ROUTES,
                (("theorem1", "fes", 1.0, False), ("theorem1", "closed_form", 2.5e-17, True)),
            ),
            scott_engine.VerifyReport(1, 1, 1e-06, ROUTES[1:2], ()),
            scott_engine.VerifyReport(0, 0, 1e-06, (), ()),
        ],
        ids=["no agreements", "agreements", "skipped only", "no routes"],
    )
    def test_hand_built_reports(self, report):
        assert cli._verify_document(report) == json.dumps(verify_payload(report), indent=2)

    def test_verify_report_with_an_error_route_and_a_skipped_route(self):
        text = _cmd_verify(argparse.Namespace(P="x^18 - 6x^9 + 9", Q="y^18 + 2", tolerance=1e-6))
        payload = json.loads(text)
        routes = {route["method"]: route for route in payload["routes"]}
        assert routes["involution"]["error"].startswith("RepeatedXRoot")
        assert routes["oracle"]["notes"][0].startswith("skipped")
        assert json.dumps(payload, indent=2) == text


def eval_payload(result, elapsed_ms: float) -> dict:
    """The eval document as a dict, field by field from the result: the reference
    that json.dumps(..., indent=2) prints and the rendered document must equal."""
    return {
        "n": result.n,
        "m": result.m,
        "method": result.method,
        "value": value_payload(result.value),
        "elapsed_ms": round(elapsed_ms, 3),
        "notes": list(result.notes),
    }


def perfbench_workloads():
    """perfbench/workloads.py, which generates the benchmark's operations from a seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestEvalDocument:
    @staticmethod
    def recording(monkeypatch, returned=None) -> tuple[list, list]:
        """The results that scott_engine.evaluate returns from here on (the hand-built
        `returned` in place of evaluating, if given), and the clock readings of eval."""
        results, ticks, original = [], [], scott_engine.evaluate

        def recorded(*args):
            results.append(original(*args) if returned is None else returned)
            return results[-1]

        def clock():
            ticks.append(time.perf_counter())
            return ticks[-1]

        monkeypatch.setattr(scott_engine, "evaluate", recorded)
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=clock))
        return results, ticks

    @staticmethod
    def expected(results: list, ticks: list) -> str:
        elapsed_ms = (ticks[-1] - ticks[-2]) * 1000
        return json.dumps(eval_payload(results[-1], elapsed_ms), indent=2) + "\n"

    @pytest.mark.parametrize("workload", ["theorem1_grid", "banded_fes"])
    def test_every_benchmark_eval_prints_the_document_of_its_result(self, capsys, monkeypatch, workload):
        workloads = perfbench_workloads()
        operations = {tuple(case.argv) for seed in (1, 2) for case in workloads.generate(workload, seed)}
        results, ticks = self.recording(monkeypatch)
        for argv in sorted(operations):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == self.expected(results, ticks), argv
        assert len(results) == len(operations) > 100

    # 5001 digits, longer than the default limit of str() of an int (4300 digits).
    HUGE = Fraction(-(10**5000) - 1, 3)

    @pytest.mark.parametrize(
        "result",
        [
            EvalResult(complex(1.5, -2.25), "oracle", 3, 4),
            EvalResult(complex(float("nan"), float("-inf")), "involution", 2, 2),
            EvalResult(float("inf"), "oracle", 1, 1),
            EvalResult(complex(-0.0, 5e-324), "oracle", 1, 2),
            EvalResult(HUGE, "theorem1", 12, 12),
            EvalResult(Fraction(0), "theorem1", 3, 2, ("n > m: permanent vanishes",)),
            EvalResult(
                Fraction(7, 2), "closed:cor19", 2, 4,
                ('matched "cor19" at C:\\tmp\\', "naïve ∑ \U0001f600 \x00\t/", ""),
            ),
            EvalResult(Fraction(-1), "naïve \"route\"", 0, 0),
        ],
        ids=["complex", "non-finite complex", "non-finite float", "signed zero", "long numerator",
             "a note", "escaped notes", "escaped method"],
    )
    def test_hand_built_results(self, capsys, monkeypatch, result):
        results, ticks = self.recording(monkeypatch, result)
        code, out, err = run_cli(capsys, "eval", "x - 1", "y - 2")
        assert (code, err) == (0, "")
        assert out == self.expected(results, ticks)


class TestOtherDocuments:
    """catalog and bench --json print json.dumps(payload, indent=2): the bytes of the
    JSON writer that it replaced, which these literals hold."""

    def test_one_catalog_entry(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "--id", "cor19")
        assert (code, err) == (0, "")
        assert out == (
            '[\n  {\n    "id": "cor19",\n    "params": [\n      "n",\n      "a"\n    ],\n'
            '    "statement": "PER(x^n-1, y^(2n) + a y^n + 1) = (-1)^(n+1) n! for a != -2",\n'
            '    "domain": "a != -2",\n    "grid_points": 25\n  }\n]\n'
        )

    def test_the_whole_catalog(self, capsys):
        code, out, err = run_cli(capsys, "catalog")
        assert (code, err) == (0, "")
        assert len(out) == 7580
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "95b4017d9787ebf31c04c4ef1702176aadde7f15214fbc20740333ec0412c304"
        )

    def test_bench_json_rows(self, capsys, monkeypatch):
        rows = [
            {"n": 2, "m": 3, "oracle_ms": 0.012, "theorem1_ms": 0.034, "agree": True},
            {"n": 12, "m": 3, "oracle_ms": None, "theorem1_ms": 1.5, "agree": None},
        ]
        monkeypatch.setattr(cli, "bench_rows", lambda *args: rows)
        code, out, err = run_cli(capsys, "bench", "2", "3", "--json")
        assert (code, err) == (0, "")
        assert out == (
            '[\n  {\n    "n": 2,\n    "m": 3,\n    "oracle_ms": 0.012,\n    "theorem1_ms": 0.034,\n'
            '    "agree": true\n  },\n  {\n    "n": 12,\n    "m": 3,\n    "oracle_ms": null,\n'
            '    "theorem1_ms": 1.5,\n    "agree": null\n  }\n]\n'
        )


class TestExactValuesOfAnySize:
    # The value's denominator (c + 1)^2 has 6000 digits, more than str() of an
    # int gives by default.
    Q = "y^2 - " + "7" * 3000

    @staticmethod
    def read_back(value):
        # Reading the digits back needs the limit raised, here only.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return Fraction(int(value["num"]), int(value["den"]))
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_value_prints_in_full(self, capsys, command):
        payload = eval_json(capsys, command, "x^2 + 1", self.Q)
        value = payload["value"] if command == "eval" else payload["routes"][0]["value"]
        c = int("7" * 3000)
        assert len(value["den"]) == 6000
        # With rows +-i and columns +-s, s^2 = c, the permanent is
        # -1/(i - s)^2 - 1/(i + s)^2 = -2(c - 1)/(c + 1)^2.
        assert self.read_back(value) == Fraction(-2 * (c - 1), (c + 1) ** 2)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize("value", [Fraction(-(10**9000) + 7, 10**4400 + 1), Fraction(10**4300)])
    def test_json_value_splits_large_ints(self, value):
        assert self.read_back(json.loads(cli._json_value(value, "\n"))) == value

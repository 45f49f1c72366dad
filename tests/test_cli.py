"""Polynomial text handling and the four CLI subcommands."""
from __future__ import annotations

import argparse
import io
import json
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scottperm import ParseError, Polynomial, cli
from scottperm.cli import (
    DegreeZeroWarning,
    PolyExpr,
    _cmd_verify,
    _write_json,
    main,
    parse_poly,
    _value_json,
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

    def test_numpy_is_imported_only_by_a_float_route(self):
        script = (
            "import sys\n"
            "import scottperm.cli as cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "assert cli.main(['eval', 'x^3-1', 'y^4+2']) == 0\n"
            "assert 'numpy' not in sys.modules, 'eval'\n"
            "assert cli.main(['verify', 'x^3-1', 'y^4+2']) == 0\n"
            "assert 'numpy' in sys.modules, 'verify'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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


class TestJsonWriter:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
            [[[]], [{}], 1],
            ("a", ("b",)),
            {"naïve ∑": "é \U0001f600   \"quoted\" back\\slash /", "ctrl": "\x00\x1f\t\n\r\x7f"},
            [-0.0, 0.0, 1e-06, 5e-324, 1e300, 0.1, 2.5, -1e16, float("nan"), float("inf"), float("-inf")],
            [True, False, None, 0, -7, 10**30],
            {"true": True, "none": None, "nested": [None, {"x": False}]},
        ],
    )
    def test_bytes_are_those_of_json_dumps_with_indent_2(self, payload):
        stream = io.StringIO()
        _write_json(stream, payload)
        assert stream.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_verify_report_with_an_error_route_and_a_skipped_route(self):
        payload = _cmd_verify(argparse.Namespace(P="x^18 - 6x^9 + 9", Q="y^18 + 2", tolerance=1e-6))
        routes = {route["method"]: route for route in payload["routes"]}
        assert routes["involution"]["error"].startswith("RepeatedXRoot")
        assert routes["oracle"]["notes"][0].startswith("skipped")
        stream = io.StringIO()
        _write_json(stream, payload)
        assert stream.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_unknown_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json(io.StringIO(), {"value": Fraction(1, 2)})


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
    def test_value_json_splits_large_ints(self, value):
        assert self.read_back(_value_json(value)) == value

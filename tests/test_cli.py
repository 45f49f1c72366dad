"""Polynomial text handling and the four CLI subcommands."""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scottperm import ParseError, Polynomial
from scottperm.cli import DegreeZeroWarning, main, parse_poly, render_poly

from test_closed_catalog import ALL_IDS


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

    def test_shared_root_exit_code(self, capsys):
        payload = error_json(capsys, 2, "eval", "x^2-1", "y^2-1")
        assert payload["error"] == "SharedRoot"

    def test_parse_error_exit_code(self, capsys):
        payload = error_json(capsys, 3, "eval", "x^^2", "y^3+1")
        assert payload["error"] == "ParseError"
        assert "position" in payload["detail"]

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

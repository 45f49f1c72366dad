"""Command-line surface: parse polynomials, evaluate, verify, browse, bench.

Commands:

* ``eval P Q [--method ...]``: one permanent, one JSON object on stdout.
* ``verify P Q``: run every applicable route and report the agreement matrix.
  Both dispatch through the one route table, ``scott_engine.ROUTES``.
* ``catalog [--id ...]``: list the closed-form catalog as JSON.
* ``bench N_RANGE M_RANGE``: CSV timing rows comparing the exponential
  oracle against the polynomial-time determinant route.

Exit codes: 0 success, 2 shared root, 3 parse error, 4 out of catalog domain, 1 anything
else, such as ZeroDegree for a constant P or a zero Q, or a usage error (BadParams).
Errors are JSON on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NoReturn, Sequence, TextIO

from . import closed_catalog, numeric_oracle, scott_engine
from .errors import BadParams, ParseError, ScottPermError
from .exact_core import Polynomial


class DegreeZeroWarning(UserWarning):
    """Emitted when a parsed polynomial is a constant (degree zero or zero)."""


@dataclass(frozen=True)
class PolyExpr:
    """A parsed polynomial together with its source text and variable name."""

    source: str
    parsed: Polynomial
    variable: str


# Polynomial text -----------------------------------------------------------

# One term of a sum, or one entry of a list, in the groups 1 sign, 2 numerator,
# 3 '/', 4 denominator, 5 '*', 6 name, 7 '^', 8 exponent; a group not there is
# "".  So a token out of place still lands in its own group, for _reject.  \s
# is str.isspace and \d what int() takes; [^\W\d_] is str.isalpha and digits
# such as '²', which _fail reports as unexpected characters.
_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(/?)\s*(\d*)\s*(\*?)\s*([^\W\d_]*)\s*(\^?)\s*(\d*)\s*")
_PUNCT = "+-*/^[],"
_ZERO = Fraction(0)  # the gaps of a sparse sum share one Fraction
# The grammars that _read_sum and _read_list check term by term, for _reject:
# the groups that may follow each group (0: the start of a term), what a term
# needs where it cannot end, and what may follow a whole term.
_SUM = (
    {0: (2, 6), 2: (3, 5, 6), 3: (4,), 4: (5, 6), 5: (6,), 6: (7,), 7: (8,), 8: ()},
    {0: "a coefficient or variable", 3: "a denominator", 5: "a variable name",
     7: "a positive integer exponent"},
    "'+', '-', or end of input",
)
_LIST = ({0: (2,), 2: (3,), 3: (4,), 4: ()}, {0: "an integer", 3: "a denominator"}, "',' or ']'")


def _fail(text: str, message: str, position: int) -> NoReturn:
    """Raise ParseError(message, position); but a character that can start no
    token comes first, wherever it stands."""
    for i, ch in enumerate(text):
        if not (ch.isspace() or ch.isdecimal() or ch.isalpha() or ch in _PUNCT):
            raise ParseError(f"unexpected character {ch!r}", i)
    raise ParseError(message, position)


def _found(text: str, position: int) -> str:
    """The token at position, as an error message names it."""
    token = re.match(r"(?s)\d+|[^\W\d_]+|.|$", text[position:]).group()
    return repr(token) if token else "end of input"


def _int(text: str, m: re.Match, group: int) -> int:
    try:
        return int(m.group(group))
    except ValueError:  # past sys.get_int_max_str_digits()
        _fail(text, f"integer of {len(m.group(group))} digits is too long", m.start(group))


def _term(text: str, m: re.Match, groups: tuple, variable: str | None) -> tuple:
    """Exponent, coefficient and variable of a term, from those of its groups
    that are in place; a bad value among them is a ParseError."""
    sign, num, _, den, _, name, _, exp = groups
    coeff = _int(text, m, 2) if num else 1
    if den:
        den_value = _int(text, m, 4)
        if den_value == 0:
            _fail(text, "denominator must be nonzero", m.start(4))
        coeff = Fraction(coeff, den_value)
    if sign == "-":
        coeff = -coeff
    if not name:
        return 0, coeff, variable
    # A name that is not alphabetic holds a character that _fail reports first.
    if name != variable and (variable is not None or not name.isalpha()):
        _fail(text, f"expected variable {variable!r}, found {name!r}", m.start(6))
    exponent = _int(text, m, 8) if exp else 1
    if exponent < 1:
        _fail(text, "exponent must be a positive integer", m.start(8))
    return exponent, coeff, name


def _reject(text: str, m: re.Match, grammar: tuple, variable: str | None) -> NoReturn:
    """Raise the error of a term not in place: at the first token that the
    grammar does not take, unless a value before it is bad."""
    follows, needs, after = grammar
    last, position = 0, m.end()
    for group in range(2, 9):
        if m.group(group):
            if group not in follows[last]:
                position = m.start(group)
                break
            last = group
    in_place = tuple(g if m.start(i) < position else "" for i, g in enumerate(m.groups(), 1))
    _term(text, m, in_place, variable)
    _fail(text, f"expected {needs.get(last, after)}, found {_found(text, position)}", position)


def _read_sum(text: str) -> tuple[Polynomial, str]:
    table: dict[int, int | Fraction] = {}
    variable, pos, end = None, 0, len(text)
    while True:
        m = _TERM.match(text, pos)
        groups = sign, num, slash, den, star, name, caret, exp = m.groups()
        pos = m.end()
        if not ((num or name) and (not (slash or den) or num and slash and den)
                and (not star or num and name) and (not (caret or exp) or name and caret and exp)
                and (pos == end or text[pos] in "+-")):
            _reject(text, m, _SUM, variable)
        exponent, coeff, variable = _term(text, m, groups, variable)
        table[exponent] = table.get(exponent, 0) + coeff
        if pos == end:
            break
    return Polynomial([table.get(k, _ZERO) for k in range(max(table) + 1)]), variable or "x"


def _read_list(text: str, pos: int) -> Polynomial:
    """The list whose '[' ends at pos; nothing but space may follow its ']'."""
    coeffs: list[int | Fraction] = []
    m = _TERM.match(text, pos)
    pos = m.end()
    while coeffs or m.group().strip() or not text.startswith("]", pos):  # "[ ]" is empty
        groups = _, num, slash, den, *rest = m.groups()
        if not (num and bool(slash) == bool(den) and not any(rest)
                and text.startswith((",", "]"), pos)):
            _reject(text, m, _LIST, None)
        coeffs.append(_term(text, m, groups, None)[1])
        if text[pos] == "]":
            break
        m = _TERM.match(text, pos + 1)
        pos = m.end()
    tail = text[pos + 1:].lstrip()
    if tail:
        pos = len(text) - len(tail)
        _fail(text, f"expected end of input, found {_found(text, pos)}", pos)
    return Polynomial(coeffs)


def parse_poly(text: str) -> PolyExpr:
    """Parse a sum of monomials, or a bracketed low-to-high coefficient list.

    One match of _TERM reads each term or entry; spaces may stand between tokens.
    * sum: an optional sign, then terms joined by '+' or '-';
    * term: a coefficient, a power, or a coefficient, an optional '*' and a power;
    * coefficient: digits, or digits '/' nonzero digits;
    * power: a name (a run of letters, the same in every term), then
      optionally '^' and a positive integer exponent;
    * list: '[', coefficients with optional signs separated by ',', then ']'.
    Repeated exponents add.  A ParseError points at the first token out of place,
    or before that at any character that starts no token.  A constant result
    gives a DegreeZeroWarning, not an error.
    """
    start = len(text) - len(text.lstrip())
    if text.startswith("[", start):
        parsed, variable = _read_list(text, start + 1), "x"
    else:
        parsed, variable = _read_sum(text)
    if not parsed.degree:  # zero, or None for the zero polynomial
        warnings.warn(f"constant polynomial parsed from {text!r}", DegreeZeroWarning, stacklevel=2)
    return PolyExpr(source=text, parsed=parsed, variable=variable)


def render_poly(p: Polynomial, variable: str = "x") -> str:
    """Canonical text form; parse_poly(render_poly(p)).parsed == p."""
    rendered = ""
    for k in range(len(p.coeffs) - 1, -1, -1):
        c, power = p.coeffs[k], variable if k == 1 else f"{variable}^{k}"
        if c:
            body = str(abs(c)) if k == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            rendered += (" - " if c < 0 else " + ") + body
    return ("-" if rendered[1] == "-" else "") + rendered[3:] if rendered else "0"


# Evaluation plumbing -------------------------------------------------------


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(stream: TextIO, payload: Any) -> None:
    """Write payload and a newline in one write, byte for byte as json.dumps(payload,
    indent=2) would, which encodes piece by piece in pure Python.  Here a dict or
    list is one join, and a str goes through json's C string encoder."""
    stream.write(_json(payload, "\n") + "\n")


def _json(value: Any, newline: str) -> str:
    """value as JSON, its inner lines indented two spaces past newline; keys are str."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


def _decimal(n: int) -> str:
    """n in base 10 at any size: str() refuses more digits than the process-wide
    sys.get_int_max_str_digits(), so a larger n is split with divmod."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def _value_json(value: Any) -> dict[str, Any] | None:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return {"num": _decimal(value.numerator), "den": _decimal(value.denominator)}
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def _cmd_eval(args: argparse.Namespace) -> Any:
    P = parse_poly(args.P).parsed
    Q = parse_poly(args.Q).parsed
    start = time.perf_counter()
    result = scott_engine.evaluate(P, Q, args.method)
    elapsed_ms = (time.perf_counter() - start) * 1000
    return {
        "n": result.n,
        "m": result.m,
        "method": result.method,
        "value": _value_json(result.value),
        "elapsed_ms": round(elapsed_ms, 3),
        "notes": list(result.notes),
    }


def _cmd_verify(args: argparse.Namespace) -> Any:
    P = parse_poly(args.P).parsed
    Q = parse_poly(args.Q).parsed
    report = scott_engine.verify(P, Q, tolerance=args.tolerance)
    return {
        "n": report.n,
        "m": report.m,
        "tolerance": report.tolerance,
        "all_agree": report.all_agree,
        "routes": [
            {
                "method": route.method,
                "value": _value_json(route.value),
                "error": route.error,
                "elapsed_ms": round(route.elapsed_ms, 3),
                "notes": list(route.notes),
            }
            for route in report.routes
        ],
        "agreements": [
            {"a": a, "b": b, "gap": gap, "agree": ok}
            for a, b, gap, ok in report.agreements
        ],
    }


def _cmd_catalog(args: argparse.Namespace) -> Any:
    entries = closed_catalog.catalog_entries()
    if args.id is not None:
        entries = tuple(e for e in entries if e.id == args.id)
        if not entries:
            raise BadParams(f"unknown catalog entry {args.id!r}")
    return [
        {
            "id": entry.id,
            "params": list(entry.param_names),
            "statement": entry.statement,
            "domain": entry.domain_desc,
            "grid_points": len(entry.grid),
        }
        for entry in entries
    ]


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise BadParams(f"bad range {text!r}: want an integer or lo..hi") from None
    if hi < lo:
        raise BadParams(f"bad range {text!r}: upper end below lower end")
    return list(range(lo, hi + 1))


def _timed_best(*fns: Callable[[], Any]) -> list[tuple[Any, float]]:
    """Run the fns in turn; return each one's value and its best time in ms.

    Each round runs every fn once, so a slow spell of the machine falls on
    all of them alike and the ratio of their times holds.  A fn slower than
    100 ms is not run again, so the exponential oracle leg is paid once; the
    others run at least 3 rounds and until 20 ms are spent, so one slow spell
    cannot set a fast leg's best time.
    """
    values, best = [None] * len(fns), [float("inf")] * len(fns)
    live, spent, rounds = list(range(len(fns))), 0.0, 0
    while live and (rounds < 3 or spent < 20):
        for i in list(live):
            start = time.perf_counter()
            values[i] = fns[i]()
            elapsed = (time.perf_counter() - start) * 1000
            best[i], spent = min(best[i], elapsed), spent + elapsed
            if elapsed > 100:
                live.remove(i)
        rounds += 1
    return list(zip(values, best))


def bench_rows(
    n_values: Sequence[int], m_values: Sequence[int], seed: int, max_n: int
) -> list[dict[str, Any]]:
    """Timing rows for seeded random coprime instances, one per (n, m).

    Where n <= max_n, the oracle and theorem1 legs of a row are timed together.
    """
    if len(n_values) == 1 and len(m_values) > 1:
        n_values = list(n_values) * len(m_values)
    if len(m_values) == 1 and len(n_values) > 1:
        m_values = list(m_values) * len(n_values)
    if len(n_values) != len(m_values):
        raise BadParams("n and m ranges must have equal lengths")
    rng = random.Random(seed)
    rows: list[dict[str, Any]] = []
    for n, m in zip(n_values, m_values):
        P, Q = numeric_oracle.random_coprime_pair(rng, n, m)
        legs = [lambda: scott_engine.scott_permanent(P, Q)]
        if n <= max_n:
            X = numeric_oracle.find_roots(P)
            Y = numeric_oracle.find_roots(Q)
            legs.append(lambda: numeric_oracle.brute_permanent(X, Y))
        (exact, theorem1_ms), *oracle = _timed_best(*legs)
        row: dict[str, Any] = {
            "n": n,
            "m": m,
            "oracle_ms": None,
            "theorem1_ms": round(theorem1_ms, 3),
            "agree": None,
        }
        if oracle:
            value, oracle_ms = oracle[0]
            row["oracle_ms"] = round(oracle_ms, 3)
            row["agree"] = scott_engine.relative_gap(exact.value, value) <= 1e-6
        rows.append(row)
    return rows


def _cmd_bench(args: argparse.Namespace) -> Any:
    rows = bench_rows(_parse_range(args.n_range), _parse_range(args.m_range), args.seed, args.max_n)
    if args.json:
        return rows
    sys.stdout.write("n,m,oracle_ms,theorem1_ms,agree\n")
    for row in rows:
        oracle = "" if row["oracle_ms"] is None else f"{row['oracle_ms']}"
        agree = "" if row["agree"] is None else str(row["agree"]).lower()
        sys.stdout.write(f"{row['n']},{row['m']},{oracle},{row['theorem1_ms']},{agree}\n")
    return None


# Entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are BadParams, printed as JSON like every error."""

    def error(self, message: str) -> NoReturn:
        raise BadParams(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    parser = _Parser(
        prog="scottperm",
        description="Exact permanents of reciprocal-difference matrices over polynomial root sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one permanent")
    p_eval.add_argument("P", help="row polynomial, e.g. \"x^3-1\" or \"[ -1,0,0,1 ]\"")
    p_eval.add_argument("Q", help="column polynomial")
    p_eval.add_argument(
        "--method",
        default="auto",
        help="auto, theorem1, fes, oracle, involution, closed_form, or closed:<id>",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="cross-check every applicable route")
    p_verify.add_argument("P")
    p_verify.add_argument("Q")
    p_verify.add_argument("--tolerance", type=float, default=1e-6)
    p_verify.set_defaults(func=_cmd_verify)

    p_catalog = sub.add_parser("catalog", help="list the closed-form catalog")
    p_catalog.add_argument("--id", default=None, help="show a single entry")
    p_catalog.set_defaults(func=_cmd_catalog)

    p_bench = sub.add_parser("bench", help="time oracle vs determinant route")
    p_bench.add_argument("n_range", help="e.g. 2..8 or 5")
    p_bench.add_argument("m_range", help="e.g. 2..8 or 5")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--max-n", type=int, default=10, help="largest n for the oracle leg")
    p_bench.add_argument("--json", action="store_true", help="JSON rows instead of CSV")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload = args.func(args)
    except ScottPermError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return exc.exit_code
    if payload is not None:
        _write_json(sys.stdout, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

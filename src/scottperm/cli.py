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
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
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


# Tokenizer / parser --------------------------------------------------------

_PUNCT = set("+-*/^[],")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self, kind: str | None = None, expected: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if kind is not None and tok[0] != kind:
            found = repr(tok[1]) if tok[1] else "end of input"
            raise ParseError(f"expected {expected or kind}, found {found}", tok[2])
        self.index += 1
        return tok


def _int(tok: tuple[str, str, int]) -> int:
    """The value of an integer token; one too long for int() is a ParseError."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None


def _parse_rational_body(stream: _TokenStream) -> Fraction:
    num = _int(stream.take("int", "an integer"))
    if stream.peek()[0] != "/":
        return Fraction(num)
    stream.take()
    den_tok = stream.take("int", "a denominator")
    den = _int(den_tok)
    if den == 0:
        raise ParseError("denominator must be nonzero", den_tok[2])
    return Fraction(num, den)


def _parse_bracket(stream: _TokenStream) -> Polynomial:
    stream.take("[")
    coeffs: list[Fraction] = []
    if stream.peek()[0] != "]":
        while True:
            sign = 1
            tok = stream.peek()
            if tok[0] in ("+", "-"):
                stream.take()
                sign = -1 if tok[0] == "-" else 1
            coeffs.append(sign * _parse_rational_body(stream))
            if stream.peek()[0] != ",":
                break
            stream.take()
    stream.take("]", "',' or ']'")
    return Polynomial(coeffs)


def _parse_var(stream: _TokenStream, variable: str | None) -> tuple[int, str]:
    name_tok = stream.take("name", "a variable name")
    if variable is not None and name_tok[1] != variable:
        raise ParseError(f"expected variable {variable!r}, found {name_tok[1]!r}", name_tok[2])
    exponent = 1
    if stream.peek()[0] == "^":
        stream.take()
        exp_tok = stream.take("int", "a positive integer exponent")
        exponent = _int(exp_tok)
        if exponent < 1:
            raise ParseError("exponent must be a positive integer", exp_tok[2])
    return exponent, name_tok[1]


def _parse_term(
    stream: _TokenStream, variable: str | None
) -> tuple[int, Fraction, str | None]:
    tok = stream.peek()
    if tok[0] == "int":
        coeff = _parse_rational_body(stream)
        nxt = stream.peek()
        if nxt[0] == "*":
            stream.take()
            exponent, variable = _parse_var(stream, variable)
            return exponent, coeff, variable
        if nxt[0] == "name":
            exponent, variable = _parse_var(stream, variable)
            return exponent, coeff, variable
        return 0, coeff, variable
    if tok[0] == "name":
        exponent, variable = _parse_var(stream, variable)
        return exponent, Fraction(1), variable
    found = repr(tok[1]) if tok[1] else "end of input"
    raise ParseError(f"expected a coefficient or variable, found {found}", tok[2])


def _parse_sum(stream: _TokenStream) -> tuple[Polynomial, str | None]:
    pairs: list[tuple[int, Fraction]] = []
    variable: str | None = None
    tok = stream.peek()
    sign = 1
    if tok[0] in ("+", "-"):
        stream.take()
        sign = -1 if tok[0] == "-" else 1
    while True:
        exponent, coeff, variable = _parse_term(stream, variable)
        pairs.append((exponent, sign * coeff))
        tok = stream.peek()
        if tok[0] == "end":
            break
        if tok[0] not in ("+", "-"):
            raise ParseError(f"expected '+', '-', or end of input, found {tok[1]!r}", tok[2])
        stream.take()
        sign = -1 if tok[0] == "-" else 1
    return Polynomial.from_pairs(pairs), variable


def parse_poly(text: str) -> PolyExpr:
    """Parse a sum of monomials, or a bracketed low-to-high coefficient list.

    Monomials: optional sign, integer or p/q coefficient, optional '*', a
    variable name, optional '^' with a positive integer exponent.  A constant
    result is reported through the DegreeZeroWarning channel, not an error.
    """
    stream = _TokenStream(text)
    if stream.peek()[0] == "[":
        parsed = _parse_bracket(stream)
        variable: str | None = None
    else:
        parsed, variable = _parse_sum(stream)
    tail = stream.peek()
    if tail[0] != "end":
        raise ParseError(f"expected end of input, found {tail[1]!r}", tail[2])
    if parsed.degree is None or parsed.degree == 0:
        warnings.warn(
            f"constant polynomial parsed from {text!r}", DegreeZeroWarning, stacklevel=2
        )
    return PolyExpr(source=text, parsed=parsed, variable=variable or "x")


def render_poly(p: Polynomial, variable: str = "x") -> str:
    """Canonical text form; parse_poly(render_poly(p)).parsed == p."""
    if p.is_zero:
        return "0"
    parts: list[tuple[str, str]] = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        magnitude = abs(c)
        if k == 0:
            body = str(magnitude)
        else:
            var = variable if k == 1 else f"{variable}^{k}"
            body = var if magnitude == 1 else f"{magnitude}*{var}"
        parts.append((sign, body))
    head_sign, head_body = parts[0]
    rendered = ("-" if head_sign == "-" else "") + head_body
    for sign, body in parts[1:]:
        rendered += f" {sign} {body}"
    return rendered


# Evaluation plumbing -------------------------------------------------------


def _write_json(stream: TextIO, payload: Any, indent: int | None = 2) -> None:
    """One JSON document and a newline, in a single write: json.dump with an
    indent encodes in pure Python and writes each small piece on its own."""
    stream.write(json.dumps(payload, indent=indent) + "\n")


def _value_json(value: Any) -> dict[str, Any] | None:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def _cmd_eval(args: argparse.Namespace) -> int:
    P = parse_poly(args.P).parsed
    Q = parse_poly(args.Q).parsed
    start = time.perf_counter()
    result = scott_engine.evaluate(P, Q, args.method)
    elapsed_ms = (time.perf_counter() - start) * 1000
    payload = {
        "n": result.n,
        "m": result.m,
        "method": result.method,
        "value": _value_json(result.value),
        "elapsed_ms": round(elapsed_ms, 3),
        "notes": list(result.notes),
    }
    _write_json(sys.stdout, payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    P = parse_poly(args.P).parsed
    Q = parse_poly(args.Q).parsed
    report = scott_engine.verify(P, Q, tolerance=args.tolerance)
    payload = {
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
    _write_json(sys.stdout, payload)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = closed_catalog.catalog_entries()
    if args.id is not None:
        entries = tuple(e for e in entries if e.id == args.id)
        if not entries:
            raise BadParams(f"unknown catalog entry {args.id!r}")
    payload = [
        {
            "id": entry.id,
            "params": list(entry.param_names),
            "statement": entry.statement,
            "domain": entry.domain_desc,
            "grid_points": len(entry.grid),
        }
        for entry in entries
    ]
    _write_json(sys.stdout, payload)
    return 0


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


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_rows(_parse_range(args.n_range), _parse_range(args.m_range), args.seed, args.max_n)
    if args.json:
        _write_json(sys.stdout, rows)
        return 0
    sys.stdout.write("n,m,oracle_ms,theorem1_ms,agree\n")
    for row in rows:
        oracle = "" if row["oracle_ms"] is None else f"{row['oracle_ms']}"
        agree = "" if row["agree"] is None else str(row["agree"]).lower()
        sys.stdout.write(f"{row['n']},{row['m']},{oracle},{row['theorem1_ms']},{agree}\n")
    return 0


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
        return args.func(args)
    except ScottPermError as exc:
        _write_json(sys.stderr, {"error": type(exc).__name__, "detail": str(exc)}, indent=None)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

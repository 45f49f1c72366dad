"""Command-line surface: parse polynomials, evaluate, verify, browse, bench.

Commands:

* ``eval P Q [--method ...]``: one permanent, one JSON object on stdout.
* ``verify P Q``: run every applicable route and report the agreement matrix.
  Both dispatch through the one route table, ``scott_engine.ROUTES``.
* ``catalog [--id ...]``: list the closed-form catalog as JSON.
* ``bench N_RANGE M_RANGE``: CSV timing rows comparing the exponential
  oracle against the polynomial-time determinant route.

Exit codes: 0 success, 2 shared root, 3 parse error, 4 out of catalog domain, 5 an
exponent or bench range end above the degree budget MAX_DEGREE (ResourceLimit), 1
anything else, such as ZeroDegree for a constant P or a zero Q, or a usage error
(BadParams).
Errors are JSON on stderr, and so is each warning shown, such as DegreeZeroWarning.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

# closed_catalog and numeric_oracle load on first use, in catalog and bench.
from . import scott_engine
from .errors import BadParams, ParseError, ResourceLimit
from .exact_core import MAX_DEGREE, Polynomial  # the parser checks each exponent against it


class DegreeZeroWarning(UserWarning):
    """Emitted when a parsed polynomial is a constant (degree zero or zero)."""


class PolyExpr(NamedTuple):
    """A parsed polynomial together with its source text and variable name, as an
    immutable record (a named tuple)."""

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


def _check_characters(text: str) -> None:
    """Raise ParseError at the first character that can start no token, if any."""
    for i, ch in enumerate(text):
        if not (ch.isspace() or ch.isdecimal() or ch.isalpha() or ch in _PUNCT):
            raise ParseError(f"unexpected character {ch!r}", i)


def _fail(text: str, message: str, position: int) -> NoReturn:
    """Raise ParseError(message, position); but a character that can start no
    token comes first, wherever it stands."""
    _check_characters(text)
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
    if exponent > MAX_DEGREE:
        _check_characters(text)  # such a character comes first, as for a ParseError
        raise ResourceLimit(
            f"exponent {exponent} is above the degree budget {MAX_DEGREE} (at position {m.start(8)})"
        )
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
    """Each term is read in place from its match.  A term out of place, or with a
    value that _term refuses (a digit run past int(), a zero denominator, a second
    name, an exponent outside 1..MAX_DEGREE), goes to _reject, which raises its error."""
    table: dict[int, int | Fraction] = {}
    variable, pos, end = None, 0, len(text)
    while True:
        m = _TERM.match(text, pos)
        sign, num, slash, den, star, name, caret, exp = m.groups()
        pos = m.end()
        try:
            if not ((num or name) and (not (slash or den) or num and slash and den)
                    and (not star or num and name) and (not (caret or exp) or name and caret and exp)
                    and (pos == end or text[pos] in "+-")):
                raise ValueError
            coeff = int(num) if num else 1
            if den:
                coeff = Fraction(coeff, int(den))  # ZeroDivisionError for a zero denominator
            exponent = 0
            if name:
                if name != variable and (variable is not None or not name.isalpha()):
                    raise ValueError
                exponent = int(exp) if exp else 1
                if not 0 < exponent <= MAX_DEGREE:
                    raise ValueError
        except (ValueError, ZeroDivisionError):
            _reject(text, m, _SUM, variable)
        variable = name or variable
        table[exponent] = table.get(exponent, 0) + (-coeff if sign == "-" else coeff)
        if pos == end:
            break
    return Polynomial([table.get(k, 0) for k in range(max(table) + 1)]), variable or "x"


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


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _decimal(n: int) -> str:
    """n in base 10 at any size: str() refuses more digits than the process-wide
    sys.get_int_max_str_digits(), so a larger n is split with divmod."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def _json_value(value: Any, newline: str) -> str:
    """A value as its document field holds it, its lines indented two spaces past
    newline: null, {"num", "den"} of a Fraction in decimal strings, or {"re", "im"}."""
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, Fraction):
        num, den = _decimal(value.numerator), _decimal(value.denominator)
        return f'{{{inner}"num": "{num}",{inner}"den": "{den}"{newline}}}'
    z = complex(value)
    return f'{{{inner}"re": {_json_float(z.real)},{inner}"im": {_json_float(z.imag)}{newline}}}'


def _json_list(items: list[str], newline: str) -> str:
    """A JSON list of encoded items, each on a line indented two spaces past newline."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"


def _json_notes(notes: Sequence[str], newline: str) -> str:
    return _json_list([encode_basestring_ascii(note) for note in notes], newline)


# The eval and verify documents' objects at their depths, as json.dumps(..., indent=2)
# lays them out; the documents are written straight from their records with the
# scalar encoders encode_basestring_ascii, int.__repr__, _json_float and _decimal.
_EVAL = ('{\n  "n": %s,\n  "m": %s,\n  "method": %s,\n  "value": %s,\n  "elapsed_ms": %s,\n'
         '  "notes": %s\n}')
_VERIFY = ('{\n  "n": %s,\n  "m": %s,\n  "tolerance": %s,\n  "all_agree": %s,\n'
           '  "routes": %s,\n  "agreements": %s\n}')
_ROUTE = ('{\n      "method": %s,\n      "value": %s,\n      "error": %s,\n'
          '      "elapsed_ms": %s,\n      "notes": %s\n    }')
_AGREEMENT = '{\n      "a": %s,\n      "b": %s,\n      "gap": %s,\n      "agree": %s\n    }'


def _cmd_eval(args: argparse.Namespace) -> str:
    """The eval document: byte for byte json.dumps(payload, indent=2) of the payload
    that holds the result's n, m, method, value, elapsed_ms (rounded to 3 places)
    and notes."""
    P = parse_poly(args.P).parsed
    Q = parse_poly(args.Q).parsed
    start = time.perf_counter()
    result = scott_engine.evaluate(P, Q, args.method)
    elapsed_ms = (time.perf_counter() - start) * 1000
    return _EVAL % (
        int.__repr__(result.n),
        int.__repr__(result.m),
        encode_basestring_ascii(result.method),
        _json_value(result.value, "\n  "),
        _json_float(round(elapsed_ms, 3)),
        _json_notes(result.notes, "\n  "),
    )


def _verify_document(report: scott_engine.VerifyReport) -> str:
    """The verify document: byte for byte json.dumps(payload, indent=2) of the
    payload that holds n, m, tolerance, all_agree, each route's method, value,
    error, elapsed_ms (rounded to 3 places) and notes, and each agreement's a, b,
    gap and agree."""
    routes = [
        _ROUTE % (
            encode_basestring_ascii(route.method),
            _json_value(route.value, "\n      "),
            "null" if route.error is None else encode_basestring_ascii(route.error),
            _json_float(round(route.elapsed_ms, 3)),
            _json_notes(route.notes, "\n      "),
        )
        for route in report.routes
    ]
    agreements = [
        _AGREEMENT % (encode_basestring_ascii(a), encode_basestring_ascii(b), _json_float(gap),
                      "true" if ok else "false")
        for a, b, gap, ok in report.agreements
    ]
    return _VERIFY % (
        int.__repr__(report.n),
        int.__repr__(report.m),
        _json_float(report.tolerance),
        "true" if report.all_agree else "false",
        _json_list(routes, "\n  "),
        _json_list(agreements, "\n  "),
    )


def _cmd_verify(args: argparse.Namespace) -> str:
    P = parse_poly(args.P).parsed
    Q = parse_poly(args.Q).parsed
    return _verify_document(scott_engine.verify(P, Q, tolerance=args.tolerance))


def _cmd_catalog(args: argparse.Namespace) -> str:
    from . import closed_catalog

    entries = closed_catalog.catalog_entries()
    if args.id is not None:
        entries = (closed_catalog.get_entry(args.id),)
    return json.dumps([
        {
            "id": entry.id,
            "params": list(entry.param_names),
            "statement": entry.statement,
            "domain": entry.domain_desc,
            "grid_points": len(entry.grid),
        }
        for entry in entries
    ], indent=2)


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
    if hi > MAX_DEGREE:
        raise ResourceLimit(f"range end {hi} is above the degree budget {MAX_DEGREE}")
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

    Where n <= max_n and the oracle route's work is within verify's
    ORACLE_COST_LIMIT, the oracle and theorem1 legs of a row are timed together,
    on a pair from random_coprime_pair's draws, whose close-root test finds P's
    roots once for the oracle leg too; any other row draws its pair without
    finding a root.
    """
    import random

    from . import numeric_oracle

    if len(n_values) == 1 and len(m_values) > 1:
        n_values = list(n_values) * len(m_values)
    if len(m_values) == 1 and len(n_values) > 1:
        m_values = list(m_values) * len(n_values)
    if len(n_values) != len(m_values):
        raise BadParams("n and m ranges must have equal lengths")
    rng = random.Random(seed)
    oracle_work = scott_engine._METHODS["oracle"].work
    rows: list[dict[str, Any]] = []
    for n, m in zip(n_values, m_values):
        timed = n <= max_n and oracle_work(n, m) <= scott_engine.ORACLE_COST_LIMIT
        if timed:
            P, Q, X = numeric_oracle._random_separated_pair(rng, n, m)
            Y = numeric_oracle.find_roots(Q)
        else:
            P, Q = numeric_oracle._random_monic_pair(rng, n, m)
        legs = [lambda: scott_engine.scott_permanent(P, Q)]
        if timed:
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


def _cmd_bench(args: argparse.Namespace) -> str:
    rows = bench_rows(_parse_range(args.n_range), _parse_range(args.m_range), args.seed, args.max_n)
    if args.json:
        return json.dumps(rows, indent=2)
    lines = ["n,m,oracle_ms,theorem1_ms,agree"]
    for row in rows:
        oracle = "" if row["oracle_ms"] is None else f"{row['oracle_ms']}"
        agree = "" if row["agree"] is None else str(row["agree"]).lower()
        lines.append(f"{row['n']},{row['m']},{oracle},{row['theorem1_ms']},{agree}")
    return "\n".join(lines)


# Entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are BadParams, printed as JSON like every error."""

    def error(self, message: str) -> NoReturn:
        raise BadParams(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each command's sub-parser by name, built on the
    first call and reused by later ones."""
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
        help=scott_engine._METHOD_NAMES,
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
    p_bench.add_argument("--max-n", type=int, default=10,
                         help="largest n for the oracle leg, which is also skipped"
                              " above verify's default oracle cost limit")
    p_bench.add_argument("--json", action="store_true", help="JSON rows instead of CSV")
    p_bench.set_defaults(func=_cmd_bench)

    return parser, {"eval": p_eval, "verify": p_verify, "catalog": p_catalog, "bench": p_bench}


def _report(key: str, kind: type, detail: object) -> None:
    """One JSON line on stderr: {key: the name of kind, "detail": detail as text}."""
    sys.stderr.write(json.dumps({key: kind.__name__, "detail": str(detail)}) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    output = failure = None
    # The caller's filters still pick the warnings; each one they let through
    # becomes one JSON line on stderr, as an error does.
    with warnings.catch_warnings(record=True) as shown:
        try:
            parser, commands = _build_parser()
            argv = sys.argv[1:] if argv is None else argv
            # A command's own parser reads the rest of argv, as parser would hand it
            # on; parser itself reads only an empty argv, help or an unknown command.
            command = commands.get(argv[0]) if argv else None
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
            output = args.func(args)
        except scott_engine.ROUTE_FAILURES as exc:
            failure = exc
    for warning in shown:
        _report("warning", warning.category, warning.message)
    if failure is not None:
        _report("error", type(failure), failure)
        return getattr(failure, "exit_code", 1)
    sys.stdout.write(output + "\n")  # each command's document, JSON or bench's CSV
    return 0


if __name__ == "__main__":
    sys.exit(main())

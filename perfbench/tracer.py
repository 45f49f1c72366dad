"""In-memory span tracer installed around the package's public functions.

`Tracer.install` replaces each listed function, in every ``scottperm``
module namespace that holds it, by a wrapper that records one span per call:
name, start, end, parent span and operation id.  Modules import each other's
functions by name (``from .exact_core import exact_det``), which is why the
wrapper goes into every namespace and not only the defining module.
`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of a tree add up to its root's duration.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable


def _max_bits(args: tuple, result: Any) -> int:
    """Largest bit length among exact_det's input entries and its result."""
    values = list(args[0].entries) + [Fraction(result)]
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def _route_counts(args: tuple, report: Any) -> dict[str, int]:
    return {
        "routes_skipped": sum(r.value is None and r.error is None for r in report.routes),
        "route_errors": sum(r.error is not None for r in report.routes),
    }


# (span name, module, attribute, summary of one call from (args, result)).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.parse_poly", "scottperm.cli", "parse_poly", None),
    ("scott_engine.scott_permanent", "scottperm.scott_engine", "scott_permanent", None),
    ("scott_engine.build_H", "scottperm.scott_engine", "build_H", None),
    ("scott_engine.build_E", "scottperm.scott_engine", "build_E", None),
    ("scott_engine.verify", "scottperm.scott_engine", "verify", _route_counts),
    ("exact_core.matmul", "scottperm.exact_core", "RationalMatrix.__matmul__", None),
    ("exact_core.poly_gcd", "scottperm.exact_core", "poly_gcd", None),
    ("exact_core.exact_det", "scottperm.exact_core", "exact_det", lambda a, r: {"max_bits": _max_bits(a, r)}),
    ("exact_core.resultant", "scottperm.exact_core", "resultant", None),
    ("exact_core.series_inverse", "scottperm.exact_core", "series_inverse", None),
    ("fes_engine.classify_row_polynomial", "scottperm.fes_engine", "classify_row_polynomial", None),
    ("fes_engine.per_via_fes", "scottperm.fes_engine", "per_via_fes", None),
    ("fes_engine.fes_matrix", "scottperm.fes_engine", "fes_matrix", None),
    ("fes_engine.fes_tilde_matrix", "scottperm.fes_engine", "fes_tilde_matrix", None),
    ("fes_engine.special_resultant", "scottperm.fes_engine", "special_resultant", None),
    ("closed_catalog.find_matching", "scottperm.closed_catalog", "find_matching", lambda a, r: {"hits": int(bool(r))}),
    ("closed_catalog.catalog_eval", "scottperm.closed_catalog", "catalog_eval", None),
    ("numeric_oracle.find_roots", "scottperm.numeric_oracle", "find_roots", None),
    ("numeric_oracle.brute_permanent", "scottperm.numeric_oracle", "brute_permanent", None),
    ("numeric_oracle.involution_sum", "scottperm.numeric_oracle", "involution_sum", None),
)


class Tracer:
    """Records spans as [name, start, end, parent index, op id, counts].

    Counts are computed from the call's arguments and result only when the
    spans are summarized, so that work stays out of the timed spans.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, summarize: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if summarize is not None:
                record[5] = (summarize, args, result)  # evaluated after timing
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``scottperm`` namespace holding it."""
        namespaces = [
            module for name, module in list(sys.modules.items())
            if name == "scottperm" or name.startswith("scottperm.")
        ]
        for name, module_name, attribute, summarize in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._replace(cls, method, original, self.wrap(name, original, summarize))
                continue
            original = getattr(owner, attribute)
            wrapper = self.wrap(name, original, summarize)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, holder: Any, key: str, original: Any, wrapper: Callable) -> None:
        setattr(holder, key, wrapper)
        self._installed.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self and total milliseconds, and summed counts.

    ``max_bits`` is kept as a maximum rather than a sum.  Deferred counts are
    computed here and stored back into their spans.
    """
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        if isinstance(span[5], tuple):
            count_fn, args, result = span[5]
            span[5] = count_fn(args, result)
        name, start, end, _, _, counts = span
        row = table[name]
        row["calls"] += 1
        row["self_ms"] += own * 1000.0
        row["total_ms"] += (end - start) * 1000.0
        for key, value in (counts or {}).items():
            row[key] = max(row.get(key, 0), value) if key == "max_bits" else row.get(key, 0) + value
    return dict(table)

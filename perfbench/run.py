"""Benchmark for the scottperm command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload theorem1_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workload's operations (see workloads.py) are generated from the seed and
run by one single-threaded closed loop: each operation calls
``scottperm.cli.main`` in-process with stdout captured, and starts when the
previous one returns.  The loop repeats whole passes over the operation list
while another pass still fits in ``--seconds``, and at least twice; untraced,
a last pass then runs until ``--seconds`` are up.  Every output is checked against a reference computed before timing starts; a
failed check is counted, never fatal.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median time from a fresh interpreter until ``scottperm.cli``
  is imported, over several fresh interpreters, at the reference speed;
* ``wall_ref_s``: time to run each distinct operation of the list once, at
  the reference machine speed (below);
* ``latency_ref_ms_p50`` / ``latency_ref_ms_p90``: per-operation time at the
  reference speed, over the distinct operations of the list;
* ``checks_per_op``: checks passed per operation: the route pairs a
  ``verify`` report finds in agreement, or 1 for an ``eval`` value that
  matches its reference;
* ``peak_rss_mb``: peak resident memory of this process.

A shared host changes speed all the time: by 10-60% from one second to the
next, and for minutes at a time.  So every pass also times a fixed probe, a
Fraction elimination that uses only the standard library, every
PROBE_EVERY_S seconds between operations, and each run of an operation is
divided by the mean of the probes just before and just after it.  An
operation's reference-speed time is the median over its runs of that ratio
times PROBE_REFERENCE_MS: the time it would take on a machine where the
probe takes PROBE_REFERENCE_MS.  A change to the program moves it; a change
in the machine's speed moves the probe as well and cancels out.  The
measured times, each operation's median over its runs, are printed beside
them as ``wall_s``, ``latency_ms_p50`` and ``latency_ms_p90``, with the
median probe time as ``probe_ms``.  Set-up is scaled the same way, by a
probe just before and just after each import; the measured median is
printed as ``setup_measured_s``.

``fail_frac`` (failed / attempted) is printed as well, and carried by the
``failed`` and ``attempted`` fields of the result.

With ``--trace 1`` untraced and traced passes alternate.  Traced passes wrap
the package's public functions (tracer.py) and report, per pass, each one's
self time, call count and a few counts, plus the tracing overhead: traced
minus untraced ``wall_s``.  These are measured times, not scaled.  Spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, time as wall_clock
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import TARGETS, Tracer, summarize  # noqa: E402
from workloads import FLOAT_TOLERANCE, WORKLOADS, Case, add_references, generate  # noqa: E402

SETUP_RUNS = 9
SETUP_PROBE = "import time\nimport scottperm.cli\nprint(repr(time.time()))"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "latency_ref_ms_p50": "ms",
    "latency_ref_ms_p90": "ms",
    "checks_per_op": "count",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics, but not part of the result.
MEASURED_UNITS = {
    "setup_measured_s": "s",
    "wall_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "probe_ms": "ms",
}

# Functions whose inclusive time is reported beside their self time.
INCLUSIVE = (
    "cli.main",
    "scott_engine.scott_permanent",
    "scott_engine.verify",
    "exact_core.resultant",
    "fes_engine.per_via_fes",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in ("cli.main",) + tuple(target[0] for target in TARGETS):
        units[f"{name}.self_ms"] = "ms"
        if name in INCLUSIVE:
            units[f"{name}.total_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update({
        "exact_core.exact_det.max_bits": "count",
        "fes_engine.binomial_shortcut.hits": "count",
        "fes_engine.binomial_shortcut.hit_ratio": "ratio",
        "closed_catalog.find_matching.hits": "count",
        "closed_catalog.find_matching.hit_ratio": "ratio",
        "numeric_oracle.find_roots.calls_per_verify": "count",
        "scott_engine.verify.routes_skipped": "count",
        "scott_engine.verify.route_errors": "count",
        "trace.spans": "count",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# Checking one operation ------------------------------------------------------


def _value(data: dict) -> Fraction | complex:
    if "num" in data:
        return Fraction(int(data["num"]), int(data["den"]))
    return complex(data["re"], data["im"])


def _gap(a: Fraction | complex, b: Fraction | complex) -> float:
    ca, cb = complex(a), complex(b)
    return abs(ca - cb) / max(1.0, abs(ca), abs(cb))


def check(case: Case, code: object, text: str, previous: Fraction | None):
    """(passed, checks passed, value) for one operation's exit code and stdout.

    `previous` is the value of the operation before this one, which a
    "sign" case mirrors.
    """
    if code != 0:
        return False, 0, None
    try:
        payload = json.loads(text)
        if case.command == "verify":
            ok = payload["all_agree"] is True
            if case.reference is not None:
                theorem1 = [r for r in payload["routes"] if r["method"] == "theorem1"]
                ok = ok and bool(theorem1) and theorem1[0]["value"] is not None
                ok = ok and _value(theorem1[0]["value"]) == case.reference
            return ok, sum(bool(a["agree"]) for a in payload["agreements"]), None
        value = _value(payload["value"])
    except (ValueError, KeyError, TypeError):
        return False, 0, None
    if case.check == "mirror":
        return True, 0, value  # its mirror case checks it
    if case.check == "sign":
        ok = previous is not None and value == (-1) ** (len(case.P) - 1) * previous
        return ok, 2 * ok, value
    if case.check == "exact":
        ok = value == case.reference
    else:
        ok = _gap(value, case.reference) <= FLOAT_TOLERANCE
    return ok, int(ok), value


# Running passes --------------------------------------------------------------


# Machine-speed probe ---------------------------------------------------------


PROBE_EVERY_S = 0.1
# About the probe's time on the 2-core Intel Xeon host the benchmark was
# tuned on, when it is quiet, so reference-speed times there read close to
# measured ones.
PROBE_REFERENCE_MS = 3.0
_PROBE_RNG = random.Random(0)
_PROBE_MATRIX = [
    [Fraction(_PROBE_RNG.randint(-9, 9), _PROBE_RNG.randint(1, 9)) for _ in range(14)]
    for _ in range(14)
]


def probe() -> float:
    """Seconds for one fixed Fraction elimination that uses only the standard library."""
    start = perf_counter()
    a = [row[:] for row in _PROBE_MATRIX]
    n = len(a)
    for k in range(n):
        pivot = next(i for i in range(k, n) if a[i][k])
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return perf_counter() - start


@dataclass
class Pass:
    latencies: list[float]
    failed: int
    checks: int
    # (operations run before it in the pass, probe seconds)
    probes: list[tuple[int, float]] = field(default_factory=list)


def around(p: Pass) -> list[float]:
    """For each operation of the pass, the mean of the probes just before and after it."""
    means = []
    k = 0
    for i in range(len(p.latencies)):
        while k + 1 < len(p.probes) and p.probes[k + 1][0] <= i:
            k += 1
        before = p.probes[k][1]
        after = p.probes[k + 1][1] if k + 1 < len(p.probes) else before
        means.append((before + after) / 2)
    return means


def median_times(cases: list[Case], passes: list[Pass], reference: bool = False) -> list[float]:
    """Each operation's median time over all its runs, in seconds.

    With `reference`, each run is first scaled to the reference speed by the
    probes around it.  The copies of a light operation are one Case object,
    so they count as one operation; equal pairs from different catalog
    entries do not.
    """
    runs: dict[int, list[float]] = {}
    for p in passes:
        scales = [PROBE_REFERENCE_MS / 1000.0 / t for t in around(p)] if reference else []
        for i, (case, seconds) in enumerate(zip(cases, p.latencies)):
            runs.setdefault(id(case), []).append(seconds * scales[i] if reference else seconds)
    return [statistics.median(r) for r in runs.values()]


def run_pass(
    cases: list[Case], main: Callable, tracer: Tracer | None = None, deadline: float = float("inf")
) -> Pass:
    """Run every case once, in order, in a closed loop, or until `deadline`."""
    latencies, failed, checks, probes = [], 0, 0, []
    previous = None
    probed = float("-inf")
    for case in cases:
        if perf_counter() >= deadline:
            break
        if perf_counter() - probed >= PROBE_EVERY_S:
            probes.append((len(latencies), probe()))
            probed = perf_counter()
        if tracer is not None:
            tracer.op_id = (tracer.op_id or 0) + 1
        argv, out = case.argv, io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out):
                code: object = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = exc
        latencies.append(perf_counter() - start)
        if isinstance(code, BaseException):
            traceback.print_exception(code)
        ok, passed, previous = check(case, code, out.getvalue(), previous)
        failed += not ok
        checks += passed
    return Pass(latencies, failed, checks, probes)


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median seconds from spawning an interpreter until scottperm.cli is imported.

    Returns the reference-speed median, each import scaled by the mean of a
    probe just before and just after it, and the measured median.  One extra
    import first fills the bytecode cache and is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, scaled = [], []
    for attempt in range(runs + 1):
        before = probe()
        start = wall_clock()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(done.stdout.strip()) - start
        after = probe()
        if attempt:
            times.append(seconds)
            scaled.append(seconds * PROBE_REFERENCE_MS / 1000.0 / ((before + after) / 2))
    return statistics.median(scaled), statistics.median(times)


def _loop(cases: list[Case], seconds: float, trace: bool):
    """Untimed warm-up, then whole passes while one more fits in `seconds`.

    At least two untraced passes run, so every operation has two runs.
    Untraced, a last pass then runs until `seconds` are up, which gives one
    more run to as many operations as fit.
    """
    import scottperm.cli as cli

    run_pass(cases[:1], cli.main)
    deadline = perf_counter() + seconds
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    last = 0.0
    while perf_counter() + last < deadline or len(plain) < 2 or (trace and not traced):
        began = perf_counter()
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(cases, traced_main, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(cases, cli.main))
        last = perf_counter() - began
    if not trace and perf_counter() < deadline:
        plain.append(run_pass(cases, cli.main, deadline=deadline))
    return plain, traced, tracer


def end_to_end(
    cases: list[Case], plain: list[Pass], setup: tuple[float, float]
) -> dict[str, float]:
    """The end-to-end metrics, then the measured times (MEASURED_UNITS)."""
    measured = [t * 1000.0 for t in median_times(cases, plain)]
    scaled = [t * 1000.0 for t in median_times(cases, plain, reference=True)]
    return {
        "setup_s": setup[0],
        "wall_ref_s": sum(scaled) / 1000.0,
        "latency_ref_ms_p50": statistics.median(scaled),
        "latency_ref_ms_p90": statistics.quantiles(scaled, n=10, method="inclusive")[-1],
        # Over whole passes only: operations differ in their number of checks.
        "checks_per_op": statistics.mean(
            p.checks / len(cases) for p in plain if len(p.latencies) == len(cases)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_measured_s": setup[1],
        "wall_s": sum(measured) / 1000.0,
        "latency_ms_p50": statistics.median(measured),
        "latency_ms_p90": statistics.quantiles(measured, n=10, method="inclusive")[-1],
        "probe_ms": 1000.0 * statistics.median(t for p in plain for _, t in p.probes),
    }


def per_layer(
    cases: list[Case], plain: list[Pass], traced: list[Pass], spans: list[list]
) -> dict[str, float]:
    table = summarize(spans)
    count = len(traced)

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0) / count

    metrics: dict[str, float] = {}
    for metric in per_layer_units():
        name, _, key = metric.rpartition(".")
        if key in ("self_ms", "total_ms", "calls"):
            metrics[metric] = get(name, key)
    verify_calls = get("scott_engine.verify", "calls")
    fes_calls = get("fes_engine.per_via_fes", "calls")
    matching_calls = get("closed_catalog.find_matching", "calls")
    hits = get("fes_engine.special_resultant", "calls")
    matches = get("closed_catalog.find_matching", "hits")
    untraced_wall = sum(median_times(cases, plain))
    traced_wall = sum(median_times(cases, traced))
    metrics.update({
        "exact_core.exact_det.max_bits": table.get("exact_core.exact_det", {}).get("max_bits", 0),
        "fes_engine.binomial_shortcut.hits": hits,
        "fes_engine.binomial_shortcut.hit_ratio": hits / fes_calls if fes_calls else 0.0,
        "closed_catalog.find_matching.hits": matches,
        "closed_catalog.find_matching.hit_ratio": matches / matching_calls if matching_calls else 0.0,
        "numeric_oracle.find_roots.calls_per_verify": (
            get("numeric_oracle.find_roots", "calls") / verify_calls if verify_calls else 0.0
        ),
        "scott_engine.verify.routes_skipped": get("scott_engine.verify", "routes_skipped"),
        "scott_engine.verify.route_errors": get("scott_engine.verify", "route_errors"),
        "trace.spans": len(spans) / count,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics


def _write_spans(workload: str, seed: int, spans: list[list]) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"], "spans": spans}, handle)
    return path


def _report(workload: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{workload:<14} {name:<46} {value:>16.6f} {units[name]}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = (0.0, 0.0) if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from scottperm.cli import DegreeZeroWarning

    # Constant catalog polynomials warn on every parse; the warning is expected.
    warnings.simplefilter("ignore", DegreeZeroWarning)
    cases = add_references(generate(workload, seed))
    plain, traced, tracer = _loop(cases, seconds, trace)
    passes = plain + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics, units = per_layer(cases, plain, traced, tracer.spans), per_layer_units()
        print(f"spans written to {_write_spans(workload, seed, tracer.spans)}")
    else:
        metrics, units = end_to_end(cases, plain, setup), END_TO_END_UNITS
    _report(workload, metrics, units | MEASURED_UNITS)
    print(f"{workload:<14} {'fail_frac':<46} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} operations, {len(passes)} passes)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scottperm" / "__init__.py").is_file():
        print(f"error: no scottperm package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

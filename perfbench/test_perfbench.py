"""Tests for the benchmark itself: generator, checks and tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from scottperm import cli, exact_core, fes_engine, scott_engine  # noqa: E402
from scottperm.exact_core import Polynomial, poly_gcd  # noqa: E402
from workloads import Case  # noqa: E402


def small_cases() -> list[Case]:
    """One case of every check kind, each a fraction of a second."""
    rng = random.Random(0)
    p, q = workloads.random_pair(rng, 3, 3)
    skinny_p, skinny_q = workloads.random_pair(rng, 2, 5, distinct_p=True)
    fes_p, fes_q = (-1, 0, 0, 0, 1), (5, 0, -2, 1, 1)
    verify_p, verify_q = workloads.random_pair(rng, 4, 4, distinct_p=True, distinct_q=True)
    catalog_case = next(
        case for case in workloads.generate("verify_mixed", 0)
        if case.reference is not None and len(case.P) + len(case.Q) <= 8
    )
    return workloads.add_references([
        Case("eval", p, q, "mirror"),
        Case("eval", q, p, "sign"),
        Case("eval", skinny_p, skinny_q, "float"),
        Case("eval", fes_p, fes_q, "exact"),
        catalog_case,
        Case("verify", verify_p, verify_q, "agree"),
    ])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 11)
    assert first == workloads.generate(name, 11)
    assert first != workloads.generate(name, 12)


def test_modular_coprimality_agrees_with_exact_gcd():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        p = workloads.random_monic(rng, rng.randint(1, 3))
        q = workloads.random_monic(rng, rng.randint(1, 3))
        expected = poly_gcd(Polynomial(p), Polynomial(q)).degree == 0
        assert workloads.coprime(p, q) == expected
        seen.add(expected)
    assert seen == {True, False}
    # (x - 1)^2 (x + 1) repeats a root; (x - 1)(x + 1) does not.
    assert not workloads.squarefree((1, -1, -1, 1))
    assert workloads.squarefree((-1, 0, 1))


def test_rendered_text_parses_back():
    for case in small_cases():
        _, _, p_text, q_text = case.argv
        assert cli.parse_poly(p_text).parsed == Polynomial(case.P)
        assert cli.parse_poly(q_text).parsed == Polynomial(case.Q)


def corrupting(target: int):
    """A cli.main that falsifies the output of its target-th call."""
    calls = []

    def main(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        payload = json.loads(out.getvalue())
        if len(calls) == target:
            if argv[0] == "verify":
                payload["all_agree"] = False
            else:
                payload["value"]["num"] = str(int(payload["value"]["num"]) + 1)
        calls.append(argv)
        print(json.dumps(payload))
        return code

    return main


def test_honest_pass_has_no_failures():
    cases = small_cases()
    result = run.run_pass(cases, cli.main)
    assert result.failed == 0
    assert len(result.latencies) == len(cases)
    assert result.checks >= len(cases)


def test_copies_of_a_case_count_as_one_operation():
    case = Case("eval", (-1, 0, 0, 0, 1), (5, 0, -2, 1, 1), "exact")
    cases = workloads.add_references([case, case])
    assert cases[0] is cases[1] and cases[0].reference is not None
    passes = [run.Pass([0.3, 0.2], 0, 2), run.Pass([0.1, 0.5], 0, 2)]
    assert run.median_times(cases, passes) == [pytest.approx(0.25)]
    assert run.median_times(small_cases()[:2], passes) == [pytest.approx(0.2), pytest.approx(0.35)]


def test_each_operation_is_scaled_by_the_probes_around_it():
    p = run.Pass([0.1, 0.1, 0.1], 0, 0, [(0, 0.004), (2, 0.002)])
    assert run.around(p) == [pytest.approx(0.003), pytest.approx(0.003), 0.002]


def test_reference_speed_scales_by_the_probe():
    # A machine on which the probe takes twice the reference time.
    probe_s = 2 * run.PROBE_REFERENCE_MS / 1000.0
    passes = [run.Pass([0.3, 0.2], 0, 2, [(0, probe_s)]), run.Pass([0.4, 0.1], 0, 2, [(0, probe_s)])]
    metrics = run.end_to_end(small_cases()[:2], passes, (0.5, 1.0))
    assert metrics["wall_s"] == pytest.approx(0.5)
    assert metrics["wall_ref_s"] == pytest.approx(0.25)
    assert metrics["latency_ref_ms_p50"] == pytest.approx(metrics["latency_ms_p50"] / 2)
    assert metrics["probe_ms"] == pytest.approx(2 * run.PROBE_REFERENCE_MS)


@pytest.mark.parametrize("target", range(6))
def test_corrupted_value_is_counted_as_failure(target):
    result = run.run_pass(small_cases(), corrupting(target))
    assert result.failed == 1


def test_verify_reference_mismatch_alone_is_a_failure():
    case = small_cases()[4]
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(case.argv)
    payload = json.loads(out.getvalue())
    assert run.check(case, 0, out.getvalue(), None)[0]
    route = next(r for r in payload["routes"] if r["method"] == "theorem1")
    route["value"]["num"] = str(int(route["value"]["num"]) + 1)
    assert not run.check(case, 0, json.dumps(payload), None)[0]


@pytest.mark.parametrize("outcome", [lambda argv: 1, lambda argv: 1 / 0, lambda argv: sys.exit(2)])
def test_exit_codes_and_crashes_are_failures(outcome):
    cases = small_cases()[:3]
    assert run.run_pass(cases, outcome).failed == 3


def test_self_times_cover_the_root_exactly():
    spans = [
        ["root", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["b", 5.0, 9.0, 0, 1, None],
        ["c", 2.0, 3.0, 1, 1, None],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 4.0, 1.0]


def test_traced_span_trees_add_up_to_their_roots():
    cases = small_cases()
    t = tracer.Tracer()
    original = exact_core.exact_det
    t.install()
    try:
        assert scott_engine.exact_det is fes_engine.exact_det is exact_core.exact_det
        assert exact_core.exact_det is not original
        result = run.run_pass(cases, t.wrap("cli.main", cli.main), t)
    finally:
        t.uninstall()
    assert scott_engine.exact_det is fes_engine.exact_det is exact_core.exact_det is original
    assert result.failed == 0

    own = tracer.self_times(t.spans)
    roots = [i for i, span in enumerate(t.spans) if span[3] is None]
    assert len(roots) == len(cases)
    for root in roots:
        op = t.spans[root][4]
        total = sum(s for s, span in zip(own, t.spans) if span[4] == op)
        assert total == pytest.approx(t.spans[root][2] - t.spans[root][1], abs=1e-9)

    table = tracer.summarize(t.spans)
    assert table["cli.main"]["calls"] == len(cases)
    assert table["exact_core.matmul"]["calls"] >= 3
    assert table["exact_core.exact_det"]["max_bits"] > 0
    assert table["scott_engine.verify"]["calls"] == 2
    assert sum(row["self_ms"] for row in table.values()) == pytest.approx(
        table["cli.main"]["total_ms"], rel=1e-9
    )


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "banded_fes", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Self-tests of the benchmark harness (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from eigenfid import channel, errors, jcdrive  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, child._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_hanging_poisson_drive_is_recorded_as_a_hang_at_the_limit(alarm):
    limit = run.EVAL_LIMIT_S
    outcome, seconds, lo, hi = child.evaluate(["poisson", 3000.0, None, 1.0], limit,
                                              jcdrive, channel, errors)
    assert outcome == "hang"
    assert limit <= seconds < limit + 0.5
    assert math.isnan(lo) and math.isnan(hi)


def test_typed_error_and_success_are_told_apart(alarm):
    bad = child.evaluate(["binomial", 1e5, 0.5, 1.0], run.EVAL_LIMIT_S, jcdrive, channel, errors)
    good = child.evaluate(["poisson", 100.0, None, 1.0], run.EVAL_LIMIT_S, jcdrive, channel, errors)
    assert bad[0] == "UnsupportedParameters" and bad[1] < run.EVAL_LIMIT_S / 2
    assert good[0] == "ok" and 0 < good[2] <= good[3]


def test_failed_evaluations_enter_latency_at_the_limit():
    tally = run.Tally("domain")
    nan = math.nan
    run.record_evals(tally, [["hang", 1.0004, nan, nan],
                             ["UnsupportedParameters", 0.01, nan, nan],
                             ["ok", 0.002, 0.1, 0.2]])
    limit_ms = run.EVAL_LIMIT_S * 1e3
    assert tally.latency_ms == [limit_ms, limit_ms, 2.0]
    tally.setup_s.append(0.3)
    assert tally.metrics()["ok_share"] == pytest.approx(1 / 3)
    assert tally.metrics()["rows_per_s"] == pytest.approx(500.0)
    assert tally.failed == 0 and not tally.problems


def test_a_retimed_point_counts_at_its_median_timing():
    tally = run.Tally("domain")
    run.record_evals(tally, [["ok", 0.004, 0.1, 0.2], ["hang", 1.0, math.nan, math.nan]],
                     [[0.004, 0.002, 0.003], []])
    assert tally.latency_ms == [3.0, run.EVAL_LIMIT_S * 1e3]
    assert tally.attempted == 5


def test_calibration_runs_in_milliseconds():
    assert 1e-4 < child.calibrate() < 0.1


def test_bad_domain_results_fail_the_checks():
    tally = run.Tally("domain")
    run.record_evals(tally, [["ok", 0.002, 0.3, 0.2], ["untyped:ValueError", 0.001, 0.0, 0.0]])
    assert tally.failed == 2 and len(tally.problems) == 2
    assert tally.outcomes["ok"] == 0


def test_benchmark_json_names_every_metric_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.CLI_WORKLOADS:
        assert workloads.sweeps(name, 5) == workloads.sweeps(name, 5)
        assert workloads.sweeps(name, 5) != workloads.sweeps(name, 6)
    assert workloads.domain_points(5) == workloads.domain_points(5)
    assert workloads.domain_points(5) != workloads.domain_points(6)


def test_grid_sizes_and_ranges():
    rows = {name: [s["rows"] for s in workloads.sweeps(name, 9)]
            for name in workloads.CLI_WORKLOADS}
    assert rows == {"scaling": [384, 384], "concat": [112, 144], "mc-parallel": [128]}
    for sw in workloads.sweeps("scaling", 9):
        assert all(10 <= n <= 1e3 for n in sw["config"]["nbar_grid"])
        assert all(0 < t <= math.pi for t in sw["config"]["tau_grid"])


def test_domain_points_are_valid_inputs():
    points = workloads.domain_points(9)
    assert len(points) == workloads.DOMAIN_POINTS
    assert [p[0] for p in points[:4]] == ["poisson", "binomial"] * 2
    for kind, nbar, fano, tau in points:
        assert 10 <= nbar <= 1.01e5 and 0 < tau <= math.pi
        if kind == "binomial":
            for value in (4 * fano * nbar, nbar - 2 * fano * nbar):
                assert abs(value - round(value)) < 1e-9


def test_reference_comparison_goes_by_column_name():
    ref = run.reference_path("concat", "concat")
    header, rows = run.read_csv(ref)
    # an extra column and a different column order are fine
    shuffled = ["runtime_ms"] + header[::-1]
    reordered = [["1.0"] + row[::-1] for row in rows]
    assert run.compare_reference(shuffled, reordered, ref) == []
    k = header.index("eigenerror_exact")
    rows[3][k] = repr(float(rows[3][k]) * (1 + 1e-6))
    assert run.compare_reference(header, rows, ref)

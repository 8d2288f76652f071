"""The bench_simspeed gates: throughput gate logic and the paired judge.

These tests pin what each gate decides from its measurements — the
tier and stream-path orderings, the kernel target, and the overhead
gates' verdict from the median pair ratio's confidence interval —
without running full-length measurements, and that the frozen
``BENCH_simspeed.json`` history keeps its points.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks"
    / "bench_simspeed.py"
)
_spec = importlib.util.spec_from_file_location("bench_simspeed", BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BOUND = 0.02


def fake_rows(kg: float = 4.0, gate_vk: float = 1.6):
    """Synthetic suite rows with the given ratios on every workload.

    ``gate_vk`` is the stream path's ratio over the dict kernel on the
    workloads that carry the vector gate.
    """
    rows = []
    for name, (_f, gated, vgated) in bench.WORKLOADS.items():
        generic = 100_000.0
        rows.append({
            "workload": name,
            "kernel_gated": gated,
            "tiers": {"generic": generic, "kernel": generic * kg},
            "ratios": {"kernel_over_generic": kg},
            "vector_gate": {
                "batch": 2048,
                "kernel": generic * kg,
                "vector": generic * kg * gate_vk,
                "vector_over_kernel": gate_vk,
            } if vgated else None,
        })
    return rows


def vector_gated():
    return [name for name, (_f, _g, v) in bench.WORKLOADS.items() if v]


class TestPointSchema:
    def test_checked_in_seed_matches_schema(self):
        # BENCH_simspeed.json is frozen history that nothing writes: it
        # keeps the six schema-2 points the script last appended.
        seed_path = BENCH_PATH.parent.parent / "BENCH_simspeed.json"
        report = json.loads(seed_path.read_text())
        assert report["schema_version"] == 2
        assert report["benchmark"] == "bench_simspeed"
        assert len(report["points"]) == 6
        for point in report["points"]:
            assert set(point["workloads"]) == set(bench.WORKLOADS)


def test_three_options_and_a_working_help(capsys):
    with pytest.raises(SystemExit) as exited:
        bench.main(["--help"])
    assert exited.value.code == 0
    options = capsys.readouterr().out.split("options:")[1]
    assert re.findall(r"^  (--[a-z-]+)", options, re.M) == [
        "--smoke", "--trace-overhead", "--export-overhead",
    ]


class TestGateLogic:
    def test_passing_ratios_produce_no_failures(self):
        assert bench.check_gates(fake_rows(), smoke=False) == []
        assert bench.check_gates(fake_rows(), smoke=True) == []

    def test_kernel_below_generic_target_fails(self):
        failures = bench.check_gates(fake_rows(kg=2.0), smoke=False)
        # Only the gated streaming benchmark enforces the kernel gate.
        gated = [
            name for name, (_f, g, _v) in bench.WORKLOADS.items() if g
        ]
        assert gated == ["stream-llc"]
        assert [f.split(":")[0] for f in failures] == gated
        assert all("over-generic" in f for f in failures)

    def test_vector_below_gate_target_fails_each_gated_workload(self):
        # The gate's target is the dict kernel itself: parity fails in
        # full runs as in smoke runs.
        assert vector_gated() == ["stream-llc"]
        for smoke in (False, True):
            failures = bench.check_gates(fake_rows(gate_vk=1.0),
                                         smoke=smoke)
            assert [f.split(":")[0] for f in failures] == vector_gated()
            assert all("batches" in f for f in failures)

    def test_smoke_checks_ordering_only(self):
        # Below absolute targets but correctly ordered: smoke passes.
        rows = fake_rows(kg=1.3, gate_vk=1.1)
        assert bench.check_gates(rows, smoke=True) == []
        assert bench.check_gates(rows, smoke=False) != []
        # An inversion fails even the smoke run, on every workload.
        inverted = bench.check_gates(fake_rows(kg=0.8), smoke=True)
        assert [f.split(":")[0] for f in inverted] == list(bench.WORKLOADS)

    def test_smoke_vector_ordering_applies_to_gated_rows_only(self):
        # Only the rows carrying the gate measurement are checked for
        # stream-path ordering.
        failures = bench.check_gates(fake_rows(gate_vk=0.9), smoke=True)
        slower = [f for f in failures if "vector slower than kernel" in f]
        assert [f.split(":")[0] for f in slower] == vector_gated()

    def test_smoke_ignores_vector_gate_measurements(self):
        # Rows without a gate measurement must not fail for lack of
        # one.
        rows = fake_rows()
        for row in rows:
            row["vector_gate"] = None
        assert bench.check_gates(rows, smoke=True) == []


def spread(centre: float, step: float = 0.001, n: int = 41) -> list:
    """``n`` pair overheads evenly spaced around ``centre``."""
    return [centre + (i - n // 2) * step for i in range(n)]


class TestJudge:
    def test_interval_is_distribution_free_order_statistics(self):
        # 41 pairs: P(B < 14) = 1.4% <= 2.5% < P(B < 15) for
        # B ~ Binomial(41, 1/2), so the 14th smallest to the 14th
        # largest value.
        values = list(range(41))
        assert bench.median_interval(values[::-1]) == (13, 27)
        # Six values are the fewest with a 95% interval: the extremes.
        assert bench.median_interval([3, 1, 2, 6, 5, 4]) == (1, 6)
        assert bench.median_interval([1, 2, 3, 4, 5]) == (
            -math.inf, math.inf
        )

    def test_interval_below_the_bound_passes(self):
        verdict = bench.judge(spread(0.0), BOUND)
        assert verdict.outcome == "pass"
        assert verdict.n == 41
        assert verdict.median == 0.0
        assert verdict.low < verdict.median < verdict.high < BOUND

    def test_interval_at_or_above_the_bound_fails(self):
        assert bench.judge(spread(0.05), BOUND).outcome == "fail"
        # A lower end exactly at the bound is a failure too.
        verdict = bench.judge([BOUND - 0.01] * 13 + [BOUND] * 28, BOUND)
        assert verdict.low == BOUND
        assert verdict.outcome == "fail"

    def test_interval_straddling_the_bound_is_unresolved(self):
        # A median under the bound is not enough when the interval
        # reaches past it.
        verdict = bench.judge(spread(0.015, step=0.01), BOUND)
        assert verdict.median < BOUND < verdict.high
        assert verdict.outcome == "UNRESOLVED"
        # Too few pairs to bound the median decide nothing.
        assert bench.judge([0.0] * 5, BOUND).outcome == "UNRESOLVED"

    def test_upper_end_at_the_bound_does_not_pass(self):
        values = spread(0.0)
        values[27:] = [BOUND] * 14
        verdict = bench.judge(values, BOUND)
        assert verdict.high == BOUND
        assert verdict.outcome == "UNRESOLVED"

    def test_pairs_alternate_order_and_report_on_over_off(self):
        calls = []

        def off():
            calls.append("off")
            return 2.0

        def on():
            calls.append("on")
            return 2.1

        overheads = bench.paired_overheads(off, on, pairs=4)
        assert calls == ["off", "on", "on", "off"] * 2
        assert overheads == [2.1 / 2.0 - 1.0] * 4

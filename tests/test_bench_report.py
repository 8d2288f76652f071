"""The bench_simspeed ``--json`` report: schema and gate logic.

``BENCH_simspeed.json`` is a perf *trajectory*: each full bench run
appends one comparable point (schema 2), and pre-trajectory schema-1
snapshots are migrated as point zero.  These tests pin the point
schema, the v1 -> v2 migration, the append semantics, and the gate
logic — including the stream-path (vector) ordering gate — without running
full-length measurements.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks"
    / "bench_simspeed.py"
)
_spec = importlib.util.spec_from_file_location("bench_simspeed", BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TIER_NAMES = {"generic", "kernel"}
RATIO_NAMES = {"kernel_over_generic"}


def fake_rows(kg: float = 4.0, gate_vk: float = 1.6):
    """Synthetic suite rows with the given ratios on every workload.

    ``gate_vk`` is the stream path's ratio over the dict kernel on the
    workloads that carry the vector gate.
    """
    rows = []
    for name, (_f, gated, vgated) in bench.WORKLOADS.items():
        generic = 100_000.0
        row = {
            "workload": name,
            "kernel_gated": gated,
            "tiers": {
                "generic": generic,
                "kernel": generic * kg,
            },
            "ratios": {
                "kernel_over_generic": kg,
            },
            "vector_gate": None,
        }
        if vgated:
            row["vector_gate"] = {
                "batch": 2048,
                "kernel": generic * kg,
                "vector": generic * kg * gate_vk,
                "vector_over_kernel": gate_vk,
            }
        rows.append(row)
    return rows


def fake_point():
    return bench.build_point(fake_rows(), warm=1, timed=2, reps=1)


def vector_gated():
    return [name for name, (_f, _g, v) in bench.WORKLOADS.items() if v]


class TestPointSchema:
    def test_point_has_contract_fields(self):
        point = fake_point()
        for key in ("platform", "python", "implementation", "cpu_count"):
            assert key in point["machine"]
        assert point["config"]["machine_config"] == "scaled_nehalem"
        for name in bench.WORKLOADS:
            wl = point["workloads"][name]
            assert set(wl["tiers"]) == TIER_NAMES
            assert set(wl["ratios"]) == RATIO_NAMES
        assert point["targets"] == {
            "kernel_over_generic": bench.KERNEL_OVER_GENERIC_TARGET,
        }

    def test_point_records_kernel_gates_per_tier(self):
        # A trajectory point must say which REPRO_* tier flag each
        # measured column ran under.
        gates = fake_point()["kernel_gates"]
        assert set(gates) == set(bench.TIERS)
        for column in gates.values():
            assert set(column) == {"fast_lane"}
            assert all(isinstance(v, bool) for v in column.values())
        assert not gates["generic"]["fast_lane"]
        assert gates["kernel"]["fast_lane"]

    def test_gated_workloads_record_their_gate_measurement(self):
        point = fake_point()
        # The stream-shaped acceptance benchmark carries the gate.
        assert vector_gated() == ["stream-llc"]
        for name in bench.WORKLOADS:
            gate = point["workloads"][name]["vector_gate"]
            if name in vector_gated():
                assert set(gate) == {
                    "batch", "kernel", "vector", "vector_over_kernel"
                }
                assert gate["vector_over_kernel"] > 1.0
            else:
                assert gate is None

    def test_report_wraps_points(self):
        report = bench.build_report([fake_point()])
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["benchmark"] == "bench_simspeed"
        assert len(report["points"]) == 1

    def test_report_is_json_serialisable(self):
        report = bench.build_report([fake_point()])
        assert json.loads(json.dumps(report)) == report

    def test_checked_in_seed_matches_schema(self):
        seed_path = BENCH_PATH.parent.parent / "BENCH_simspeed.json"
        report = json.loads(seed_path.read_text())
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["points"]
        # Every point names the same workload set the suite runs.
        for point in report["points"]:
            assert set(point["workloads"]) == set(bench.WORKLOADS)


class TestTrajectory:
    def test_migrate_v1_snapshot_becomes_point_zero(self):
        v1 = {
            "schema_version": 1,
            "benchmark": "bench_simspeed",
            "timestamp": "2026-08-06T00:00:00",
            "machine": {},
            "config": {},
            "targets": {},
            "workloads": {},
        }
        points = bench.migrate_points(v1)
        assert len(points) == 1
        assert "schema_version" not in points[0]
        assert "benchmark" not in points[0]
        assert points[0]["timestamp"] == "2026-08-06T00:00:00"

    def test_migrate_v2_returns_points_as_is(self):
        report = bench.build_report([fake_point(), fake_point()])
        assert bench.migrate_points(report) == report["points"]

    def test_write_fresh_file_has_one_point(self, tmp_path):
        path = tmp_path / "bench.json"
        count = bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=True
        )
        assert count == 1
        report = json.loads(path.read_text())
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert len(report["points"]) == 1

    def test_append_accumulates_points(self, tmp_path):
        path = tmp_path / "bench.json"
        for expected in (1, 2, 3):
            count = bench.write_report(
                path, fake_rows(), warm=1, timed=2, reps=1, append=True
            )
            assert count == expected
        assert len(json.loads(path.read_text())["points"]) == 3

    def test_append_migrates_v1_file_in_place(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "benchmark": "bench_simspeed",
            "timestamp": "t0",
            "workloads": {},
        }))
        count = bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=True
        )
        assert count == 2
        report = json.loads(path.read_text())
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["points"][0]["timestamp"] == "t0"
        assert set(report["points"][1]["workloads"]) == \
            set(bench.WORKLOADS)

    def test_overwrite_without_append_keeps_one_point(self, tmp_path):
        path = tmp_path / "bench.json"
        bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=True
        )
        count = bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=False
        )
        assert count == 1
        assert len(json.loads(path.read_text())["points"]) == 1


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
        assert [f.split(":")[0] for f in failures] == gated
        assert all("over-generic" in f for f in failures)

    def test_vector_below_gate_target_fails_each_gated_workload(self):
        # The gate's target is the dict kernel itself: parity fails in
        # full runs as in smoke runs.
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
        # An inversion fails even the smoke run.
        inverted = fake_rows(kg=0.8, gate_vk=0.9)
        assert bench.check_gates(inverted, smoke=True) != []

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

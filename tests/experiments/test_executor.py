"""Parallel run executor: parity, error surfacing, jobs resolution."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.executor import fan_out, resolve_jobs, run_many
from repro.experiments.workerpool import get_pool

#: Short runs keep the fan-out suite fast while still spanning several
#: probe periods.
FAST = CampaignSettings(length=0.02)

PAIRS = [
    (bench, config)
    for bench in ("429.mcf", "470.lbm", "444.namd")
    for config in ("solo", "raw", "rule")
]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_defaults_to_schedulable_cpus(self, monkeypatch):
        # Inside a container or taskset mask the schedulable-CPU count
        # is the real parallelism; os.cpu_count() overstates it.
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5},
            raising=False,
        )
        assert resolve_jobs() == 3

    def test_env_beats_affinity(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
            raising=False,
        )
        assert resolve_jobs() == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (macOS) fall back to the
        # total CPU count.
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_non_positive_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            resolve_jobs(jobs)

    @pytest.mark.parametrize("jobs", [2.5, "4", True])
    def test_non_integer_rejected(self, jobs):
        with pytest.raises(ConfigError, match="integer"):
            resolve_jobs(jobs)

    def test_error_names_the_cli_source(self):
        with pytest.raises(ConfigError, match="--jobs"):
            resolve_jobs(0, source="--jobs")

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()


def _failing_worker(task):
    if task % 2:
        raise ValueError(f"boom on {task}")
    return task * 10


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args alone."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _unpicklable_worker(task):
    if task == 1:
        return lambda: task
    if task == 3:
        raise _TwoArgError("x", "y")
    return task * 10


class TestFanOut:
    def test_serial_matches_input_order(self):
        assert fan_out(_failing_worker, [0, 2, 4], jobs=1) == [0, 20, 40]

    def test_parallel_matches_input_order(self):
        assert fan_out(_failing_worker, [0, 2, 4], jobs=3) == [0, 20, 40]

    def test_parallel_failure_names_every_failed_task(self):
        with pytest.raises(ExperimentError) as excinfo:
            fan_out(
                _failing_worker,
                [0, 1, 2, 3],
                jobs=2,
                describe=lambda t: f"task<{t}>",
            )
        message = str(excinfo.value)
        assert "2 of 4 runs failed" in message
        assert "task<1>" in message
        assert "task<3>" in message
        # Healthy siblings were not nuked by the failures.
        assert "task<0>" not in message

    def test_unpicklable_result_fails_only_its_task(self):
        pool = get_pool(2)
        with pytest.raises(ExperimentError) as excinfo:
            fan_out(
                _unpicklable_worker,
                [0, 1, 2, 3, 4],
                jobs=2,
                describe=lambda t: f"task<{t}>",
            )
        message = str(excinfo.value)
        # Two failures named, so every sibling completed.
        assert "2 of 5 runs failed" in message
        assert "task<1>: RuntimeError('unpicklable result" in message
        assert "task<3>: RuntimeError('unpicklable result" in message
        # The worker survived its result: the same pool serves on.
        assert get_pool(2) is pool
        assert pool.respawns == 0
        assert fan_out(_unpicklable_worker, [0, 2], jobs=2) == [0, 20]

    def test_unpicklable_task_raises_at_dispatch(self):
        # Loudly and at once, not a batch waiting forever on a task
        # that never reached its worker; the next batch starts clean.
        with pytest.raises(TypeError, match="pickle"):
            fan_out(_failing_worker, [0, threading.Lock()], jobs=2)
        assert fan_out(_failing_worker, [0, 2], jobs=2) == [0, 20]

    def test_serial_failure_is_described(self):
        with pytest.raises(ExperimentError, match="task<1>"):
            fan_out(
                _failing_worker, [1], jobs=1, describe=lambda t: f"task<{t}>"
            )


class TestRunMany:
    def test_parallel_and_serial_summaries_identical(self):
        parallel = run_many(FAST, PAIRS, jobs=4)
        serial = run_many(FAST, PAIRS, jobs=1)
        assert parallel == serial  # wall_seconds excluded from equality
        for summary, (bench, config) in zip(parallel, PAIRS):
            assert (summary.bench, summary.config) == (bench, config)
            assert summary.wall_seconds > 0.0

    def test_failed_run_reports_bench_and_config(self):
        with pytest.raises(ExperimentError) as excinfo:
            run_many(
                FAST,
                [("429.mcf", "solo"), ("no.such.bench", "raw")],
                jobs=2,
            )
        assert "(no.such.bench, raw)" in str(excinfo.value)

    def test_unknown_config_reports_identity(self):
        with pytest.raises(ExperimentError) as excinfo:
            run_many(FAST, [("429.mcf", "warp"), ("444.namd", "solo")],
                     jobs=2)
        assert "(429.mcf, warp)" in str(excinfo.value)


class TestCampaignPrefetch:
    def test_prefetch_then_lookup(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path, jobs=2)
        produced = campaign.prefetch(["429.mcf"], ["solo", "raw"])
        assert produced == 2
        # Now pure lookups: a second prefetch simulates nothing.
        assert campaign.prefetch(["429.mcf"], ["solo", "raw"]) == 0
        assert campaign.solo("429.mcf").bench == "429.mcf"
        assert campaign.total_wall_seconds() > 0.0

    def test_parallel_campaign_matches_serial(self, tmp_path):
        parallel = Campaign(FAST, cache_dir=tmp_path / "p", jobs=4)
        serial = Campaign(FAST, cache_dir=tmp_path / "s", jobs=1)
        benches = ["429.mcf", "470.lbm"]
        parallel.prefetch(benches, ["solo", "shutter"])
        serial.prefetch(benches, ["solo", "shutter"])
        for bench in benches:
            assert parallel.solo(bench) == serial.solo(bench)
            assert parallel.colocated(bench, "shutter") == serial.colocated(
                bench, "shutter"
            )

    def test_disk_cache_round_trips_wall_seconds(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path, jobs=1)
        produced = campaign.solo("444.namd")
        fresh = Campaign(FAST, cache_dir=tmp_path, jobs=1)
        loaded = fresh.solo("444.namd")
        assert loaded == produced
        assert loaded.wall_seconds == produced.wall_seconds

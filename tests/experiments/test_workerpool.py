"""Persistent worker pool: supervision, env forwarding, chaos.

Every parallel batch runs on this pool, so these tests pin its own
survival machinery (per-task env forwarding, timeout kills,
dead-worker replacement, unpicklable results and tasks, a worker's
interrupt tearing the batch down, failure identities) and the resilient
executor's behaviour on it.  That its answers equal the in-process
reference is pinned by ``tests/golden``, which runs every pinned spec
at ``--jobs 2``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ChaosError, UnknownBenchmarkError
from repro.experiments.campaign import CampaignSettings
from repro.experiments.executor import _execute_spec
from repro.experiments.resilience import (
    RetryPolicy,
    _execute_spec_attempt,
    run_specs_resilient,
)
from repro.experiments.workerpool import (
    SpecWorkerPool,
    WorkerFailure,
    get_pool,
    shutdown_pool,
)
from repro.faults.chaos import _DIE_EXIT_CODE, CHAOS_ENV
from repro.obs import MetricsRegistry

FAST = CampaignSettings(length=0.02, backend="statistical")

#: An eager policy so retry tests stay fast.
EAGER = RetryPolicy(max_attempts=2, backoff=(0.0,))


def attempt(key: int, spec, number: int) -> tuple:
    """The pool task a resilient round sends for ``spec``'s attempt."""
    return (key, _execute_spec_attempt, (spec, number))


def _times_ten(task: int) -> int:
    return task * 10


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args alone."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _unpicklable_worker(task: int) -> object:
    if task == 1:
        return lambda: task
    if task == 3:
        raise _TwoArgError("x", "y")
    return task * 10


def _orphan_worker(task: tuple[str, str, float]) -> str:
    """Interrupts, or sleeps then leaves a marker file."""
    kind, marker, delay = task
    if kind == "interrupt":
        raise KeyboardInterrupt("simulated Ctrl-C in a worker")
    time.sleep(delay)
    Path(marker).write_text("ran")
    return marker


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Each test starts unarmed and without a lingering pool singleton."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    shutdown_pool()
    yield
    shutdown_pool()


class TestPoolFailureHandling:
    """Kills, deaths, and exceptions stay contained to one task."""

    def test_exception_shipped_with_identity(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:5")
        pool = SpecWorkerPool(jobs=1)
        try:
            spec = FAST.run_spec("444.namd", "solo")
            failure = pool.map_specs([attempt(0, spec, 1)])[0]
            assert isinstance(failure, WorkerFailure)
            assert "ChaosError" in failure.describe()
            assert "injected crash on attempt 1" in failure.describe()
        finally:
            pool.close()

    def test_timeout_kills_and_respawns(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:1")
        pool = SpecWorkerPool(jobs=1)
        try:
            spec = FAST.run_spec("444.namd", "solo")
            failure = pool.map_specs(
                [attempt(0, spec, 1)], timeout=0.5
            )[0]
            assert isinstance(failure, WorkerFailure)
            assert failure.timed_out
            assert pool.respawns == 1
            # The replacement worker is functional (chaos hits only
            # attempt 1, and attempt 2 here is a fresh dispatch).
            monkeypatch.delenv(CHAOS_ENV)
            outcome = pool.map_specs([attempt(1, spec, 2)])[1]
            assert not isinstance(outcome, WorkerFailure)
        finally:
            pool.close()

    def test_dead_worker_detected_and_replaced(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "die:1")
        pool = SpecWorkerPool(jobs=1)
        try:
            spec = FAST.run_spec("444.namd", "solo")
            failure = pool.map_specs([attempt(0, spec, 1)])[0]
            assert isinstance(failure, WorkerFailure)
            assert failure.died
            assert f"exit code {_DIE_EXIT_CODE}" in failure.describe()
            assert pool.respawns == 1
            outcome = pool.map_specs([attempt(1, spec, 2)])[1]
            assert not isinstance(outcome, WorkerFailure)
        finally:
            pool.close()

    def test_env_forwarded_per_task(self, monkeypatch):
        # Chaos armed AFTER the workers forked must still reach them:
        # the REPRO_* namespace travels with every task.
        pool = SpecWorkerPool(jobs=1)
        try:
            spec = FAST.run_spec("444.namd", "solo")
            assert not isinstance(
                pool.map_specs([attempt(0, spec, 1)])[0],
                WorkerFailure,
            )
            monkeypatch.setenv(CHAOS_ENV, "crash:5")
            assert isinstance(
                pool.map_specs([attempt(1, spec, 1)])[1],
                WorkerFailure,
            )
            monkeypatch.delenv(CHAOS_ENV)
            assert not isinstance(
                pool.map_specs([attempt(2, spec, 1)])[2],
                WorkerFailure,
            )
        finally:
            pool.close()

    def test_trace_dir_propagates_to_warm_workers(
        self, monkeypatch, tmp_path
    ):
        """Regression: ``REPRO_TRACE_DIR`` set after the pool forked
        must still produce worker-side trace files, byte-identical to
        a serially traced run of the same spec."""
        from repro.experiments.executor import TRACE_DIR_ENV

        spec = FAST.run_spec("444.namd", "rule")
        pool = SpecWorkerPool(jobs=1)
        try:
            # Warm the worker with an untraced dispatch first, so the
            # trace env var demonstrably postdates the fork.
            assert not isinstance(
                pool.map_specs([(0, _execute_spec, spec)])[0], WorkerFailure
            )
            warm_dir = tmp_path / "warm"
            monkeypatch.setenv(TRACE_DIR_ENV, str(warm_dir))
            outcome = pool.map_specs([(1, _execute_spec, spec)])[1]
            assert not isinstance(outcome, WorkerFailure)
        finally:
            pool.close()
        traces = sorted(warm_dir.glob("*.jsonl"))
        assert len(traces) == 1

        serial_dir = tmp_path / "serial"
        monkeypatch.setenv(TRACE_DIR_ENV, str(serial_dir))
        serial_outcome = _execute_spec(spec)
        assert serial_outcome == outcome
        serial_traces = sorted(serial_dir.glob("*.jsonl"))
        assert len(serial_traces) == 1
        assert traces[0].name == serial_traces[0].name
        assert traces[0].read_bytes() == serial_traces[0].read_bytes()

    def test_workers_drop_beacons_when_directed(
        self, monkeypatch, tmp_path
    ):
        """``REPRO_BEACON_DIR`` rides the per-task env like any other
        ``REPRO_*`` knob; workers report cumulative task counters."""
        from repro.obs.heartbeat import BEACON_DIR_ENV, read_beacons

        pool = SpecWorkerPool(jobs=1)
        try:
            spec = FAST.run_spec("444.namd", "rule")
            monkeypatch.setenv(BEACON_DIR_ENV, str(tmp_path))
            pool.map_specs([(0, _execute_spec, spec)])
            pool.map_specs([(1, _execute_spec, spec)])
        finally:
            pool.close()
        beacons = read_beacons(tmp_path)
        assert "worker-0" in beacons
        payload = beacons["worker-0"]
        assert payload["state"] == "idle"
        assert payload["tasks_completed"] == 2
        assert payload["tasks_failed"] == 0
        # A rule-governed run issues verdicts; they surface in the
        # beacon's cumulative detector counters.
        assert payload["detector_verdicts"] > 0

    def test_unpicklable_result_fails_only_its_task(self):
        pool = get_pool(2)
        results = pool.map_specs(
            [(task, _unpicklable_worker, task) for task in range(5)]
        )
        failed = {
            key: value.describe() for key, value in results.items()
            if isinstance(value, WorkerFailure)
        }
        # Two failures, so every sibling completed.
        assert sorted(failed) == [1, 3]
        for message in failed.values():
            assert message.startswith("RuntimeError('unpicklable result")
        assert [results[key] for key in (0, 2, 4)] == [0, 20, 40]
        # The worker survived its result: the same pool serves on.
        assert get_pool(2) is pool
        assert pool.respawns == 0
        assert pool.map_specs(
            [(0, _unpicklable_worker, 0), (1, _unpicklable_worker, 2)]
        ) == {0: 0, 1: 20}

    def test_unpicklable_task_raises_at_dispatch(self):
        # Loudly and at once, not a batch waiting forever on a task
        # that never reached its worker; the next batch starts clean.
        with pytest.raises(TypeError, match="pickle"):
            get_pool(2).map_specs(
                [(0, _times_ten, 0), (1, _times_ten, threading.Lock())]
            )
        assert get_pool(2).map_specs(
            [(0, _times_ten, 0), (1, _times_ten, 2)]
        ) == {0: 0, 1: 20}

    def test_unknown_benchmark_named_once_from_the_pool(self):
        # The worker's UnknownBenchmarkError crosses the pipe intact.
        spec = FAST.run_spec("429.mcf", "raw")
        bad = dataclasses.replace(spec, victim="no.such.bench")
        results = get_pool(2).map_specs(
            [(0, _execute_spec, spec), (1, _execute_spec, bad)]
        )
        assert not isinstance(results[0], WorkerFailure)
        failure = results[1]
        assert isinstance(failure, WorkerFailure)
        assert isinstance(failure.error, UnknownBenchmarkError)
        message = failure.describe()
        assert "unknown benchmark 'no.such.bench'" in message
        assert message.count("unknown benchmark") == 1

    def test_worker_interrupt_cancels_queued_tasks(self, tmp_path):
        """A dying batch must not leak orphan workers: unstarted tasks
        are cancelled, not executed after the interrupt."""
        sleepers = 6
        tasks = [(0, _orphan_worker, ("interrupt", "", 0.0))] + [
            (index + 1, _orphan_worker,
             ("sleep", str(tmp_path / f"marker_{index}"), 0.3))
            for index in range(sleepers)
        ]
        pool = get_pool(2)
        with pytest.raises(KeyboardInterrupt):
            pool.map_specs(tasks)
        # Give in-flight workers ample time to finish, then count what
        # actually ran.  A pool that drained its queue would run all
        # six sleepers; the pool shuts down on the interrupt instead,
        # so at most the handful already dispatched may complete.
        time.sleep(1.5)
        markers = sorted(p.name for p in tmp_path.glob("marker_*"))
        assert len(markers) < sleepers
        # The torn-down pool is no longer the one batches get.
        assert get_pool(2) is not pool

    def test_close_is_idempotent(self):
        pool = SpecWorkerPool(jobs=2)
        pool.close()
        pool.close()

    def test_get_pool_resizes_by_recreating(self):
        first = get_pool(2)
        assert get_pool(2) is first
        second = get_pool(3)
        assert second is not first
        assert second.jobs == 3


class TestResilientParity:
    """run_specs_resilient on the pool: retry, quarantine, chaos."""

    @staticmethod
    def specs():
        return [
            FAST.run_spec("444.namd", "solo"),
            FAST.run_spec("429.mcf", "solo"),
        ]

    def test_outcomes_and_quarantine_identical(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:99:444.namd")
        specs = self.specs()
        outcomes, quarantined = run_specs_resilient(
            specs, jobs=2, policy=EAGER
        )
        assert set(outcomes) == {specs[1].digest}
        assert set(quarantined) == {specs[0].digest}
        record = quarantined[specs[0].digest]
        # The shipped exception keeps the identity a serial run gives.
        assert record.attempts == EAGER.max_attempts
        assert record.error == repr(ChaosError(
            f"chaos: injected crash on attempt {EAGER.max_attempts} "
            f"of {specs[0].describe()}"
        ))

    def test_die_once_retries_on_respawned_workers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "die:1")
        metrics = MetricsRegistry()
        specs = self.specs()
        outcomes, quarantined = run_specs_resilient(
            specs, jobs=2, metrics=metrics, policy=EAGER
        )
        assert not quarantined
        assert set(outcomes) == {spec.digest for spec in specs}
        # Both first attempts vanished mid-run; both workers were
        # replaced and the retries landed on the replacements.
        assert get_pool(2).respawns == 2
        snap = metrics.snapshot()
        assert snap["executor.retries"]["value"] == 2.0

    def test_die_persistent_quarantines_with_exit_code(
        self, monkeypatch
    ):
        # A single-attempt policy keeps the round parallel (a one-spec
        # retry round would run serially, where die degrades to a
        # crash), so the quarantine records the worker death itself.
        monkeypatch.setenv(CHAOS_ENV, "die:99:444.namd")
        specs = self.specs()
        policy = RetryPolicy(max_attempts=1, backoff=(0.0,))
        outcomes, quarantined = run_specs_resilient(
            specs, jobs=2, policy=policy
        )
        assert specs[1].digest in outcomes
        record = quarantined[specs[0].digest]
        assert record.attempts == 1
        assert f"exit code {_DIE_EXIT_CODE}" in record.error

    def test_die_in_serial_round_degrades_to_crash(self, monkeypatch):
        # The main process has no supervisor: die must not take the
        # campaign down with it, just fail the attempt.
        monkeypatch.setenv(CHAOS_ENV, "die:99")
        spec = FAST.run_spec("444.namd", "solo")
        outcomes, quarantined = run_specs_resilient(
            [spec], jobs=1, policy=EAGER
        )
        assert not outcomes
        record = quarantined[spec.digest]
        assert "degraded to crash" in record.error

    def test_repeated_chaos_rounds_keep_respawning(self, monkeypatch):
        """The pool survives round after round of worker deaths.

        Each round's first attempts kill their workers; the pool
        replaces them and the retries land cleanly — with no respawn
        cap creeping in and no quarantine leaking across rounds.
        """
        monkeypatch.setenv(CHAOS_ENV, "die:1")
        specs = self.specs()
        for round_number in range(1, 4):
            outcomes, quarantined = run_specs_resilient(
                specs, jobs=2, policy=EAGER
            )
            assert not quarantined, f"round {round_number} quarantined"
            assert set(outcomes) == {spec.digest for spec in specs}
            # Two dead workers replaced per round, cumulatively.
            assert get_pool(2).respawns == 2 * round_number

"""Persistent worker pool: supervision, env forwarding, chaos.

Every parallel batch runs on this pool, so these tests pin its own
survival machinery (per-task env forwarding, timeout kills,
dead-worker replacement, failure identities) and the resilient
executor's behaviour on it.  That its answers equal the in-process
reference is pinned by ``tests/golden``, which runs every pinned spec
at ``--jobs 2``.
"""

from __future__ import annotations

import pytest

from repro.errors import ChaosError
from repro.experiments.campaign import CampaignSettings
from repro.experiments.executor import _execute_spec, run_specs
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


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Each test starts unarmed and without a lingering pool singleton."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    shutdown_pool()
    yield
    shutdown_pool()


class TestFanOutOnPool:
    """run_specs (fan_out of _execute_spec) on the pool."""

    def test_metrics_instruments(self):
        specs = [
            FAST.run_spec(bench, config)
            for bench in ("444.namd", "429.mcf")
            for config in ("solo", "rule")
        ]
        metrics = MetricsRegistry()
        run_specs(specs, jobs=2, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["executor.tasks"]["value"] == 4.0
        assert snap["executor.failures"]["value"] == 0.0
        assert snap["executor.job_seconds"]["count"] == 4
        assert snap["profile.worker_dispatch_seconds"]["count"] == 4
        assert snap["executor.batch_seconds"]["value"] > 0.0


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

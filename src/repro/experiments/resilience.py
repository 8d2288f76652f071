"""Resilient campaign execution: retry, quarantine, checkpoint/resume.

In a multi-hour campaign one crashed or hung worker must not discard
hours of finished runs.  This module gives the campaign store's
executor that posture, on the executor's unit of work
(:func:`~repro.experiments.executor._execute_spec`) and the persistent
pool (:mod:`repro.experiments.workerpool`):

* :class:`RetryPolicy` — bounded attempts, a deterministic backoff
  schedule, and an optional per-run timeout (``REPRO_RETRIES`` /
  ``REPRO_RUN_TIMEOUT``);
* :func:`run_specs_resilient` — round-based fan-out where a failing
  spec is retried on the next round and a persistently failing one is
  *quarantined* (reported, not raised) while every completion is handed
  to the caller immediately via ``on_complete`` — the checkpoint seam;
* :class:`CampaignJournal` — an append-only, fsync-per-record JSONL
  journal of completed/quarantined digests, tolerant of a torn final
  line, giving campaigns crash-safe resume: completed work is never
  re-executed after an interruption.

Chaos mode (:mod:`repro.faults.chaos`) drives all of this in tests by
sabotaging the worker unit on purpose.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import ConfigError, is_deterministic
from ..faults.chaos import maybe_inject
from ..obs import MetricsRegistry
from ..runspec import RunOutcome, RunSpec
from .executor import _execute_spec, resolve_jobs
from .workerpool import WorkerFailure, get_pool, map_inline

#: Environment overrides for :meth:`RetryPolicy.from_env`.
RETRIES_ENV = "REPRO_RETRIES"
RUN_TIMEOUT_ENV = "REPRO_RUN_TIMEOUT"

#: Default backoff schedule: seconds slept before retry round N+1
#: (clamped to the last entry).  Deterministic on purpose — resilience
#: must not introduce randomness into campaign behaviour.
DEFAULT_BACKOFF = (0.0, 0.05, 0.2)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor tries before quarantining a spec."""

    max_attempts: int = 3
    backoff: tuple[float, ...] = DEFAULT_BACKOFF
    #: per-run wall-clock timeout in seconds; enforced only on the
    #: parallel path (a serial caller cannot preempt its own process)
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if any(delay < 0 for delay in self.backoff):
            raise ConfigError(
                f"backoff delays must be >= 0, got {self.backoff}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(
                f"timeout must be > 0, got {self.timeout}"
            )

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The default policy with environment overrides applied."""
        attempts = os.environ.get(RETRIES_ENV)
        timeout = os.environ.get(RUN_TIMEOUT_ENV)
        kwargs: dict = {}
        if attempts is not None:
            try:
                kwargs["max_attempts"] = int(attempts)
            except ValueError:
                raise ConfigError(
                    f"{RETRIES_ENV} must be an integer, got {attempts!r}"
                ) from None
        if timeout is not None:
            try:
                kwargs["timeout"] = float(timeout)
            except ValueError:
                raise ConfigError(
                    f"{RUN_TIMEOUT_ENV} must be a float, got {timeout!r}"
                ) from None
        return cls(**kwargs)

    def delay_before(self, attempt: int) -> float:
        """Seconds slept before ``attempt`` (attempt 2 = first retry)."""
        if attempt <= 1 or not self.backoff:
            return 0.0
        return self.backoff[min(attempt - 2, len(self.backoff) - 1)]


@dataclass(frozen=True)
class QuarantineRecord:
    """One spec the executor gave up on."""

    digest: str
    label: str
    attempts: int
    error: str


def _execute_spec_attempt(task: tuple[RunSpec, int]) -> RunOutcome:
    """The resilient worker unit: chaos hook, then the real execution."""
    spec, attempt = task
    maybe_inject(spec, attempt)
    return _execute_spec(spec)


def run_specs_resilient(
    specs: list[RunSpec],
    jobs: int | None = None,
    metrics: MetricsRegistry | None = None,
    policy: RetryPolicy | None = None,
    describe: Callable[[RunSpec], str] | None = None,
    on_complete: Callable[[RunSpec, RunOutcome, int], None] | None = None,
) -> tuple[dict[str, RunOutcome], dict[str, QuarantineRecord]]:
    """Execute specs with bounded retry; failures quarantine, not raise.

    Returns ``(outcomes, quarantined)``, both keyed by spec digest
    (duplicate digests in ``specs`` are executed once).  A spec that
    fails an attempt is retried on the next round after the policy's
    backoff; one that exhausts every attempt lands in ``quarantined``
    with its last error.  A deterministic failure
    (:func:`~repro.errors.is_deterministic`: a configuration or
    workload error) is quarantined after its first attempt, since a
    retry would raise it again.  ``on_complete(spec, outcome,
    attempt)`` fires in the calling process the moment each spec
    finishes — the caller's checkpoint seam, so an interruption loses
    at most the in-flight work.  A per-run ``policy.timeout`` fails
    stragglers (parallel path only; the pool kills the wedged worker
    and respawns it).
    :exc:`KeyboardInterrupt` shuts the pool down, so no unstarted work
    runs, and propagates — everything already checkpointed stays
    checkpointed.

    Metrics: ``executor.attempts`` (one per spec-attempt),
    ``executor.retries`` (failed attempts that will be retried), and
    ``executor.quarantined``.
    """
    policy = policy if policy is not None else RetryPolicy.from_env()
    describe = describe or RunSpec.describe
    jobs = resolve_jobs(jobs)
    distinct: list[RunSpec] = []
    seen: set[str] = set()
    for spec in specs:
        if spec.digest not in seen:
            seen.add(spec.digest)
            distinct.append(spec)
    pending = distinct
    outcomes: dict[str, RunOutcome] = {}
    errors: dict[str, str] = {}
    #: digest -> attempts made, for every spec given up on
    given_up: dict[str, int] = {}
    for attempt in range(1, policy.max_attempts + 1):
        if not pending:
            break
        delay = policy.delay_before(attempt)
        if delay:
            time.sleep(delay)
        failed = _round(
            pending, attempt, jobs, policy, outcomes, errors,
            on_complete, metrics,
        )
        pending = []
        for spec, retryable in failed:
            if retryable and attempt < policy.max_attempts:
                pending.append(spec)
            else:
                given_up[spec.digest] = attempt
        if pending and metrics is not None:
            metrics.counter("executor.retries").inc(len(pending))
    quarantined = {
        spec.digest: QuarantineRecord(
            digest=spec.digest,
            label=describe(spec),
            attempts=given_up[spec.digest],
            error=errors.get(spec.digest, "unknown failure"),
        )
        for spec in distinct
        if spec.digest in given_up
    }
    if quarantined and metrics is not None:
        metrics.counter("executor.quarantined").inc(len(quarantined))
    return outcomes, quarantined


def _round(
    pending: list[RunSpec],
    attempt: int,
    jobs: int,
    policy: RetryPolicy,
    outcomes: dict[str, RunOutcome],
    errors: dict[str, str],
    on_complete: Callable[[RunSpec, RunOutcome, int], None] | None,
    metrics: MetricsRegistry | None,
) -> list[tuple[RunSpec, bool]]:
    """One retry round: in this process when ``jobs`` is 1 or a single
    spec is left, otherwise on the persistent pool.

    Tasks are keyed by spec digest, so a worker's beacon names the spec
    it is running.  A timed-out spec fails as ``timed out after Ns``
    and the pool kills and respawns exactly the wedged worker; a worker
    that dies mid-run (chaos ``die``) fails only its own spec.
    ``on_complete`` fires the moment each spec settles, preserving the
    checkpoint seam.  Returns each failed spec with whether a retry
    could clear its failure.
    """
    if metrics is not None:
        metrics.counter("executor.attempts").inc(len(pending))
    by_key = {spec.digest: spec for spec in pending}

    def on_result(key: object, value: object, _span: float) -> None:
        if isinstance(value, WorkerFailure):
            return
        spec = by_key[key]
        outcomes[spec.digest] = value
        if on_complete is not None:
            on_complete(spec, value, attempt)

    tasks = [
        (spec.digest, _execute_spec_attempt, (spec, attempt))
        for spec in pending
    ]
    if jobs == 1 or len(pending) == 1:
        results = map_inline(tasks, on_result=on_result)
    else:
        results = get_pool(jobs).map_specs(
            tasks, timeout=policy.timeout, on_result=on_result
        )
    failed: list[tuple[RunSpec, bool]] = []
    for spec in pending:
        value = results[spec.digest]
        if isinstance(value, WorkerFailure):
            if value.timed_out:
                errors[spec.digest] = (
                    f"timed out after {policy.timeout:g}s"
                )
            else:
                errors[spec.digest] = value.describe()
            failed.append((spec, not is_deterministic(value.error)))
    return failed


class CampaignJournal:
    """Append-only JSONL record of campaign completions (crash-safe).

    Each line is one self-contained record —
    ``{"status": "done"|"quarantined"|"cleared", "digest": ..., ...}``
    — flushed and fsynced as it is written, so a crash can tear at most
    the final line; :meth:`_load` skips unparseable lines silently.
    Later records win: a ``done`` clears an earlier ``quarantined`` for
    the same digest and vice versa, and ``cleared`` lifts a quarantine.
    Records carry no wall-clock values, keeping journals diffable.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        #: digest -> the journal record that marked it completed
        self.completed: dict[str, dict] = {}
        #: digest -> the journal record that quarantined it
        self.quarantined: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-append
            if not isinstance(record, dict):
                continue
            digest = record.get("digest")
            status = record.get("status")
            if not digest:
                continue
            if status == "done":
                self.completed[digest] = record
                self.quarantined.pop(digest, None)
            elif status == "quarantined":
                self.quarantined[digest] = record
                self.completed.pop(digest, None)
            elif status == "cleared":
                self.quarantined.pop(digest, None)

    def _append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(
                json.dumps(record, separators=(",", ":")) + "\n"
            )
            handle.flush()
            os.fsync(handle.fileno())

    def record_done(
        self, digest: str, bench: str, config: str, attempts: int = 1
    ) -> None:
        """Mark one spec's run as completed and cached."""
        record = {
            "status": "done", "digest": digest,
            "bench": bench, "config": config, "attempts": attempts,
        }
        self._append(record)
        self.completed[digest] = record
        self.quarantined.pop(digest, None)

    def record_quarantined(
        self, digest: str, bench: str, config: str,
        attempts: int, error: str, label: str | None = None,
    ) -> None:
        """Mark one spec as given up on (until cleared).

        ``label`` is the run's full identity (``RunSpec.describe()``,
        fault plan included); :meth:`label_of` reads it back.
        """
        record = {
            "status": "quarantined", "digest": digest,
            "bench": bench, "config": config,
            "attempts": attempts, "error": error,
        }
        if label is not None:
            record["label"] = label
        self._append(record)
        self.quarantined[digest] = record
        self.completed.pop(digest, None)

    @staticmethod
    def label_of(record: dict) -> str:
        """A quarantine record's run label: the one it was recorded
        with, else ``(bench, config)`` (records written before labels
        were)."""
        label = record.get("label")
        if label:
            return str(label)
        return f"({record.get('bench', '?')}, {record.get('config', '?')})"

    def record_cleared(self, digest: str) -> None:
        """Lift a quarantine, making the spec runnable again."""
        self._append({"status": "cleared", "digest": digest})
        self.quarantined.pop(digest, None)

"""Parallel fan-out of independent simulation runs.

The campaign's run matrix is embarrassingly parallel: every run is a
self-contained :class:`~repro.runspec.RunSpec` — it builds its own
chip, seeds its own RNG streams, and shares no mutable state with its
neighbours.  :func:`fan_out` distributes such runs across the
persistent worker pool of :mod:`repro.experiments.workerpool`; with
``jobs=1`` it degrades to a plain in-process loop with the same
result contract (determinism holds because each run's results depend
only on its picklable arguments, never on scheduling order).

:func:`run_specs` is the one spec-in/outcome-out fan-out every
experiment driver uses.

The worker count comes from, in priority order: an explicit ``jobs``
argument (the CLI's ``--jobs``), the ``REPRO_JOBS`` environment
variable, and finally the number of CPUs this process may actually be
scheduled on (``os.sched_getaffinity``, so container/cgroup CPU masks
are honoured), falling back to ``os.cpu_count()`` where affinity is
unsupported.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from ..errors import ConfigError, ExperimentError
from ..obs import (
    SECONDS_BUCKETS,
    SPAN_SECONDS_BUCKETS,
    JSONLSink,
    MetricsRegistry,
    Tracer,
)
from ..runspec import RunOutcome, RunSpec, execute_run
from .workerpool import WorkerFailure, get_pool, map_inline

T = TypeVar("T")
R = TypeVar("R")

#: When set, every executed spec writes its decision trace as
#: ``trace_<victim>__<config>.jsonl`` under this directory (the CLI's
#: ``--trace`` flag sets it; worker processes inherit it via fork).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


def resolve_jobs(jobs: int | None = None, source: str = "jobs") -> int:
    """Normalise a worker count, consulting ``REPRO_JOBS`` when unset.

    Rejects non-integer and non-positive counts with a
    :class:`ConfigError` that names where the bad value came from —
    ``source`` (the CLI passes ``"--jobs"``) for an explicit argument,
    ``REPRO_JOBS`` for the environment variable.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is None:
            try:
                # The schedulable-CPU count: inside a container or
                # taskset mask this is the real parallelism available,
                # which os.cpu_count() (all system CPUs) overstates.
                return len(os.sched_getaffinity(0))
            except (AttributeError, OSError):
                return os.cpu_count() or 1
        source = "REPRO_JOBS"
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(
            f"{source} must be an integer, got {jobs!r}"
        )
    if jobs < 1:
        raise ConfigError(f"{source} must be >= 1, got {jobs}")
    return jobs


def fan_out(
    worker: Callable[[T], R],
    tasks: Sequence[T],
    jobs: int | None = None,
    describe: Callable[[T], str] = repr,
    metrics: MetricsRegistry | None = None,
) -> list[R]:
    """Run ``worker`` over ``tasks``, results in task order.

    ``worker`` must be a module-level callable and every task and
    result picklable: with ``jobs > 1`` and at least two tasks, the
    batch runs on the persistent worker pool (:func:`get_pool`), and
    otherwise in this process (:func:`map_inline`).  Either way a
    failing task does not abort its siblings: every task runs to
    completion or failure, then one :class:`ExperimentError` reports
    *which* tasks failed, via ``describe``.

    ``metrics``, when given, receives per-job spans: the
    ``executor.job_seconds`` histogram (dispatch-to-result for pool
    jobs — the pool dispatches a task only to an idle worker, so no
    queueing time is included), plus ``executor.tasks`` /
    ``executor.failures`` counters and the batch's total wall time.
    Pool jobs also feed ``profile.worker_dispatch_seconds``.
    """
    jobs = resolve_jobs(jobs)
    pooled = jobs > 1 and len(tasks) > 1
    batch_started = time.perf_counter()
    if metrics is not None:
        metrics.counter("executor.tasks").inc(len(tasks))
        span = metrics.histogram(
            "executor.job_seconds", buckets=SECONDS_BUCKETS
        )

    def on_result(_key: object, _value: object, seconds: float) -> None:
        if metrics is None:
            return
        span.observe(seconds)
        if pooled:
            # Dispatch-to-result wall clock of one pool task: the
            # worker-side leg of the span-profiling story (the engine
            # and kernel legs travel back on run telemetry).
            metrics.histogram(
                "profile.worker_dispatch_seconds",
                buckets=SPAN_SECONDS_BUCKETS,
            ).observe(seconds)

    keyed = [(index, worker, task) for index, task in enumerate(tasks)]
    if pooled:
        settled = get_pool(jobs).map_specs(keyed, on_result=on_result)
    else:
        settled = map_inline(keyed, on_result=on_result)
    out = [settled[index] for index in range(len(tasks))]
    failures = [
        f"{describe(task)}: {value.describe()}"
        for task, value in zip(tasks, out)
        if isinstance(value, WorkerFailure)
    ]
    if metrics is not None:
        metrics.counter("executor.failures").inc(len(failures))
        metrics.gauge("executor.batch_seconds").set(
            time.perf_counter() - batch_started
        )
    if failures:
        raise ExperimentError(
            f"{len(failures)} of {len(tasks)} runs failed — "
            + "; ".join(failures)
        )
    return out


def _spec_tracer(spec: RunSpec) -> Tracer | None:
    """Build the per-run JSONL tracer when ``REPRO_TRACE_DIR`` is set."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    safe = spec.victim.replace(".", "_")
    path = Path(trace_dir) / f"trace_{safe}__{spec.config_tag}.jsonl"
    return Tracer([JSONLSink(path)])


def _execute_spec(spec: RunSpec) -> RunOutcome:
    """The executor's unit of work: one spec, on its named backend.

    Module-level and driven only by its picklable argument, as the
    worker pool requires.  Attaches the environment-configured tracer
    (if any) so traced campaigns behave identically serial or parallel.
    """
    tracer = _spec_tracer(spec)
    try:
        return execute_run(spec, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()


def run_specs(
    specs: Iterable[RunSpec],
    jobs: int | None = None,
    metrics: MetricsRegistry | None = None,
    describe: Callable[[RunSpec], str] | None = None,
) -> list[RunOutcome]:
    """Execute every spec on its named backend, fanned across processes.

    Outcomes come back in ``specs`` order.  Failures are reported with
    ``describe`` (defaulting to :meth:`RunSpec.describe`, e.g.
    ``(429.mcf, rule)``) and never abort sibling runs.  This is
    :func:`fan_out` of :func:`_execute_spec`.
    """
    return fan_out(
        _execute_spec,
        list(specs),
        jobs=jobs,
        describe=describe or RunSpec.describe,
        metrics=metrics,
    )

"""Parallel fan-out of independent simulation runs.

The campaign's run matrix is embarrassingly parallel: every run is a
self-contained :class:`~repro.runspec.RunSpec` — it builds its own
chip, seeds its own RNG streams, and shares no mutable state with its
neighbours.  :func:`fan_out` distributes such runs across the
persistent worker pool of :mod:`repro.experiments.workerpool`; with
``jobs=1`` it degrades to a plain in-process loop with the same
result contract (determinism holds because each run's results depend
only on its picklable arguments, never on scheduling order).

Experiment drivers read runs through the campaign store
(:meth:`repro.experiments.campaign.Campaign.outcomes`), which executes
its misses through the resilient executor on the same pool and the
same unit of work, :func:`_execute_spec`; :func:`fan_out` itself serves
the drivers whose workers do more than execute a spec (the traced,
scored runs of the fault sweep and the detector shootout).

The worker count comes from, in priority order: an explicit ``jobs``
argument (the CLI's ``--jobs``), the ``REPRO_JOBS`` environment
variable, and finally the number of CPUs this process may actually be
scheduled on (``os.sched_getaffinity``, so container/cgroup CPU masks
are honoured), falling back to ``os.cpu_count()`` where affinity is
unsupported.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from ..errors import ConfigError, ExperimentError
from ..obs import JSONLSink, Tracer
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
) -> list[R]:
    """Run ``worker`` over ``tasks``, results in task order.

    ``worker`` must be a module-level callable and every task and
    result picklable: with ``jobs > 1`` and at least two tasks, the
    batch runs on the persistent worker pool (:func:`get_pool`), and
    otherwise in this process (:func:`map_inline`).  Either way a
    failing task does not abort its siblings: every task runs to
    completion or failure, then one :class:`ExperimentError` reports
    *which* tasks failed, via ``describe``.
    """
    jobs = resolve_jobs(jobs)
    keyed = [(index, worker, task) for index, task in enumerate(tasks)]
    if jobs > 1 and len(tasks) > 1:
        settled = get_pool(jobs).map_specs(keyed)
    else:
        settled = map_inline(keyed)
    out = [settled[index] for index in range(len(tasks))]
    failures = [
        f"{describe(task)}: {value.describe()}"
        for task, value in zip(tasks, out)
        if isinstance(value, WorkerFailure)
    ]
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

"""The executor's unit of work, and the worker count it runs at.

The campaign's run matrix is embarrassingly parallel: every run is a
self-contained :class:`~repro.runspec.RunSpec` — it builds its own
chip, seeds its own RNG streams, and shares no mutable state with its
neighbours.  Experiment drivers read runs through the campaign store
(:meth:`repro.experiments.campaign.Campaign.outcomes`), which executes
its misses through the resilient executor
(:mod:`repro.experiments.resilience`), on the persistent worker pool of
:mod:`repro.experiments.workerpool` or, with ``jobs=1``, in this
process.  Either way each run is one call of :func:`_execute_spec`,
and determinism holds because a run's results depend only on its
picklable spec, never on scheduling order.

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

from ..errors import ConfigError
from ..obs import JSONLSink, Tracer
from ..runspec import RunOutcome, RunSpec, execute_run

#: When set, every executed spec writes its decision trace as
#: ``trace_<victim>__<config>__<digest prefix>.jsonl`` under this
#: directory (the CLI's ``--trace`` flag sets it; pool workers receive
#: it with every task).
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


def _spec_tracer(spec: RunSpec) -> Tracer | None:
    """Build the per-run JSONL tracer when ``REPRO_TRACE_DIR`` is set."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    safe = spec.victim.replace(".", "_")
    # The digest prefix keeps runs sharing a victim and a config tag
    # (an ablation's rows, a sweep's intensities) in files of their own.
    name = f"trace_{safe}__{spec.config_tag}__{spec.digest[:12]}.jsonl"
    return Tracer([JSONLSink(Path(trace_dir) / name)])


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

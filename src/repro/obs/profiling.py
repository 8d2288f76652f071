"""Wall-clock span profiling — metrics-only, outside the trace contract.

Trace events must never carry wall-clock values (the determinism
contract in :mod:`repro.obs.events`); profiling spans do nothing *but*
carry wall-clock, so they live entirely in the metrics registry, whose
snapshots admit host-time measurements.

The instrumented sites are the hot structural seams of a run:

* ``profile.engine_period_seconds`` — one probe period's execution on
  either backend (:meth:`repro.sim.engine.PeriodEngine._execute_period`,
  timed by ``PeriodEngine._step_period``);
* ``profile.vector_classify_seconds`` / ``profile.vector_commit_seconds``
  — one batch through the stream path
  (:meth:`repro.arch.hierarchy.CacheHierarchy.vector_classify` /
  ``vector_commit``).

Sites check a process-global :data:`PROFILER` whose disabled state is
one attribute read — the same price as a disabled tracer — so bare
engine/kernel use (the throughput benchmarks) pays nothing.
:func:`activate_profiling` arms the profiler around one run with that
run's registry; :func:`execute_run` does this for every run, so span
histograms ride back on run telemetry and surface in the campaign
report's profiling section.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .metrics import MetricsRegistry

#: Histogram bounds for span durations, in seconds.  Batches and
#: periods are microsecond-to-millisecond scale.
SPAN_SECONDS_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Every profile-span histogram name starts with this.
PROFILE_PREFIX = "profile."


class SpanProfiler:
    """The process-global span sink; disabled until activated.

    ``enabled`` is a plain attribute so hot sites pay a single load
    when profiling is off (mirroring :class:`~repro.obs.Tracer`).  One
    run is active per process at a time — worker processes execute
    specs serially — so a single global is race-free.
    """

    __slots__ = ("enabled", "registry", "_cache", "_cache_registry")

    def __init__(self) -> None:
        self.enabled = False
        self.registry: "MetricsRegistry | None" = None
        self._cache: dict[str, object] = {}
        self._cache_registry: "MetricsRegistry | None" = None

    def observe(self, name: str, seconds: float) -> None:
        """Record one span into the active registry (no-op when off).

        Resolved :class:`~repro.obs.metrics.Histogram` instruments are
        cached per registry, so the per-span cost is two dict hits and
        the observe itself — the get-or-create walk happens once per
        span name per run.
        """
        registry = self.registry
        if registry is None:
            return
        if registry is not self._cache_registry:
            self._cache = {}
            self._cache_registry = registry
        histogram = self._cache.get(name)
        if histogram is None:
            histogram = registry.histogram(
                name, buckets=SPAN_SECONDS_BUCKETS
            )
            self._cache[name] = histogram
        histogram.observe(seconds)  # type: ignore[attr-defined]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager timing its body into histogram ``name``."""
        if not self.enabled:
            yield
            return
        started = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - started)


#: The shared profiler every instrumentation site consults.
PROFILER = SpanProfiler()


@contextmanager
def activate_profiling(
    registry: "MetricsRegistry | None",
) -> Iterator[SpanProfiler]:
    """Arm :data:`PROFILER` with ``registry`` for the enclosed run.

    A no-op (profiler stays dormant) when ``registry`` is ``None``;
    always restores the prior state, so nesting and exceptions are
    safe.
    """
    prior = (PROFILER.enabled, PROFILER.registry)
    if registry is not None:
        PROFILER.enabled = True
        PROFILER.registry = registry
    try:
        yield PROFILER
    finally:
        PROFILER.enabled, PROFILER.registry = prior

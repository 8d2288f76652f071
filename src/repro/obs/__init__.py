"""Observability: period-level tracing and a metrics registry.

CAER's argument is about *online* behaviour — per-period PMU samples
driving detector verdicts and throttle directives — so this layer makes
that behaviour inspectable without changing it:

* :mod:`repro.obs.events` — typed, deterministic period-level events
  (PMU samples, detection inputs/verdicts, response directives, phase
  transitions);
* :mod:`repro.obs.tracer` — the :class:`Tracer` fan-out with a free
  disabled default (:data:`NULL_TRACER`), a bounded in-memory
  :class:`RingBufferSink`, and a rotating :class:`JSONLSink`;
* :mod:`repro.obs.metrics` — counters, gauges, and histograms in a
  :class:`MetricsRegistry` whose snapshots ride on run summaries and
  the campaign report;
* :mod:`repro.obs.export` — Prometheus text exposition over those
  snapshots and the opt-in ``/metrics`` HTTP endpoint
  (``REPRO_METRICS_PORT``);
* :mod:`repro.obs.heartbeat` — best-effort progress beacons from
  warm-pool workers and the campaign parent (``REPRO_BEACON_DIR``),
  the substrate of ``repro-caer watch``;
* :mod:`repro.obs.profiling` — wall-clock span histograms
  (metrics-only, explicitly outside the no-wall-clock trace
  contract) around engine periods, vector-kernel batches, and worker
  dispatches.

The contract instrumented code must keep: tracing is *transparent* —
attaching any tracer or registry never changes a run's results (the
trace-transparency property tests enforce this), and a disabled tracer
costs one attribute check per instrumentation site.
"""

from .events import (
    EVENT_KINDS,
    DetectionEvent,
    FaultEvent,
    PhaseEvent,
    PMUSampleEvent,
    ResponseEvent,
    RunSpecEvent,
    TraceEvent,
)
from .export import (
    METRICS_PORT_ENV,
    MetricsExporter,
    exporter_port,
    render_prometheus,
    sanitize_metric_name,
    start_exporter,
)
from .heartbeat import (
    BEACON_DIR_ENV,
    beacon_age,
    beacon_dir,
    beacon_field,
    merge_beacon_metrics,
    read_beacons,
    scan_beacons,
    write_beacon,
)
from .metrics import (
    POW2_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
)
from .profiling import (
    PROFILE_PREFIX,
    PROFILER,
    SPAN_SECONDS_BUCKETS,
    SpanProfiler,
    activate_profiling,
)
from .tracer import (
    NULL_TRACER,
    JSONLSink,
    RingBufferSink,
    Sink,
    Tracer,
    read_jsonl,
)

__all__ = [
    "TraceEvent",
    "PMUSampleEvent",
    "DetectionEvent",
    "ResponseEvent",
    "PhaseEvent",
    "RunSpecEvent",
    "FaultEvent",
    "EVENT_KINDS",
    "Tracer",
    "NULL_TRACER",
    "Sink",
    "RingBufferSink",
    "JSONLSink",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "histogram_quantile",
    "POW2_BUCKETS",
    # live export
    "METRICS_PORT_ENV",
    "MetricsExporter",
    "exporter_port",
    "render_prometheus",
    "sanitize_metric_name",
    "start_exporter",
    # heartbeats
    "BEACON_DIR_ENV",
    "beacon_age",
    "beacon_dir",
    "merge_beacon_metrics",
    "read_beacons",
    "scan_beacons",
    "beacon_field",
    "write_beacon",
    # span profiling
    "PROFILE_PREFIX",
    "PROFILER",
    "SPAN_SECONDS_BUCKETS",
    "SpanProfiler",
    "activate_profiling",
]

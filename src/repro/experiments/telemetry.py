"""Telemetry drivers behind ``repro-caer trace``/``stats``/``timeline``.

``trace`` is the single-run microscope: simulate one (benchmark,
configuration) pair with a JSONL sink attached and report what the
decision trace contains.  ``stats`` is the campaign-level view: walk
the cached run outcomes for the current settings and aggregate their
telemetry snapshots without simulating anything — as a table, as JSON,
or as the same Prometheus exposition the live endpoint serves.
``timeline`` replays a JSONL trace as a per-period detect→respond
narrative with event-kind and period-range filters.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from ..errors import ExperimentError
from ..obs import (
    EVENT_KINDS,
    JSONLSink,
    MetricsRegistry,
    Tracer,
    render_prometheus,
)
from ..runspec import execute
from ..workloads import benchmark_names
from .campaign import (
    CONFIGS,
    Campaign,
    CampaignSettings,
    derive_telemetry,
)

#: The configs ``stats`` enumerates from the cache: solo plus the
#: paper's co-location matrix.  (``trace`` additionally accepts any
#: registered detector name — see
#: :func:`repro.runspec.resolve_caer_config`.)
TRACE_CONFIGS = ("solo",) + CONFIGS

#: Output formats ``stats`` can render.
STATS_FORMATS = ("table", "json", "prometheus")


def trace_run(
    settings: CampaignSettings,
    bench: str,
    config: str,
    output: str | Path,
) -> dict:
    """Execute one run with a JSONL decision trace attached.

    The run is described as a :class:`~repro.runspec.RunSpec` and
    executed through the settings' backend, so the trace opens with a
    ``run_spec`` event carrying the spec's digest — the same digest the
    campaign cache and run telemetry use.  Returns a plain-dict report:
    the trace path, the spec identity, the run's period count, per-kind
    event counts, and the derived telemetry scalars.  Raises
    :class:`ExperimentError` (or
    :class:`~repro.errors.UnknownBenchmarkError` from the workload
    registry) for unknown names — the CLI turns those into one-line
    messages.
    """
    # Config validation happens inside the spec build:
    # resolve_caer_config accepts the paper tags plus any registered
    # detector name and raises listing every choice otherwise.
    spec = settings.run_spec(bench, config)
    output = Path(output)
    metrics = MetricsRegistry()
    with Tracer([JSONLSink(output)]) as tracer:
        result = execute(spec, tracer=tracer, metrics=metrics)
        counts = dict(tracer.counts)
    return {
        "bench": bench,
        "config": config,
        "digest": spec.digest,
        "backend": spec.backend,
        "path": str(output),
        "periods": result.total_periods,
        "events": counts,
        "total_events": sum(counts.values()),
        "telemetry": derive_telemetry(metrics)["derived"],
    }


def render_trace_report(report: dict) -> str:
    """Human-readable summary of a :func:`trace_run` report."""
    out = io.StringIO()
    out.write(
        f"trace of {report['bench']} under {report['config']}: "
        f"{report['total_events']} events over "
        f"{report['periods']} periods -> {report['path']}\n"
    )
    if report.get("digest"):
        out.write(
            f"  spec {report['digest'][:12]} "
            f"(backend {report.get('backend', 'sim')})\n"
        )
    for kind in sorted(report["events"]):
        out.write(f"  {kind:<12} {report['events'][kind]:>8}\n")
    derived = report["telemetry"]
    if derived.get("verdicts"):
        out.write(
            f"  verdicts: {derived['verdicts']:.0f}, trigger rate "
            f"{derived['detector_trigger_rate']:.0%}, batch ran "
            f"{derived['batch_run_fraction']:.0%} of periods\n"
        )
    return out.getvalue()


def _path_totals(summaries: list) -> dict[str, int]:
    """Summed path-coverage counters of cached sim runs.

    The engine folds each core's ``sim.path.*`` (accesses served per
    path) and ``sim.vector.*`` (classify declines, backoff skips)
    counts into the run's metrics; statistical runs carry none.
    """
    totals: dict[str, int] = {}
    for summary in summaries:
        metrics = (summary.telemetry or {}).get("metrics", {})
        for name, entry in metrics.items():
            if name.startswith(("sim.path.", "sim.vector.")):
                key = name[len("sim."):]
                totals[key] = totals.get(key, 0) + int(entry["value"])
    return dict(sorted(totals.items()))


def campaign_stats_data(campaign: Campaign) -> dict:
    """Structured cached-telemetry summary for the campaign's settings.

    Reads only the memory/disk cache — nothing is simulated — so the
    numbers describe whatever earlier invocations left behind.  The
    dict is the single source every ``stats`` output format renders
    from.
    """
    available: dict[str, list] = {c: [] for c in TRACE_CONFIGS}
    for bench in benchmark_names():
        for config in TRACE_CONFIGS:
            outcome = campaign.cached(campaign.spec_for(bench, config))
            if outcome is not None:
                available[config].append(outcome)
    cached = sum(len(v) for v in available.values())
    total = len(benchmark_names()) * len(TRACE_CONFIGS)
    timed, memoised = campaign.timing_coverage()
    configs = []
    for config in TRACE_CONFIGS:
        summaries = available[config]
        if not summaries:
            continue
        derived = [
            s.telemetry["derived"] for s in summaries
            if s.telemetry is not None
        ]
        caer = [d for d in derived if d.get("verdicts", 0)]
        configs.append({
            "config": config,
            "runs": len(summaries),
            "with_telemetry": len(derived),
            "trigger_rate": (
                sum(d["detector_trigger_rate"] for d in caer) / len(caer)
                if caer else None
            ),
            "batch_run_fraction": (
                sum(d["batch_run_fraction"] for d in caer) / len(caer)
                if caer else None
            ),
            "mean_periods": (
                sum(s.total_periods for s in summaries) / len(summaries)
            ),
            "paths": _path_totals(summaries),
        })
    return {
        "cache_tag": campaign.settings.cache_tag(),
        "cached": cached,
        "total": total,
        "timed_runs": timed,
        "memoised_runs": memoised,
        "wall_seconds": round(campaign.total_wall_seconds(), 3),
        "configs": configs,
    }


def render_stats_table(data: dict) -> str:
    """The classic human-readable ``stats`` table."""
    out = io.StringIO()
    out.write(
        f"campaign {data['cache_tag']}: {data['cached']}/{data['total']} "
        f"runs cached\n"
    )
    if not data["cached"]:
        out.write(
            "no cached runs — run a figure or `repro-caer all` first\n"
        )
        return out.getvalue()
    timed, memoised = data["timed_runs"], data["memoised_runs"]
    if timed:
        out.write(
            f"simulation wall time: "
            f"{data['wall_seconds']:.1f} s over {timed} timed "
            f"runs ({memoised - timed} n/a)\n"
        )
    else:
        out.write(
            f"simulation wall time: n/a (all {memoised} cached entries "
            f"predate timing)\n"
        )
    header = (
        f"{'config':<8} {'runs':>5} {'telemetry':>9} {'trigger':>8} "
        f"{'run-frac':>9} {'mean-periods':>13}"
    )
    out.write(header + "\n")
    for row in data["configs"]:
        trigger = (
            f"{row['trigger_rate']:.0%}"
            if row["trigger_rate"] is not None else "-"
        )
        run_frac = (
            f"{row['batch_run_fraction']:.0%}"
            if row["batch_run_fraction"] is not None else "-"
        )
        out.write(
            f"{row['config']:<8} {row['runs']:>5} "
            f"{row['with_telemetry']:>9} "
            f"{trigger:>8} {run_frac:>9} {row['mean_periods']:>13.1f}\n"
        )
    return out.getvalue()


def campaign_stats(campaign: Campaign, fmt: str = "table") -> str:
    """Render cached campaign telemetry in the requested format.

    ``table`` is the human view; ``json`` dumps
    :func:`campaign_stats_data`; ``prometheus`` renders the campaign's
    merged export snapshot through the same
    :func:`~repro.obs.render_prometheus` the live endpoint serves — so
    ``repro-caer stats --format prometheus`` is a scrape without a
    socket.
    """
    if fmt == "table":
        return render_stats_table(campaign_stats_data(campaign))
    if fmt == "json":
        return json.dumps(campaign_stats_data(campaign), indent=2) + "\n"
    if fmt == "prometheus":
        # Walk the cache first so the export snapshot folds in every
        # cached run's telemetry, not just this invocation's registry.
        campaign_stats_data(campaign)
        return render_prometheus(campaign.export_snapshot())
    raise ExperimentError(
        f"stats format must be one of {', '.join(STATS_FORMATS)}; "
        f"got {fmt!r}"
    )


# -- timeline ----------------------------------------------------------


def _format_timeline_event(record: dict) -> str:
    """One timeline line for one trace-event payload."""
    kind = record.get("kind", "?")
    if kind == "run_spec":
        return (
            f"run_spec   {record.get('victim', '?')} + "
            f"{record.get('contenders', 0)} contenders "
            f"[{record.get('backend', '?')}] "
            f"spec {str(record.get('digest', ''))[:12]}"
        )
    if kind == "pmu_sample":
        return (
            f"pmu        {record.get('process', '?'):<12} "
            f"{record.get('state', '?'):<9} "
            f"misses={record.get('llc_misses', 0)} "
            f"refs={record.get('llc_references', 0)}"
        )
    if kind == "detection":
        verdict = record.get("verdict")
        verdict_text = (
            "-" if verdict is None else ("POSITIVE" if verdict else "negative")
        )
        threshold = record.get("threshold")
        threshold_text = (
            "-" if threshold is None else f"{threshold:.1f}"
        )
        return (
            f"detect     {record.get('detector', '?'):<12} "
            f"{record.get('state', '?'):<11} "
            f"own={record.get('own_misses', 0.0):.1f} "
            f"neigh={record.get('neighbor_misses', 0.0):.1f} "
            f"thr={threshold_text} verdict={verdict_text}"
        )
    if kind == "response":
        quota = record.get("l3_quota")
        directives = [
            f"pause={record.get('pause_batch')}",
            f"speed={record.get('speed', 1.0):g}",
        ]
        if quota is not None:
            directives.append(f"l3_quota={quota:g}")
        if record.get("done"):
            directives.append("done")
        return (
            f"respond    {record.get('response', '?'):<12} "
            + " ".join(directives)
        )
    if kind == "fault":
        return (
            f"fault      {record.get('process', '?'):<12} "
            f"{record.get('fault', '?')} "
            f"magnitude={record.get('magnitude', 0.0):g}"
        )
    if kind == "phase":
        return (
            f"phase      {record.get('scope', '?')}:"
            f"{record.get('subject', '?')} -> {record.get('phase', '?')}"
        )
    return f"{kind:<10} {record!r}"


def render_timeline(
    records: list[dict],
    kinds: tuple[str, ...] | None = None,
    start: int | None = None,
    end: int | None = None,
    limit: int | None = None,
) -> str:
    """Render trace payload dicts as a per-period timeline.

    ``kinds`` keeps only those event kinds (default: everything except
    the high-volume ``pmu_sample``, which you opt into explicitly);
    ``start``/``end`` bound the period range (inclusive); ``limit``
    caps the number of periods printed, reporting how many were
    elided.  Events group under one heading per period, preserving
    file order within the period — the emission order, which for CAER
    periods reads detect → respond.
    """
    if kinds is not None:
        unknown = sorted(set(kinds) - set(EVENT_KINDS))
        if unknown:
            raise ExperimentError(
                f"unknown event kind(s) {', '.join(unknown)} "
                f"(known: {', '.join(EVENT_KINDS)})"
            )
    selected: dict[int, list[dict]] = {}
    total_events = 0
    for record in records:
        kind = record.get("kind")
        if kinds is None:
            if kind == "pmu_sample":
                continue
        elif kind not in kinds:
            continue
        period = record.get("period")
        if not isinstance(period, int):
            continue
        if start is not None and period < start:
            continue
        if end is not None and period > end:
            continue
        selected.setdefault(period, []).append(record)
        total_events += 1
    out = io.StringIO()
    if not selected:
        out.write("no events match the filters\n")
        return out.getvalue()
    periods = sorted(selected)
    shown = periods if limit is None else periods[:limit]
    out.write(
        f"{total_events} events over {len(periods)} periods "
        f"(periods {periods[0]}..{periods[-1]})\n"
    )
    for period in shown:
        out.write(f"period {period}\n")
        for record in selected[period]:
            out.write(f"  {_format_timeline_event(record)}\n")
    if len(shown) < len(periods):
        out.write(
            f"... {len(periods) - len(shown)} more periods elided "
            f"(--limit {len(shown)})\n"
        )
    return out.getvalue()

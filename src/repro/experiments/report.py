"""One-shot markdown report generation.

``repro-caer report`` renders every figure, the headline numbers, and
the paper-vs-measured comparison into a single self-contained markdown
document — the generated counterpart of the hand-written
EXPERIMENTS.md, with whatever run length and seed the campaign used.

The report degrades instead of dying: a section whose runs are
quarantined (or otherwise unrenderable) is replaced by an inline note,
and every quarantined run is listed in its own section — a partially
failing campaign still yields a report covering everything that worked.
"""

from __future__ import annotations

import io
import time
from pathlib import Path

from ..errors import ReproError
from ..obs import PROFILE_PREFIX, histogram_quantile, merge_snapshots
from . import paperdata
from .campaign import CACHE_EPOCH, Campaign
from .figures import (
    figure1,
    figure2,
    figure3,
    figure3_correlations,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from .headline import headline_numbers
from .fleetchaos import chaos_frontier
from .shootout import detector_shootout


def _code_block(text: str) -> str:
    return f"```\n{text.rstrip()}\n```\n"


def _render_section(render) -> str:
    """Render one section's body, degrading a failure to a note.

    Any :class:`ReproError` — typically an
    :class:`~repro.errors.ExperimentError` from a quarantined run —
    becomes an italic "unavailable" note instead of aborting the whole
    report.
    """
    try:
        return render()
    except ReproError as exc:
        return f"_unavailable: {exc}_\n"


def generate_report(campaign: Campaign) -> str:
    """Render the full evaluation as a markdown document."""
    settings = campaign.settings
    started = time.perf_counter()
    out = io.StringIO()
    out.write("# CAER reproduction report\n\n")
    out.write(
        f"Machine: scaled Nehalem (cache scale "
        f"{settings.cache_scale}, period {settings.period_cycles} "
        f"cycles); run length {settings.length}; seed "
        f"{settings.seed}.\n\n"
    )
    out.write(f"Paper machine: {paperdata.PAPER_MACHINE}.\n\n")

    out.write("## Headline numbers\n\n")
    out.write(
        _render_section(
            lambda: _code_block(headline_numbers(campaign).render())
        )
    )
    out.write("\n")

    sections = [
        ("Figure 1 — slowdown next to lbm", figure1),
        ("Figure 2 — LLC misses alone vs. with contender", figure2),
        ("Figure 6 — penalty under each configuration", figure6),
        ("Figure 7 — utilization gained", figure7),
        ("Figure 8 — interference eliminated", figure8),
        ("Figure 9 — accuracy vs. random (most sensitive)", figure9),
        ("Figure 10 — accuracy vs. random (least sensitive)", figure10),
    ]
    for title, driver in sections:
        out.write(f"## {title}\n\n")
        out.write(
            _render_section(
                lambda driver=driver: _code_block(
                    driver(campaign).render()
                )
            )
        )
        out.write("\n")

    out.write("## Figure 3 — time series\n\n")
    out.write(_render_section(lambda: _figure3_section(campaign)))

    out.write("## Detector shootout\n\n")
    out.write(
        _render_section(
            lambda: _code_block(
                detector_shootout(campaign).render()
            )
        )
    )
    out.write("\n")

    out.write("## Chaos frontier — fleet layer\n\n")
    out.write(_render_section(lambda: _fleet_section(campaign)))
    out.write("\n")

    elapsed = time.perf_counter() - started
    out.write("## Campaign timing\n\n")
    out.write(_timing_section(campaign, elapsed))
    out.write(_telemetry_section(campaign))
    out.write(_profiling_section(campaign))
    out.write(_quarantine_section(campaign))
    return out.getvalue()


def _fleet_section(campaign: Campaign) -> str:
    """Chaos frontier of the fleet layer, sized for a report run.

    A single fault seed per intensity keeps the section cheap; the
    standalone ``repro-caer fleet`` sweep averages over repeats.
    """
    table = chaos_frontier(campaign, repeats=1)
    out = io.StringIO()
    out.write(
        "Simulated fleet of nodes running the campaign's calibrated "
        "solo/colocated profiles under seed-driven node faults "
        "(crash, telemetry blackout, straggler). Placement is "
        "journal-backed, so jobs are never lost; the frontier shows "
        "LS SLO attainment and batch throughput degrading with fault "
        "intensity.\n\n"
    )
    out.write(_code_block(table.render()))
    return out.getvalue()


def _figure3_section(campaign: Campaign) -> str:
    out = io.StringIO()
    for chart in figure3(campaign).values():
        out.write(_code_block(chart))
        out.write("\n")
    out.write(_code_block(figure3_correlations(campaign).render()))
    return out.getvalue()


def _quarantine_section(campaign: Campaign) -> str:
    """List every run the campaign gave up on, with its last error."""
    records = campaign.quarantine_report()
    if not records:
        return ""
    out = io.StringIO()
    out.write("\n## Quarantine\n\n")
    out.write(
        f"{len(records)} run(s) failed every retry and were "
        f"quarantined; sections depending on them are marked "
        f"unavailable. Clear with `Campaign.clear_quarantine()` or "
        f"rerun with `REPRO_RETRY_QUARANTINED=1`.\n\n"
    )
    for record in records:
        out.write(
            f"- {record.label} — {record.attempts} attempts; last "
            f"error: {record.error}\n"
        )
    return out.getvalue()


def _timing_section(campaign: Campaign, elapsed: float) -> str:
    """Render wall-time totals, honest about untimed cache entries.

    Cached summaries written before run timing existed deserialise
    with ``wall_seconds == 0.0``; summing those silently reports an
    impossible 0.0 s, so untimed entries are called out as "n/a".
    """
    timed, total = campaign.timing_coverage()
    epoch_note = (
        f"Untimed entries were cached by an older build (cache epoch "
        f"{CACHE_EPOCH} is unchanged by timing); re-run with "
        f"`--no-cache` or a fresh `REPRO_CACHE_DIR` to re-measure.\n"
    )
    if total and timed == 0:
        return (
            f"Simulated-run wall time: n/a — none of the {total} "
            f"cached runs carry timing. {epoch_note}"
            f"Report generation took {elapsed:.1f} s.\n"
        )
    sim_seconds = campaign.total_wall_seconds()
    text = (
        f"Simulated-run wall time: {sim_seconds:.1f} s across "
        f"{timed} timed runs (cached runs count 0); "
        f"report generation took {elapsed:.1f} s.\n"
    )
    if timed < total:
        text += (
            f"{total - timed} of {total} runs have no timing (n/a). "
            + epoch_note
        )
    return text


def _telemetry_section(campaign: Campaign) -> str:
    """Summarise the runs' telemetry snapshots, when any carry one."""
    snapshots = campaign.telemetry_snapshots()
    if not snapshots:
        return ""
    derived = [s.get("derived", {}) for s in snapshots]
    caer = [d for d in derived if d.get("verdicts", 0)]
    out = io.StringIO()
    out.write("\n## Telemetry\n\n")
    out.write(
        f"{len(snapshots)} of {campaign.memoised_runs()} memoised "
        f"runs carry telemetry"
    )
    if caer:
        trigger = sum(d["detector_trigger_rate"] for d in caer) / len(caer)
        run_frac = sum(d["batch_run_fraction"] for d in caer) / len(caer)
        out.write(
            f"; across the {len(caer)} CAER-governed runs the mean "
            f"detector trigger rate is {trigger:.0%} and the batch ran "
            f"{run_frac:.0%} of governed periods"
        )
    out.write(".\n")
    cache = campaign.metrics.snapshot()
    hits = sum(
        cache.get(name, {}).get("value", 0.0)
        for name in (
            "campaign.cache_memory_hits", "campaign.cache_disk_hits",
        )
    )
    misses = cache.get("campaign.cache_misses", {}).get("value", 0.0)
    if hits or misses:
        out.write(
            f"Campaign cache: {hits:.0f} hits, {misses:.0f} misses "
            f"this invocation.\n"
        )
    return out.getvalue()


def _profiling_section(campaign: Campaign) -> str:
    """Wall-clock span profile merged across every run's telemetry.

    Spans are metrics, not trace events, so they carry real seconds;
    the section renders the merged histograms (engine periods, vector
    classify/commit) with bucket-resolution quantiles.
    Absent when no cached run carries telemetry (entries cached before
    the observability layer existed).
    """
    merged = merge_snapshots(
        s.get("metrics", {}) for s in campaign.telemetry_snapshots()
    )
    merged = merge_snapshots([merged, campaign.metrics.snapshot()])
    spans = {
        name: data
        for name, data in sorted(merged.items())
        if name.startswith(PROFILE_PREFIX)
        and data.get("type") == "histogram"
        and data.get("count", 0)
    }
    if not spans:
        return ""
    table = io.StringIO()
    table.write(
        f"{'span':<36} {'count':>8} {'mean':>10} {'p50':>10} "
        f"{'p95':>10} {'max':>10}\n"
    )
    for name, data in spans.items():
        count = data["count"]
        mean = data["sum"] / count
        p50 = histogram_quantile(data, 0.50)
        p95 = histogram_quantile(data, 0.95)
        peak = data.get("max") or 0.0
        table.write(
            f"{name:<36} {count:>8} {_seconds(mean):>10} "
            f"{_seconds(p50):>10} {_seconds(p95):>10} "
            f"{_seconds(peak):>10}\n"
        )
    return (
        "\n## Span profile\n\n"
        "Wall-clock histograms from the profiling layer (metrics-only "
        "— traces stay clock-free). Quantiles are bucket upper "
        "bounds.\n\n" + _code_block(table.getvalue())
    )


def _seconds(value: float | None) -> str:
    """Human-scale seconds: µs/ms/s as magnitude warrants."""
    if value is None:
        return "n/a"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.2f}s"


def write_report(
    campaign: Campaign, path: str | Path = "results/report.md"
) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(campaign))
    return path

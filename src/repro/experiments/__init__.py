"""Experiment harness: campaigns, figures, ablations, reporting.

Each of the paper's evaluation artefacts (Figures 1-3 and 6-10, plus
the headline numbers quoted in §1/§6) has a driver in
:mod:`repro.experiments.figures`; shared simulation runs are produced
and memoised by :class:`repro.experiments.campaign.Campaign` so that,
e.g., Figures 6, 7, and 8 — which analyse the same runs three ways —
only simulate once.  Every other driver reads its runs through the same
store (:meth:`~repro.experiments.campaign.Campaign.outcomes`), so
overlapping drivers share runs too.
"""

from .ablations import ABLATIONS, AblationRunner, run_ablation
from .crossval import analytic_figure1, backend_crossval, rank_correlation
from .campaign import Campaign, CampaignSettings, audit_cache_key
from .executor import resolve_jobs
from .faults import fault_sweep
from .fleetchaos import chaos_frontier
from .resilience import (
    CampaignJournal,
    QuarantineRecord,
    RetryPolicy,
    run_specs_resilient,
)
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
from .headline import HeadlineNumbers, headline_numbers
from .contenders import contender_study
from .repeatability import repeatability_study
from .report import generate_report, write_report
from .scaling import scaling_study
from .shootout import detector_shootout, shootout_config
from .reporting import FigureTable, render_series
from .telemetry import (
    STATS_FORMATS,
    campaign_stats,
    campaign_stats_data,
    render_timeline,
    trace_run,
)
from .watch import collect_status, render_watch, watch_loop, watch_once

__all__ = [
    "Campaign",
    "CampaignSettings",
    "audit_cache_key",
    "resolve_jobs",
    "run_specs_resilient",
    "RetryPolicy",
    "QuarantineRecord",
    "CampaignJournal",
    "fault_sweep",
    "chaos_frontier",
    "detector_shootout",
    "shootout_config",
    "FigureTable",
    "render_series",
    "figure1",
    "figure2",
    "figure3",
    "figure3_correlations",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "HeadlineNumbers",
    "headline_numbers",
    "ABLATIONS",
    "AblationRunner",
    "run_ablation",
    "analytic_figure1",
    "backend_crossval",
    "rank_correlation",
    "scaling_study",
    "generate_report",
    "write_report",
    "contender_study",
    "repeatability_study",
    "trace_run",
    "campaign_stats",
    "campaign_stats_data",
    "STATS_FORMATS",
    "render_timeline",
    "collect_status",
    "render_watch",
    "watch_once",
    "watch_loop",
]

"""Extension experiment: scaling to multiple batch neighbours.

The paper's prototype hosts one batch application, but its architecture
(Figure 4, left) is drawn for a quad core with several applications and
batch layers that "must react together".  This experiment realises that
vision: one latency-sensitive victim against 0..3 relaunching lbm
instances, comparing raw co-location to CAER on every count.

Expected shape: the raw penalty grows with every added contender (more
L3 pressure, more memory-bandwidth load), while CAER holds the penalty
roughly flat by throttling the whole batch group — at a utilization
cost that grows with the group size.
"""

from __future__ import annotations

from ..caer.runtime import CaerConfig
from ..runspec import BATCH_BENCHMARK, ContenderSpec, RunSpec
from .campaign import Campaign, CampaignSettings
from .reporting import FigureTable

#: Default victim of the scaling study.
DEFAULT_VICTIM = "429.mcf"


def scaling_spec(
    settings: CampaignSettings,
    victim: str,
    k: int,
    caer: CaerConfig | None = None,
) -> RunSpec:
    """The spec of ``victim`` against ``k`` lbm contenders."""
    return RunSpec(
        victim=victim,
        contenders=(ContenderSpec(BATCH_BENCHMARK),) * k,
        machine=settings.machine(),
        caer=caer,
        seed=settings.seed,
        length=settings.length,
        slices_per_period=settings.slices_per_period,
        backend=settings.backend,
    )


def scaling_study(
    campaign: Campaign | None = None,
    victim: str = DEFAULT_VICTIM,
    max_batch: int = 3,
) -> FigureTable:
    """Penalty and utilization vs. number of batch contenders.

    The whole matrix — the solo baseline plus a raw and a rule-based
    CAER run per contender count — is declared as specs up front and
    read through the campaign's store in one batch.
    """
    campaign = campaign or Campaign()
    settings = campaign.settings
    caer = CaerConfig.rule_based()

    specs = [scaling_spec(settings, victim, 0)]
    for k in range(1, max_batch + 1):
        specs.append(scaling_spec(settings, victim, k))
        specs.append(scaling_spec(settings, victim, k, caer))
    outcomes = campaign.outcomes(specs)
    solo_periods = outcomes[0].completion_periods

    rows = [f"{k} batch" for k in range(1, max_batch + 1)]
    table = FigureTable(
        title=f"Scaling study: {victim} vs. 1..{max_batch} lbm "
              "contenders",
        row_names=rows,
    )
    columns: dict[str, list[float]] = {
        "raw_penalty": [],
        "caer_penalty": [],
        "caer_util": [],
    }
    for k in range(1, max_batch + 1):
        raw = outcomes[2 * k - 1]
        managed = outcomes[2 * k]
        columns["raw_penalty"].append(
            raw.completion_periods / solo_periods - 1.0
        )
        columns["caer_penalty"].append(
            managed.completion_periods / solo_periods - 1.0
        )
        columns["caer_util"].append(managed.utilization_gained)
    for name, values in columns.items():
        table.add_column(name, values)
    table.notes.append(
        "extension beyond the paper's 2-app prototype (its Figure 4 "
        "architecture); CAER should hold the penalty roughly flat"
    )
    return table

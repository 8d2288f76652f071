"""§6.1's alternative-contender claim.

"We have performed complete runs using other benchmarks such as
libquantum and milc and produced very similar results"; light
adversaries are "more trivial scenarios".  This bench runs a victim
panel against all three heavy contenders plus a light control and
checks both halves.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.contenders import (
    contender_study,
    heavy_contender_agreement,
)


def bench_contenders(benchmark):
    settings = CampaignSettings.from_env()
    short = CampaignSettings(
        length=min(settings.length, 0.08), seed=settings.seed
    )
    table = benchmark.pedantic(
        contender_study, args=(Campaign(short),), rounds=1, iterations=1
    )
    emit(table.render())

    rows = dict(zip(table.row_names, table.column("raw_penalty")))
    managed = dict(zip(table.row_names, table.column("caer_penalty")))

    # Heavy contenders hurt the sensitive victim substantially and
    # agree with each other within a reasonable band.
    for contender in ("470.lbm", "462.libquantum", "433.milc"):
        assert rows[f"429.mcf vs {contender}"] > 0.15
    assert heavy_contender_agreement(table) < 0.25

    # The light adversary is a trivial scenario: little to manage.
    for victim in ("429.mcf", "483.xalancbmk", "473.astar"):
        assert rows[f"{victim} vs 444.namd"] < 0.10

    # CAER removes most of the heavy penalty for every pair where
    # there was a substantial penalty to remove.
    for row, raw_penalty in rows.items():
        if raw_penalty > 0.15:
            assert managed[row] < 0.5 * raw_penalty

"""Seed stability of the reproduction's claims.

Re-runs the reference victims under three seeds and asserts the
qualitative story holds in every one: mcf is always heavily penalised
and always protected, namd never is.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.repeatability import repeatability_study


def bench_repeatability(benchmark):
    settings = CampaignSettings.from_env()
    short = CampaignSettings(
        length=min(settings.length, 0.06), seed=settings.seed
    )
    table = benchmark.pedantic(
        repeatability_study, args=(Campaign(short),), rounds=1, iterations=1
    )
    emit(table.render())

    by_name = dict(zip(table.row_names, range(len(table.row_names))))
    mcf, namd = by_name["429.mcf"], by_name["444.namd"]

    # The story is seed-independent: raw penalty band never overlaps.
    assert table.column("raw_mean")[mcf] > 0.2
    assert table.column("raw_mean")[namd] < 0.08
    # CAER protects in every seed (means small, spreads small).
    assert table.column("caer_mean")[mcf] < 0.10
    assert table.column("caer_spread")[mcf] < 0.15
    # The seed-to-seed spread is far smaller than the effect size.
    assert (
        table.column("raw_spread")[mcf]
        < 0.5 * table.column("raw_mean")[mcf]
    )

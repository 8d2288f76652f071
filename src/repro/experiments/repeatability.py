"""Repeatability: the reproduction's own error bars.

The paper reports single runs; a simulator can do better.  This
experiment re-runs the reference victims under fresh seeds (different
pattern RNG streams and interleavings) and reports the spread of the
headline quantities — the reproduction's claims are only as strong as
their stability across seeds.
"""

from __future__ import annotations

import statistics

from ..caer.runtime import CaerConfig
from ..runspec import BATCH_BENCHMARK, ContenderSpec, RunSpec
from .campaign import Campaign
from .reporting import FigureTable

#: Victims re-measured per seed.
VICTIMS = ("429.mcf", "444.namd")


def repeatability_study(
    campaign: Campaign | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    victims: tuple[str, ...] = VICTIMS,
) -> FigureTable:
    """Mean and spread of raw/CAER penalty and utilization over seeds.

    Each (victim, seed) cell is three declarative specs — solo, raw,
    and rule-based CAER, differing only in their ``seed`` field — and
    the whole grid is read through the campaign's store in one batch.
    """
    campaign = campaign or Campaign()
    settings = campaign.settings
    machine = settings.machine()
    caer = CaerConfig.rule_based()

    def spec(victim: str, seed: int, config: CaerConfig | None,
             solo: bool) -> RunSpec:
        return RunSpec(
            victim=victim,
            contenders=(
                () if solo else (ContenderSpec(BATCH_BENCHMARK),)
            ),
            machine=machine,
            caer=config,
            seed=seed,
            length=settings.length,
            slices_per_period=settings.slices_per_period,
            backend=settings.backend,
        )

    cells = [(victim, seed) for victim in victims for seed in seeds]
    specs: list[RunSpec] = []
    for victim, seed in cells:
        specs.append(spec(victim, seed, None, solo=True))
        specs.append(spec(victim, seed, None, solo=False))
        specs.append(spec(victim, seed, caer, solo=False))
    outcomes = campaign.outcomes(specs)
    by_cell = {
        cell: outcomes[3 * i: 3 * i + 3]
        for i, cell in enumerate(cells)
    }

    rows: list[str] = []
    columns: dict[str, list[float]] = {
        "raw_mean": [], "raw_spread": [],
        "caer_mean": [], "caer_spread": [],
        "util_mean": [], "util_spread": [],
    }
    for victim in victims:
        raw_penalties: list[float] = []
        caer_penalties: list[float] = []
        utils: list[float] = []
        for seed in seeds:
            solo, raw, managed = by_cell[(victim, seed)]
            base = solo.completion_periods
            raw_penalties.append(raw.completion_periods / base - 1.0)
            caer_penalties.append(
                managed.completion_periods / base - 1.0
            )
            utils.append(managed.utilization_gained)
        rows.append(victim)
        for key, values in (
            ("raw", raw_penalties),
            ("caer", caer_penalties),
            ("util", utils),
        ):
            columns[f"{key}_mean"].append(statistics.mean(values))
            columns[f"{key}_spread"].append(
                max(values) - min(values)
            )

    table = FigureTable(
        title=f"Repeatability over seeds {seeds}",
        row_names=rows,
    )
    for name, values in columns.items():
        table.add_column(name, values)
    table.notes.append(
        "spread = max - min over seeds; the qualitative story must "
        "not depend on the RNG stream"
    )
    return table

"""Alternative contenders (§6.1).

The paper: "We have performed complete runs using other benchmarks such
as libquantum and milc and produced very similar results.  Note that
adversaries that make light usage of the L3 cache present more trivial
scenarios."  This experiment verifies both halves of that claim on a
representative victim panel: the heavy contenders (lbm, libquantum,
milc) must produce the same qualitative picture — substantial raw
penalty on sensitive victims, CAER removing most of it — while a light
contender (namd) must produce almost no interference for CAER to
manage.
"""

from __future__ import annotations

from ..caer.runtime import CaerConfig
from ..runspec import ContenderSpec, RunSpec
from .campaign import Campaign
from .reporting import FigureTable

#: The paper's heavy contenders, plus one light adversary as control.
CONTENDERS = ("470.lbm", "462.libquantum", "433.milc", "444.namd")

#: Victims spanning the sensitivity range.
VICTIM_PANEL = ("429.mcf", "483.xalancbmk", "473.astar", "444.namd")


def contender_study(
    campaign: Campaign | None = None,
    contenders: tuple[str, ...] = CONTENDERS,
    victims: tuple[str, ...] = VICTIM_PANEL,
    caer: CaerConfig | None = None,
) -> FigureTable:
    """Raw and CAER-managed penalty for every (victim, contender) pair.

    Rows are ``victim vs contender``; the CAER configuration defaults
    to rule-based (the paper's best performer).  Every run — solo
    baselines, raw pairs, managed pairs — is one declarative spec, and
    the whole matrix is read through the campaign's store in one batch.
    """
    campaign = campaign or Campaign()
    settings = campaign.settings
    caer = caer or CaerConfig.rule_based()
    machine = settings.machine()

    def spec(
        victim: str,
        contender: str | None = None,
        config: CaerConfig | None = None,
    ) -> RunSpec:
        return RunSpec(
            victim=victim,
            contenders=(
                (ContenderSpec(contender),) if contender else ()
            ),
            machine=machine,
            caer=config,
            seed=settings.seed,
            length=settings.length,
            slices_per_period=settings.slices_per_period,
            backend=settings.backend,
        )

    pairs = [
        (victim, contender)
        for contender in contenders
        for victim in victims
        if victim != contender
    ]
    rows = [f"{victim} vs {contender}" for victim, contender in pairs]
    # Solo baselines, then the raw and managed runs of every pair,
    # interleaved, in one batch.
    specs = [spec(victim) for victim in victims]
    for victim, contender in pairs:
        specs.append(spec(victim, contender))
        specs.append(spec(victim, contender, caer))
    outcomes = campaign.outcomes(specs)
    solo_periods = dict(
        zip(victims, (o.completion_periods for o in outcomes))
    )
    pair_outcomes = outcomes[len(victims):]

    raw_penalties: list[float] = []
    caer_penalties: list[float] = []
    caer_utils: list[float] = []
    for index, (victim, _contender) in enumerate(pairs):
        raw = pair_outcomes[2 * index]
        managed = pair_outcomes[2 * index + 1]
        base = solo_periods[victim]
        raw_penalties.append(raw.completion_periods / base - 1.0)
        caer_penalties.append(managed.completion_periods / base - 1.0)
        caer_utils.append(managed.utilization_gained)

    table = FigureTable(
        title="Alternative contenders (§6.1): penalty by pair",
        row_names=rows,
    )
    table.add_column("raw_penalty", raw_penalties)
    table.add_column("caer_penalty", caer_penalties)
    table.add_column("caer_util", caer_utils)
    table.notes.append(
        "paper: heavy contenders (lbm/libquantum/milc) give 'very "
        "similar results'; light adversaries are 'more trivial'"
    )
    return table


def heavy_contender_agreement(table: FigureTable) -> float:
    """Max spread of mean raw penalty across the heavy contenders.

    Small spread = the §6.1 "very similar results" claim holds.  Rows
    involving the light control contender are excluded.
    """
    heavy = [c for c in CONTENDERS if c != "444.namd"]
    means: list[float] = []
    for contender in heavy:
        values = [
            penalty
            for row, penalty in zip(
                table.row_names, table.column("raw_penalty")
            )
            if row.endswith(f"vs {contender}")
        ]
        if values:
            means.append(sum(values) / len(values))
    return max(means) - min(means) if means else 0.0

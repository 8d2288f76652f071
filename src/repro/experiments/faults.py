"""Detection robustness under PMU signal faults.

The paper's detectors assume a clean 1 ms Perfmon2 sampling loop (§4);
real PMU paths drop samples, jitter their periods, and mis-count.  This
driver sweeps a :class:`~repro.faults.FaultPlan` intensity over the
CAER configurations and reports how detection accuracy, the victim's
penalty, and batch utilization degrade as the signal path decays.

Every faulted run is read through the campaign's store, so it is
cached, journalled, retried and quarantined like any other run.
Accuracy is scored the §6.4 way, but with the oracle fed *ground
truth* (:func:`~repro.caer.analysis.score_verdict_series`): the
heuristic's verdicts are the per-period assertions the stored
:class:`~repro.runspec.RunOutcome` keeps, made on the fault-perturbed
signal, while the profile oracle reads the victim's physically-true
per-period miss series (the engines always record truth; only the
probing layer is faulted).  At intensity 0 the two views coincide and
the sweep's first row is the clean-signal baseline.
"""

from __future__ import annotations

from ..caer.analysis import score_verdict_series
from ..config import default_usage_threshold
from ..errors import ExperimentError
from ..faults import FaultPlan
from ..runspec import RunOutcome
from .campaign import Campaign
from .reporting import FigureTable

#: Fault intensities swept by default (0 = clean-signal baseline).
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: CAER configurations whose detectors the sweep stresses ("raw" has
#: no detector, so there is nothing to score).
SWEEP_CONFIGS = ("shutter", "rule", "random")


def oracle_accuracy(
    outcome: RunOutcome, baseline_misses: float, noise_floor: float
) -> float:
    """Accuracy of a stored run's verdicts against the profile oracle
    reading the run's true miss series."""
    return score_verdict_series(
        outcome.verdicts,
        outcome.miss_series,
        baseline_misses,
        noise_floor=noise_floor,
    ).report.accuracy


def fault_sweep(
    campaign: Campaign | None = None,
    victim: str = "429.mcf",
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    configs: tuple[str, ...] = SWEEP_CONFIGS,
    fault_seed: int = 0,
) -> FigureTable:
    """Detection accuracy / penalty / utilization vs. fault intensity.

    Rows are fault intensities; per CAER configuration the table
    carries ``<config>_acc`` (oracle-scored detection accuracy),
    ``<config>_pen`` (the victim's penalty vs. solo), and
    ``<config>_util`` (batch utilization gained).  The solo baseline
    and the ``len(intensities) × len(configs)`` faulted runs are read
    through the campaign's store, and each faulted run is scored from
    the verdicts it keeps.
    """
    campaign = campaign or Campaign()
    settings = campaign.settings
    if not intensities:
        raise ExperimentError("fault sweep needs at least one intensity")
    for config in configs:
        if config not in SWEEP_CONFIGS:
            raise ExperimentError(
                f"fault sweep config must be one of {SWEEP_CONFIGS}, "
                f"got {config!r}"
            )
    noise_floor = default_usage_threshold(settings.machine())

    solo = campaign.solo(victim)
    if solo.completion_periods <= 0:
        raise ExperimentError(f"solo run of {victim!r} never completed")
    baseline_misses = solo.ls_total_llc_misses / solo.completion_periods

    runs = campaign.outcomes(
        settings.run_spec(victim, config).with_faults(
            FaultPlan.scaled(intensity, seed=fault_seed)
        )
        for intensity in intensities
        for config in configs
    )

    table = FigureTable(
        title=f"Detection robustness vs. fault intensity ({victim})",
        row_names=[f"i={intensity:g}" for intensity in intensities],
    )
    for offset, config in enumerate(configs):
        rows = runs[offset::len(configs)]
        table.add_column(
            f"{config}_acc",
            [oracle_accuracy(r, baseline_misses, noise_floor) for r in rows],
        )
        table.add_column(
            f"{config}_pen",
            [
                r.completion_periods / solo.completion_periods - 1.0
                for r in rows
            ],
        )
        table.add_column(
            f"{config}_util", [r.utilization_gained for r in rows]
        )
    table.notes.append(
        f"accuracy scored against the profile oracle reading the true "
        f"miss series (baseline {baseline_misses:.0f} misses/period); "
        f"i=0 is the clean-signal baseline"
    )
    table.notes.append(
        "fault plan per intensity: " + FaultPlan.scaled(
            intensities[-1], seed=fault_seed
        ).describe()
    )
    table.notes.append(
        "shutter (Algorithm 1) is the headline degradation curve; the "
        "random detector never reads the signal and is the flat control"
    )
    return table

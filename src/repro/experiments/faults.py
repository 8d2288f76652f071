"""Detection robustness under PMU signal faults.

The paper's detectors assume a clean 1 ms Perfmon2 sampling loop (§4);
real PMU paths drop samples, jitter their periods, and mis-count.  This
driver sweeps a :class:`~repro.faults.FaultPlan` intensity over the
CAER configurations and reports how detection accuracy, the victim's
penalty, and batch utilization degrade as the signal path decays.

Accuracy is scored the §6.4 way (:func:`~repro.caer.analysis.
score_detection_events`) but with the oracle fed *ground truth*: the
heuristic's verdicts come from the traced, fault-perturbed
:class:`~repro.obs.DetectionEvent` stream, while the profile oracle
re-reads the victim's physically-true per-period miss series (the
engines always record truth; only the probing layer is faulted).  At
intensity 0 the two views coincide and the sweep's first row is the
clean-signal baseline.
"""

from __future__ import annotations

from ..caer.analysis import score_detection_events
from ..config import default_usage_threshold
from ..errors import ExperimentError
from ..faults import FaultPlan
from ..obs import RingBufferSink, Tracer
from ..runspec import RunSpec, execute_run
from .campaign import Campaign
from .executor import fan_out
from .reporting import FigureTable

#: Fault intensities swept by default (0 = clean-signal baseline).
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: CAER configurations whose detectors the sweep stresses ("raw" has
#: no detector, so there is nothing to score).
SWEEP_CONFIGS = ("shutter", "rule", "random")


def _sweep_run(task: tuple[RunSpec, float, float]) -> dict:
    """Worker: execute one faulted run, traced, and score detection.

    Module-level and driven only by its picklable argument, as the
    process pool requires; returns plain floats so results pickle
    cheaply.  The heuristic's verdicts are read from the in-memory
    :class:`DetectionEvent` trace; each event's *observation* fields
    are then replaced with the true miss series (same window size and
    rolling mean the communication table uses) before the oracle
    scores them — so the score measures the detector against physical
    reality, not against its own corrupted inputs.
    """
    spec, baseline_misses, noise_floor = task
    ring = RingBufferSink()
    tracer = Tracer([ring])
    try:
        outcome = execute_run(spec, tracer=tracer)
    finally:
        tracer.close()
    misses = outcome.miss_series
    events: list[dict] = []
    for event in ring.by_kind("detection"):
        data = event.to_dict()
        if misses:
            # The verdict speaks about *this* period, so the oracle is
            # fed this period's true misses — a windowed mean would
            # dilute the probe period's truth with the throttled
            # periods around it, where the response already removed
            # the contention the detector is being asked about.
            period = min(data["period"], len(misses) - 1)
            data["neighbor_misses"] = float(misses[period])
            data["neighbor_mean"] = float(misses[period])
        events.append(data)
    score = score_detection_events(
        events, baseline_misses, noise_floor=noise_floor
    )
    return {
        "accuracy": score.report.accuracy,
        "completion_periods": float(outcome.completion_periods),
        "utilization_gained": outcome.utilization_gained,
    }


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
    is read through the campaign's store; the ``len(intensities) ×
    len(configs)`` faulted runs, traced and scored in their workers,
    fan across the campaign's worker count.
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

    tasks: list[tuple[RunSpec, float, float]] = []
    labels: dict[str, str] = {}
    for intensity in intensities:
        plan = FaultPlan.scaled(intensity, seed=fault_seed)
        for config in configs:
            spec = settings.run_spec(victim, config).with_faults(plan)
            labels[spec.digest] = f"({victim}, {config} @ i={intensity:g})"
            tasks.append((spec, baseline_misses, noise_floor))
    results = fan_out(
        _sweep_run,
        tasks,
        jobs=campaign.jobs,
        describe=lambda task: labels.get(
            task[0].digest, task[0].describe()
        ),
    )

    table = FigureTable(
        title=f"Detection robustness vs. fault intensity ({victim})",
        row_names=[f"i={intensity:g}" for intensity in intensities],
    )
    for offset, config in enumerate(configs):
        rows = [
            results[index * len(configs) + offset]
            for index in range(len(intensities))
        ]
        table.add_column(f"{config}_acc", [r["accuracy"] for r in rows])
        table.add_column(
            f"{config}_pen",
            [
                r["completion_periods"] / solo.completion_periods - 1.0
                for r in rows
            ],
        )
        table.add_column(
            f"{config}_util", [r["utilization_gained"] for r in rows]
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

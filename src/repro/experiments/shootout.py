"""The detector shootout: every registered heuristic vs. the oracle.

The registry (:mod:`repro.caer.registry`) makes detectors pluggable;
this driver makes them *comparable*.  It sweeps every registered
detection heuristic — the paper's pair, the baselines, and the zoo —
through the same §6.4-style scoring harness the fault sweep uses: each
detector's co-located run is read through the campaign's store, and
the profile oracle, reading the victim's physically-true per-period
miss series, scores the verdicts the stored run keeps.  One table then
ranks the whole zoo on

* **accuracy** against the oracle on a clean signal,
* **mean accuracy** across the swept fault intensities (robustness),
* the victim's **penalty** vs. solo, and
* batch **utilization gained**,

so "is my new detector any good?" is one command, and the random
baseline (coin-flip verdicts, §6.4) marks the floor everything real
must clear.
"""

from __future__ import annotations

import dataclasses

from ..caer import registry
from ..caer.runtime import CaerConfig
from ..config import default_usage_threshold
from ..errors import ExperimentError
from ..faults import FaultPlan
from .campaign import Campaign
from .faults import oracle_accuracy
from .reporting import FigureTable

#: Fault intensities swept by default: the clean signal that headlines
#: the ranking, plus one degraded point for the robustness column.
DEFAULT_INTENSITIES = (0.0, 0.5)


def shootout_config(
    detector: str,
    baseline_misses: float,
    victim: str,
) -> CaerConfig:
    """The CAER setup a detector competes under.

    Burst-Shutter keeps the paper's §6 knobs (signal-relative, no
    absolute threshold) with the opt-in fault filter + debounce armed
    for the robustness sweep; the random baseline keeps its exact §6
    setup (signal-free).  Every threshold-bearing entrant instead gets
    a **victim-informed** ``usage_thresh`` — the solo baseline plus
    the oracle's 25% tolerance — because the paper's absolute 1500
    misses/ms constant was tuned for its machine and does not transfer
    across machine scales: untuned it sits far below the victim's solo
    miss rate here, the rule fires every probe, and the soft lock
    never releases on signal.  The informed threshold is exactly the
    information a deployer extracts from the same solo profiling run
    the oracle's baseline comes from, so no entrant sees data the
    harness doesn't already use.  The proactive detector additionally
    gets the victim name so its fence comes from the analytic model.
    """
    if detector == "shutter":
        # The paper's setup plus the opt-in fault hardening: the
        # shootout's robustness column sweeps corrupted signals, where
        # unfiltered Burst-Shutter dips below the random floor (a
        # ROADMAP-known gap).  The filter is a no-op on the clean
        # signal, so the headline ``acc`` column is unchanged.
        return CaerConfig.shutter(
            detector_params={"fault_filter": True, "debounce": 3}
        )
    if detector == "random":
        return CaerConfig.random_baseline()
    informed_thresh = baseline_misses * 1.25
    if detector == "profile":
        return CaerConfig.profile_oracle(
            baseline_misses, usage_thresh=informed_thresh
        )
    params = {}
    if detector == "proactive-analytic":
        params = {"victim": victim}
    return CaerConfig(
        detector=detector,
        response="soft-lock",
        usage_thresh=informed_thresh,
        detector_params=params,
    )


def detector_shootout(
    campaign: Campaign | None = None,
    victim: str = "429.mcf",
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    detectors: tuple[str, ...] | None = None,
    fault_seed: int = 0,
) -> FigureTable:
    """Score every registered detector against the profile oracle.

    Rows are detectors (every registered one by default); columns are
    clean-signal accuracy, mean accuracy across ``intensities``, the
    victim's penalty vs. solo, and batch utilization gained (both on
    the clean signal).  The solo baseline and every detector's runs
    are read through the campaign's store, and each run is scored from
    the verdicts it keeps.
    """
    campaign = campaign or Campaign()
    settings = campaign.settings
    if not intensities:
        raise ExperimentError("shootout needs at least one intensity")
    if 0.0 not in intensities:
        raise ExperimentError(
            "shootout intensities must include 0.0 (the clean-signal "
            "ranking headline)"
        )
    if detectors is None:
        detectors = registry.detector_names()
    known = registry.detector_names()
    for name in detectors:
        if name not in known:
            raise ExperimentError(
                f"unknown detector {name!r} "
                f"(registered detectors: {', '.join(known)})"
            )
    noise_floor = default_usage_threshold(settings.machine())

    solo = campaign.solo(victim)
    if solo.completion_periods <= 0:
        raise ExperimentError(f"solo run of {victim!r} never completed")
    baseline_misses = solo.ls_total_llc_misses / solo.completion_periods

    raw = settings.run_spec(victim, "raw")
    runs = campaign.outcomes(
        dataclasses.replace(
            raw, caer=shootout_config(name, baseline_misses, victim)
        ).with_faults(FaultPlan.scaled(intensity, seed=fault_seed))
        for name in detectors
        for intensity in intensities
    )

    clean_index = intensities.index(0.0)
    table = FigureTable(
        title=f"Detector shootout vs. the profile oracle ({victim})",
        row_names=list(detectors),
    )
    per_detector = [
        runs[index * len(intensities):(index + 1) * len(intensities)]
        for index in range(len(detectors))
    ]
    accuracy = [
        [oracle_accuracy(r, baseline_misses, noise_floor) for r in rows]
        for rows in per_detector
    ]
    table.add_column("acc", [scores[clean_index] for scores in accuracy])
    table.add_column(
        "acc_mean", [sum(scores) / len(scores) for scores in accuracy]
    )
    table.add_column(
        "penalty",
        [
            rows[clean_index].completion_periods / solo.completion_periods
            - 1.0
            for rows in per_detector
        ],
    )
    table.add_column(
        "util",
        [rows[clean_index].utilization_gained for rows in per_detector],
    )
    table.notes.append(
        f"accuracy scored against the profile oracle reading the true "
        f"miss series (baseline {baseline_misses:.0f} misses/period); "
        f"acc is the clean signal, acc_mean spans fault intensities "
        f"{', '.join(f'{i:g}' for i in intensities)}"
    )
    table.notes.append(
        "penalty/util are clean-signal; the random row (coin-flip "
        "verdicts, §6.4) is the accuracy floor every real detector "
        "must clear; the profile row is the oracle scoring itself"
    )
    return table

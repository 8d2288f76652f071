"""Ablations over CAER's tuning space.

The paper explicitly reserves "further investigation of the heuristic
tuning space for future work" (§6.2) while naming the knobs: the
burst-shutter geometry and impact threshold (the QoS "knob"), the
rule-based usage threshold, the response lengths, and the adaptive
red-light/green-light variant.  These sweeps explore that space on one
contention-sensitive victim (mcf) and one insensitive victim (namd),
reporting the penalty/utilization trade-off each setting buys.

Every run a sweep needs — co-located runs and solo baselines alike — is
read through the campaign's store (:meth:`Campaign.outcomes`), one
batch per sweep: the runs fan out together, any run an earlier sweep
or figure stored is served from the store, and an interrupted sweep
resumes from the campaign's journal.
"""

from __future__ import annotations

import copy
import dataclasses
import functools

from ..caer.runtime import CaerConfig
from ..config import MachineConfig, default_usage_threshold
from ..errors import ExperimentError
from ..runspec import BATCH_BENCHMARK, ContenderSpec, RunSpec
from ..workloads import benchmark
from .campaign import Campaign, CampaignSettings
from .reporting import FigureTable

#: The victims every ablation is evaluated on.
SENSITIVE_VICTIM = "429.mcf"
INSENSITIVE_VICTIM = "444.namd"
VICTIMS = (SENSITIVE_VICTIM, INSENSITIVE_VICTIM)


class AblationRunner:
    """Runs CAER configurations against the two reference victims.

    Every evaluation is a pair of declarative
    :class:`~repro.runspec.RunSpec` values — the victim alone and next
    to lbm under the configuration — built from the runner's (possibly
    sweep-modified) ``machine`` and read through the campaign's store,
    so serial :meth:`evaluate` and batched :meth:`evaluate_many` give
    bit-identical numbers and no spec is simulated twice.
    """

    def __init__(self, campaign: Campaign):
        self.campaign = campaign
        self.settings = campaign.settings
        self.machine: MachineConfig = self.settings.machine()

    def _spec(self, name: str):
        return benchmark(
            name,
            self.machine.l3.capacity_lines,
            length=self.settings.length,
        )

    def solo_spec(self, victim: str) -> RunSpec:
        """The spec of the victim's solo baseline run."""
        return RunSpec(
            victim=victim,
            machine=self.machine,
            seed=self.settings.seed,
            length=self.settings.length,
            backend=self.settings.backend,
        )

    def colocated_spec(
        self, victim: str, config: CaerConfig | None
    ) -> RunSpec:
        """The spec of one victim-vs-lbm run under ``config``."""
        return RunSpec(
            victim=victim,
            contenders=(ContenderSpec(BATCH_BENCHMARK),),
            machine=self.machine,
            caer=config,
            seed=self.settings.seed,
            length=self.settings.length,
            backend=self.settings.backend,
        )

    def evaluate(
        self, victim: str, config: CaerConfig | None
    ) -> tuple[float, float]:
        """(penalty, utilization gained) of one configuration."""
        return self.evaluate_many([(victim, config)])[0]

    def evaluate_many(
        self, pairs: list[tuple[str, CaerConfig | None]]
    ) -> list[tuple[float, float]]:
        """(penalty, utilization) per (victim, config), in ``pairs``
        order, from one store batch that includes the solo baselines."""
        return _evaluate(
            self.campaign,
            [
                (self.solo_spec(victim), self.colocated_spec(victim, config))
                for victim, config in pairs
            ],
        )


def _evaluate(
    campaign: Campaign, pairs: list[tuple[RunSpec, RunSpec]]
) -> list[tuple[float, float]]:
    """(penalty vs. solo, utilization gained) of each (solo, co-located)
    spec pair, read through ``campaign`` in one batch."""
    outcomes = campaign.outcomes(spec for pair in pairs for spec in pair)
    return [
        (
            colo.completion_periods / solo.completion_periods - 1.0,
            colo.utilization_gained,
        )
        for solo, colo in zip(outcomes[0::2], outcomes[1::2])
    ]


def _on_machine(
    runner: AblationRunner,
    machine: MachineConfig,
    settings: CampaignSettings | None = None,
) -> AblationRunner:
    """A runner for the same campaign on another machine (and settings)."""
    variant = copy.copy(runner)
    variant.machine = machine
    variant.settings = settings or runner.settings
    return variant


def _table(
    title: str, rows: list[str], results: list[tuple[float, float]]
) -> FigureTable:
    """The sweep table: per row, mcf's then namd's (penalty, util)."""
    table = FigureTable(title=title, row_names=rows)
    mcf, namd = results[0::2], results[1::2]
    table.add_column("mcf_penalty", [p for p, _ in mcf])
    table.add_column("mcf_util", [u for _, u in mcf])
    table.add_column("namd_penalty", [p for p, _ in namd])
    table.add_column("namd_util", [u for _, u in namd])
    return table


def _sweep(
    runner: AblationRunner,
    title: str,
    configs: list[tuple[str, CaerConfig]],
) -> FigureTable:
    pairs = [
        (victim, config) for _label, config in configs for victim in VICTIMS
    ]
    return _table(
        title, [label for label, _ in configs], runner.evaluate_many(pairs)
    )


def _machine_sweep(
    title: str, rows: list[str], runners: list[AblationRunner]
) -> FigureTable:
    """Rule-based CAER on each runner's machine, one row per runner."""
    config = CaerConfig.rule_based()
    pairs = [
        (runner.solo_spec(victim), runner.colocated_spec(victim, config))
        for runner in runners
        for victim in VICTIMS
    ]
    return _table(title, rows, _evaluate(runners[0].campaign, pairs))


def ablate_impact_factor(
    runner: AblationRunner,
    factors: tuple[float, ...] = (0.01, 0.05, 0.15, 0.40),
) -> FigureTable:
    """§6.2's QoS knob: how much burst impact triggers c-positive."""
    configs = [
        (f"impact={f}", CaerConfig.shutter(impact_factor=f))
        for f in factors
    ]
    return _sweep(runner, "Ablation: shutter impact factor", configs)


def ablate_shutter_geometry(
    runner: AblationRunner,
    geometries: tuple[tuple[int, int], ...] = (
        (2, 4), (5, 10), (8, 16), (12, 24)
    ),
) -> FigureTable:
    """Shutter/burst lengths: measurement quality vs. shutter cost."""
    configs = [
        (
            f"switch={s},end={e}",
            CaerConfig.shutter(switch_point=s, end_point=e),
        )
        for s, e in geometries
    ]
    return _sweep(runner, "Ablation: shutter geometry", configs)


def ablate_usage_threshold(
    runner: AblationRunner,
    multipliers: tuple[float, ...] = (0.25, 1.0, 4.0, 16.0),
) -> FigureTable:
    """Rule-based 'heavy usage' threshold, as multiples of the paper's."""
    base = default_usage_threshold(runner.machine)
    configs = [
        (
            f"thresh={m}x",
            CaerConfig.rule_based(usage_thresh=base * m),
        )
        for m in multipliers
    ]
    return _sweep(runner, "Ablation: rule-based usage threshold", configs)


def ablate_response_length(
    runner: AblationRunner,
    lengths: tuple[int, ...] = (1, 5, 10, 20, 40),
) -> FigureTable:
    """Red-light/green-light hold length."""
    configs = [
        (f"length={n}", CaerConfig.shutter(response_length=n))
        for n in lengths
    ]
    return _sweep(runner, "Ablation: red-light/green-light length", configs)


def ablate_adaptive_response(runner: AblationRunner) -> FigureTable:
    """§5's adaptive red-light/green-light vs. the fixed variant."""
    configs = [
        ("fixed", CaerConfig.shutter(adaptive=False)),
        ("adaptive", CaerConfig.shutter(adaptive=True)),
    ]
    return _sweep(runner, "Ablation: fixed vs. adaptive response", configs)


def ablate_window_size(
    runner: AblationRunner,
    sizes: tuple[int, ...] = (5, 10, 20, 40),
) -> FigureTable:
    """Communication-table window size (rule-based averaging horizon)."""
    configs = [
        (f"window={n}", CaerConfig.rule_based(window_size=n))
        for n in sizes
    ]
    return _sweep(runner, "Ablation: sample-window size", configs)


def ablate_response_mechanism(runner: AblationRunner) -> FigureTable:
    """Pause-based throttling vs. §7's DVFS-style frequency scaling.

    The paper cites per-core DVFS (Herdrich et al.) as a promising
    alternative to stopping the batch outright; this sweep compares the
    red-light/green-light pause against frequency scaling at several
    scales, using the shutter detector throughout.
    """
    configs: list[tuple[str, CaerConfig]] = [
        ("pause (rlgl)", CaerConfig.shutter()),
    ]
    for scale in (0.125, 0.25, 0.5):
        configs.append(
            (f"dvfs x{scale}", CaerConfig.dvfs(dvfs_scale=scale))
        )
    for quota in (0.125, 0.25):
        configs.append(
            (
                f"partition {quota}",
                CaerConfig.partition(partition_quota=quota),
            )
        )
    return _sweep(runner, "Ablation: response mechanism", configs)


def ablate_shutter_mode(runner: AblationRunner) -> FigureTable:
    """Paper-literal one-sided spike test vs. the two-sided default.

    Documents the substrate difference discussed in DESIGN.md: on this
    simulator a burst usually *lowers* a memory-bound neighbour's
    misses-per-period, so the one-sided test under-detects.
    """
    configs = [
        ("two-sided", CaerConfig.shutter(shutter_mode="two-sided")),
        ("spike-only", CaerConfig.shutter(shutter_mode="spike")),
    ]
    return _sweep(runner, "Ablation: shutter comparison mode", configs)


def ablate_probe_period(
    runner: AblationRunner,
    period_cycles: tuple[int, ...] = (10_000, 40_000, 160_000),
) -> FigureTable:
    """The probe quantum: the paper's 1 ms choice, scaled up and down.

    Coarser periods lag phase changes and make every response decision
    stickier; finer periods react faster but sample noisier counts.
    Thresholds convert automatically with the period length, so only
    the *temporal resolution* varies.  (This sweep rebuilds the machine
    per setting, so it bypasses the runner's config-only path; every
    other campaign setting, the backend included, carries over.)
    """
    variants = []
    for period in period_cycles:
        settings = dataclasses.replace(runner.settings, period_cycles=period)
        variants.append(_on_machine(runner, settings.machine(), settings))
    return _machine_sweep(
        "Ablation: probe period length",
        [f"{p} cycles" for p in period_cycles],
        variants,
    )


def ablate_probe_overhead(
    runner: AblationRunner,
    overheads: tuple[float, ...] = (0.0, 20.0, 400.0, 4_000.0),
) -> FigureTable:
    """The cost of the monitoring itself (§3.2's low-overhead claim).

    CAER's viability rests on periodic PMU probing being essentially
    free; this sweep charges increasing per-probe costs to every
    monitored core and reports the slowdown they induce on a solo
    latency-sensitive run (the honest measure of monitoring overhead:
    4000 cycles is 10% of the default period).
    """
    from ..arch.chip import MulticoreChip
    from ..sim.engine import SimulationEngine
    from ..sim.process import SimProcess

    @functools.cache
    def solo_periods(victim: str, overhead: float) -> int:
        chip = MulticoreChip(runner.machine, seed=runner.settings.seed)
        proc = SimProcess(
            runner._spec(victim), 0, seed=runner.settings.seed
        )
        engine = SimulationEngine(
            chip, [proc], probe_overhead_cycles=overhead
        )
        return engine.run().latency_sensitive().completion_periods

    table = FigureTable(
        title="Ablation: PMU probe overhead",
        row_names=[f"{o:g} cycles/probe" for o in overheads],
    )
    columns: dict[str, list[float]] = {"mcf_penalty": [],
                                       "namd_penalty": []}
    baselines = {
        victim: solo_periods(victim, 0.0)
        for victim in (SENSITIVE_VICTIM, INSENSITIVE_VICTIM)
    }
    for overhead in overheads:
        columns["mcf_penalty"].append(
            solo_periods(SENSITIVE_VICTIM, overhead)
            / baselines[SENSITIVE_VICTIM]
            - 1.0
        )
        columns["namd_penalty"].append(
            solo_periods(INSENSITIVE_VICTIM, overhead)
            / baselines[INSENSITIVE_VICTIM]
            - 1.0
        )
    for name, values in columns.items():
        table.add_column(name, values)
    return table


def ablate_prefetch(
    runner: AblationRunner,
    degrees: tuple[int, ...] = (0, 1, 2, 4),
) -> FigureTable:
    """Hardware next-line prefetching (a model extension, off by default).

    Prefetching hides streaming latency — speeding the lbm contender up
    and changing how much pressure it puts on the victim — while its
    extra traffic loads the shared memory channel.  This sweep rebuilds
    the machine per setting.
    """
    return _machine_sweep(
        "Ablation: next-line prefetch degree",
        [f"degree={d}" for d in degrees],
        [
            _on_machine(
                runner,
                dataclasses.replace(runner.machine, prefetch_degree=d),
            )
            for d in degrees
        ],
    )


def ablate_writebacks(runner: AblationRunner) -> FigureTable:
    """Dirty-line writeback traffic (a model extension, off by default).

    With writebacks modelled, store-marked lines evicted from the L3
    travel back to memory and consume channel bandwidth — raising the
    pressure both applications feel.  This sweep rebuilds the machine
    per setting.
    """
    return _machine_sweep(
        "Ablation: writeback modelling",
        ["off", "on"],
        [
            _on_machine(
                runner,
                dataclasses.replace(runner.machine, model_writebacks=on),
            )
            for on in (False, True)
        ],
    )


def ablate_detector(runner: AblationRunner) -> FigureTable:
    """All detectors head-to-head, including the offline-profile oracle.

    The oracle knows each victim's solo miss baseline (a profiling run
    the online heuristics do not get); the gap between it and the
    heuristics is the price of detecting *online*.
    """
    configs: list[tuple[str, CaerConfig]] = [
        ("shutter", CaerConfig.shutter()),
        ("rule-based", CaerConfig.rule_based()),
        ("random", CaerConfig.random_baseline()),
    ]
    results = runner.evaluate_many(
        [(victim, config) for _, config in configs for victim in VICTIMS]
    )
    # The oracle needs per-victim solo baselines: the store already
    # holds them from the batch above.
    solos = runner.campaign.outcomes(
        runner.solo_spec(victim) for victim in VICTIMS
    )
    results += runner.evaluate_many([
        (
            victim,
            CaerConfig.profile_oracle(
                baseline_misses=solo.ls_total_llc_misses
                / solo.completion_periods
            ),
        )
        for victim, solo in zip(VICTIMS, solos)
    ])
    return _table(
        "Ablation: detector comparison (incl. offline oracle)",
        [label for label, _ in configs] + ["profile-oracle"],
        results,
    )


#: Registry used by the CLI and the ablation bench.
ABLATIONS = {
    "impact-factor": ablate_impact_factor,
    "shutter-geometry": ablate_shutter_geometry,
    "usage-threshold": ablate_usage_threshold,
    "response-length": ablate_response_length,
    "adaptive-response": ablate_adaptive_response,
    "window-size": ablate_window_size,
    "shutter-mode": ablate_shutter_mode,
    "response-mechanism": ablate_response_mechanism,
    "probe-period": ablate_probe_period,
    "probe-overhead": ablate_probe_overhead,
    "prefetch": ablate_prefetch,
    "writebacks": ablate_writebacks,
    "detector": ablate_detector,
}


def run_ablation(name: str, campaign: Campaign | None = None) -> FigureTable:
    """Run one named ablation through ``campaign``'s store (default: a
    campaign with the environment's settings) and return its table."""
    try:
        fn = ABLATIONS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown ablation {name!r} "
            f"(known: {', '.join(sorted(ABLATIONS))})"
        ) from None
    return fn(AblationRunner(campaign or Campaign()))

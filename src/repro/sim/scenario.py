"""Canonical experiment scenarios, and the one way to build their engine.

These helpers build the setups the paper evaluates (§6.1): a benchmark
running *alone* on the chip, and a latency-sensitive benchmark
*co-located* with a relaunching batch contender on a neighbouring core,
optionally under a CAER runtime.  The batch is launched first and the
latency-sensitive application "shortly after", exactly as the paper
scripts its SPEC runs.

Two functions decide every run.  :func:`colocation_processes` builds
the process list (core placement, batch naming, seed derivation,
launch order), and :func:`build_engine` builds the engine that runs it
on a backend registered by name: ``"sim"``, the trace-driven
:class:`~repro.sim.engine.SimulationEngine`, or ``"statistical"``, the
closed-form :class:`repro.statistical.engine.StatisticalEngine`.  The
``run_*`` entry points here and :func:`repro.runspec.execute` both go
through the pair, so a run described by a declarative
:class:`~repro.runspec.RunSpec` is constructed bit-identically to one
assembled by hand here, on either backend.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..arch.chip import MulticoreChip
from ..config import MachineConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs import MetricsRegistry, Tracer
from ..workloads.base import WorkloadSpec
from .engine import PeriodEngine, PeriodHook, SimulationEngine
from .process import AppClass, SimProcess
from .results import RunResult

#: Periods between batch launch and latency-sensitive launch.
DEFAULT_LAUNCH_STAGGER = 3

#: Seed offset between the victim's RNG stream and each batch stream.
BATCH_SEED_STRIDE = 7_919

#: A backend: ``builder(machine, processes, *, seed, slices_per_period,
#: tracer, metrics, faults)`` returns the engine that will run
#: ``processes`` on ``machine`` (see :func:`build_engine`).
EngineBuilder = Callable[..., PeriodEngine]


def colocation_processes(
    ls_spec: WorkloadSpec,
    batch_specs: Sequence[WorkloadSpec],
    seed: int = 0,
    launch_stagger: int = DEFAULT_LAUNCH_STAGGER,
    batch_names: Sequence[str | None] | None = None,
    relaunch: Sequence[bool] | None = None,
    launch_periods: Sequence[int] | None = None,
) -> list[SimProcess]:
    """The full §6.1 process list: victim plus its contender group.

    The victim runs on core 0 (the paper's placement).  Alone, it
    launches at period 0; with contenders, ``launch_stagger`` periods
    after the batch.  Contender ``i`` runs on core ``1 + i`` from its
    own RNG stream, offset from the victim's seed by a fixed stride.  A
    single contender is named ``<spec>:batch`` (the paper's two-app
    prototype); members of a larger group get ``<spec>:batch<i>``.  Per
    contender, ``batch_names``, ``relaunch`` and ``launch_periods``
    override that name, its relaunching and its first launch at period
    0.  The engine refuses a contender the machine has no core for.
    """
    count = len(batch_specs)
    processes = [
        SimProcess(
            ls_spec,
            core_id=0,
            app_class=AppClass.LATENCY_SENSITIVE,
            seed=seed,
            launch_period=launch_stagger if count else 0,
        )
    ]
    for i, spec in enumerate(batch_specs):
        name = batch_names[i] if batch_names else None
        suffix = "" if count == 1 else str(i)
        processes.append(
            SimProcess(
                spec,
                core_id=1 + i,
                app_class=AppClass.BATCH,
                name=name or f"{spec.name}:batch{suffix}",
                seed=seed + BATCH_SEED_STRIDE * (i + 1),
                launch_period=launch_periods[i] if launch_periods else 0,
                relaunch=relaunch[i] if relaunch else True,
            )
        )
    return processes


def _sim_engine(
    machine: MachineConfig, processes: Sequence[SimProcess], *, seed: int,
    slices_per_period: int, tracer: Tracer | None,
    metrics: MetricsRegistry | None, faults: FaultPlan | None,
) -> PeriodEngine:
    """The trace-driven engine, on a fresh chip seeded with ``seed``."""
    return SimulationEngine(
        MulticoreChip(machine, seed=seed), processes,
        slices_per_period=slices_per_period,
        tracer=tracer, metrics=metrics, faults=faults,
    )


def _statistical_engine(
    machine: MachineConfig, processes: Sequence[SimProcess], *, seed: int,
    slices_per_period: int, tracer: Tracer | None,
    metrics: MetricsRegistry | None, faults: FaultPlan | None,
) -> PeriodEngine:
    """The closed-form engine.

    It has no chip and no access-level slicing, so ``seed`` (beyond the
    processes' own seeds) and ``slices_per_period`` are inert; a spec's
    digest keeps both regardless, keeping one spec ↔ one cache entry
    unambiguous.  Imported on first use, so a ``sim`` run never loads
    it.
    """
    from ..statistical.engine import StatisticalEngine

    return StatisticalEngine(
        machine, processes, tracer=tracer, metrics=metrics, faults=faults
    )


#: The backend registry: backend id -> engine builder.
_BACKENDS: dict[str, EngineBuilder] = {}


def register_backend(
    name: str, builder: EngineBuilder, replace: bool = False
) -> None:
    """Register ``builder`` under ``name`` (refusing silent overwrites)."""
    if not name:
        raise ConfigError("backend id must be non-empty")
    if name in _BACKENDS and not replace:
        raise ConfigError(
            f"backend {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    _BACKENDS[name] = builder


def get_backend(name: str) -> EngineBuilder:
    """Look up a backend by id, with the known ids in the error."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ConfigError(
            f"unknown backend {name!r} (known backends: {known})"
        ) from None


def backend_names() -> tuple[str, ...]:
    """The registered backend ids, sorted."""
    return tuple(sorted(_BACKENDS))


register_backend("sim", _sim_engine)
register_backend("statistical", _statistical_engine)


def build_engine(
    machine: MachineConfig | None,
    processes: Sequence[SimProcess],
    backend: str = "sim",
    seed: int = 0,
    slices_per_period: int = 8,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    faults: FaultPlan | None = None,
    caer_factory: Callable[[PeriodEngine], PeriodHook] | None = None,
) -> PeriodEngine:
    """The ``backend`` engine over ``processes``, ready to ``run()``.

    An unknown ``backend`` raises :class:`~repro.errors.ConfigError`
    naming the registered ones.  ``machine`` defaults to the scaled
    Nehalem.  ``caer_factory``, when given, receives the engine and
    returns a period hook — this is how a
    :class:`repro.caer.runtime.CaerRuntime` is attached; ``None``
    reproduces the paper's raw "co-location" configuration with no
    runtime intervention.
    """
    engine = get_backend(backend)(
        machine or MachineConfig.scaled_nehalem(),
        processes,
        seed=seed,
        slices_per_period=slices_per_period,
        tracer=tracer,
        metrics=metrics,
        faults=faults,
    )
    if caer_factory is not None:
        engine.period_hooks.append(caer_factory(engine))
    return engine


def run_solo(
    spec: WorkloadSpec,
    machine: MachineConfig | None = None,
    seed: int = 0,
    slices_per_period: int = 8,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    backend: str = "sim",
) -> RunResult:
    """Run one workload alone to completion on the ``backend`` engine."""
    return build_engine(
        machine, colocation_processes(spec, [], seed=seed),
        backend=backend, seed=seed, slices_per_period=slices_per_period,
        tracer=tracer, metrics=metrics,
    ).run()


def run_colocated(
    ls_spec: WorkloadSpec,
    batch_spec: WorkloadSpec,
    machine: MachineConfig | None = None,
    caer_factory: Callable[[PeriodEngine], PeriodHook] | None = None,
    seed: int = 0,
    slices_per_period: int = 8,
    launch_stagger: int = DEFAULT_LAUNCH_STAGGER,
    batch_name: str | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    backend: str = "sim",
) -> RunResult:
    """Co-locate a latency-sensitive app with a relaunching batch app.

    The run stops when the latency-sensitive application completes; the
    batch contender is relaunched whenever it finishes early (§6.1).
    ``caer_factory`` attaches a runtime as in :func:`build_engine`.
    """
    processes = colocation_processes(
        ls_spec, [batch_spec], seed=seed, launch_stagger=launch_stagger,
        batch_names=[batch_name],
    )
    return build_engine(
        machine, processes, backend=backend, seed=seed,
        slices_per_period=slices_per_period, tracer=tracer,
        metrics=metrics, caer_factory=caer_factory,
    ).run()


def run_multi_colocated(
    ls_spec: WorkloadSpec,
    batch_specs: list[WorkloadSpec],
    machine: MachineConfig | None = None,
    caer_factory: Callable[[PeriodEngine], PeriodHook] | None = None,
    seed: int = 0,
    slices_per_period: int = 8,
    launch_stagger: int = DEFAULT_LAUNCH_STAGGER,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    backend: str = "sim",
) -> RunResult:
    """The paper's Figure 4 *architecture* scenario: one latency-
    sensitive application plus several relaunching batch applications,
    each on its own core, all batch layers obeying the shared reaction
    directives.

    The prototype evaluated in the paper hosts one batch neighbour;
    this is the generalisation its design section describes.  Raises
    :class:`~repro.errors.SchedulingError` if the machine has fewer
    than ``1 + len(batch_specs)`` cores.
    """
    processes = colocation_processes(
        ls_spec, batch_specs, seed=seed, launch_stagger=launch_stagger
    )
    return build_engine(
        machine, processes, backend=backend, seed=seed,
        slices_per_period=slices_per_period, tracer=tracer,
        metrics=metrics, caer_factory=caer_factory,
    ).run()

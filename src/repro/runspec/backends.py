"""Pluggable execution backends for declarative run specs.

An :class:`ExecutionBackend` turns a :class:`~repro.runspec.RunSpec`
into a :class:`~repro.sim.results.RunResult`.  Two ship with the
library, registered under the ids a spec's ``backend`` field names:

* ``"sim"`` — the trace-driven :class:`repro.sim.engine.SimulationEngine`,
  simulating every memory access;
* ``"statistical"`` — the closed-form
  :class:`repro.statistical.engine.StatisticalEngine`, advancing whole
  probe periods analytically.

Both build their process lists through the shared constructors in
:mod:`repro.sim.scenario` (:func:`~repro.sim.scenario.latency_process`
and :func:`~repro.sim.scenario.batch_process`), so a spec executes with
exactly the placement, naming, seeding, and launch order a hand-built
scenario would use — the sim backend is bit-identical to
``run_solo``/``run_colocated`` on the same coordinates.

:func:`execute_run` is the one entry point the experiment drivers fan
out over: resolve the backend, execute, and condense the result into a
picklable :class:`RunOutcome` carrying the spec digest, wall-clock
cost, and the run's telemetry snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

from ..caer.runtime import caer_factory
from ..errors import ConfigError, SchedulingError
from ..obs import MetricsRegistry, RunSpecEvent, Tracer, activate_profiling
from ..sim.engine import SimulationEngine
from ..sim.process import SimProcess
from ..sim.results import RunResult
from ..sim.scenario import batch_process, latency_process
from ..workloads import benchmark
from .spec import RunSpec


class ExecutionBackend(Protocol):
    """Anything that can execute a :class:`RunSpec`.

    Implementations must be stateless across calls (the executor may
    invoke them from several worker processes) and must build their
    processes through :mod:`repro.sim.scenario`'s constructors so that
    identical specs produce identical process lists on every backend.
    """

    def execute(
        self,
        spec: RunSpec,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> RunResult:
        """Run ``spec`` to completion and return the result record."""
        ...


def _spec_processes(spec: RunSpec) -> list[SimProcess]:
    """Materialise the spec's process list (shared by every backend)."""
    machine = spec.machine
    count = len(spec.contenders)
    if count + 1 > machine.num_cores:
        raise SchedulingError(
            f"{count} contenders + 1 victim need more cores than "
            f"the machine's {machine.num_cores}"
        )
    lines = machine.l3.capacity_lines
    victim = benchmark(spec.victim, lines, length=spec.length)
    # A solo victim launches at period 0 (run_solo's convention); a
    # co-located one is staggered after the batch (§6.1).
    stagger = spec.launch_stagger if spec.contenders else 0
    processes = [
        latency_process(victim, seed=spec.seed, launch_period=stagger)
    ]
    for index, contender in enumerate(spec.contenders):
        workload = benchmark(contender.bench, lines, length=spec.length)
        processes.append(
            batch_process(
                workload,
                index,
                count,
                seed=spec.seed,
                relaunch=contender.relaunch,
                launch_period=contender.launch_period,
            )
        )
    return processes


class SimBackend:
    """The trace-driven engine behind the ``"sim"`` backend id."""

    name = "sim"

    def execute(
        self,
        spec: RunSpec,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> RunResult:
        from ..arch.chip import MulticoreChip

        chip = MulticoreChip(spec.machine, seed=spec.seed)
        engine = SimulationEngine(
            chip,
            _spec_processes(spec),
            slices_per_period=spec.slices_per_period,
            tracer=tracer,
            metrics=metrics,
            faults=spec.faults,
        )
        if spec.caer is not None:
            engine.period_hooks.append(caer_factory(spec.caer)(engine))
        return engine.run()


class StatisticalBackend:
    """The closed-form engine behind the ``"statistical"`` backend id.

    The statistical engine has no access-level slicing, so
    ``slices_per_period`` is accepted but inert; it stays in the digest
    regardless, keeping one spec ↔ one cache entry unambiguous.
    """

    name = "statistical"

    def execute(
        self,
        spec: RunSpec,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> RunResult:
        from ..statistical.engine import StatisticalEngine

        engine = StatisticalEngine(
            spec.machine,
            _spec_processes(spec),
            tracer=tracer,
            metrics=metrics,
            faults=spec.faults,
        )
        if spec.caer is not None:
            engine.period_hooks.append(caer_factory(spec.caer)(engine))
        return engine.run()


#: The backend registry: spec ``backend`` id -> backend instance.
_BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(
    name: str, backend: ExecutionBackend, replace: bool = False
) -> None:
    """Register ``backend`` under ``name`` (refusing silent overwrites)."""
    if not name:
        raise ConfigError("backend id must be non-empty")
    if name in _BACKENDS and not replace:
        raise ConfigError(
            f"backend {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    _BACKENDS[name] = backend


def get_backend(name: str) -> ExecutionBackend:
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


register_backend(SimBackend.name, SimBackend())
register_backend(StatisticalBackend.name, StatisticalBackend())


def execute(
    spec: RunSpec,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> RunResult:
    """Execute ``spec`` on the backend its ``backend`` field names.

    Emits a :class:`~repro.obs.RunSpecEvent` carrying the spec's digest
    before the run starts, so any resulting trace is self-describing.
    """
    backend = get_backend(spec.backend)
    if tracer is not None and tracer.enabled:
        tracer.emit(
            RunSpecEvent(
                period=0,
                digest=spec.digest,
                backend=spec.backend,
                victim=spec.victim,
                contenders=len(spec.contenders),
            )
        )
    return backend.execute(spec, tracer=tracer, metrics=metrics)


def derive_telemetry(metrics: MetricsRegistry) -> dict:
    """Snapshot a run's registry plus the derived headline scalars."""
    snapshot = metrics.snapshot()

    def _counter(name: str) -> float:
        entry = snapshot.get(name)
        return entry["value"] if entry else 0.0

    caer_periods = _counter("caer.periods")
    positives = _counter("caer.verdicts_positive")
    verdicts = positives + _counter("caer.verdicts_negative")
    paused = _counter("caer.batch_paused_periods")
    derived: dict = {
        #: fraction of issued verdicts asserting contention
        "detector_trigger_rate": (
            positives / verdicts if verdicts else 0.0
        ),
        #: fraction of CAER-governed periods the batch side actually ran
        "batch_run_fraction": (
            1.0 - paused / caer_periods if caer_periods else 1.0
        ),
        "verdicts": verdicts,
    }
    return {"metrics": snapshot, "derived": derived}


@dataclass
class RunOutcome:
    """The condensed, picklable product of executing one spec.

    The one run record: what the figures and drivers consume, and what
    the campaign store keeps (:class:`repro.experiments.campaign.Campaign`,
    one JSON entry per spec digest).  It carries the run identity
    (``digest``, ``backend``) so callers can join an outcome back to the
    spec — and cache entry — that produced it.  ``wall_seconds`` and
    ``telemetry`` are excluded from equality: parallel and serial
    executions of the same spec must compare identical, and a cached
    ``wall_seconds`` of 0.0 marks an entry that predates run timing.
    """

    digest: str
    backend: str
    victim: str
    config: str
    completion_periods: int
    total_periods: int
    ls_total_llc_misses: int
    utilization_gained: float
    miss_series: list[int] = field(default_factory=list)
    instruction_series: list[float] = field(default_factory=list)
    wall_seconds: float = field(default=0.0, compare=False)
    telemetry: dict | None = field(default=None, compare=False)


def execute_run(
    spec: RunSpec,
    tracer: Tracer | None = None,
) -> RunOutcome:
    """Execute ``spec`` and condense the result into a :class:`RunOutcome`.

    The unit of work the parallel executor fans out: module-level,
    driven only by its picklable arguments, touching no shared state.
    A fresh :class:`MetricsRegistry` is attached per run; its snapshot
    (plus derived scalars and the spec identity) rides back on the
    outcome's ``telemetry``.  Span profiling is armed around every run,
    so the wall-clock histograms — engine periods, vector-kernel
    batches — ride back in the same snapshot; they are excluded from
    outcome equality like every other telemetry field.  The pinned
    outcomes of ``tests/golden`` hold with a tracer attached and with
    live export serving, as well as bare.
    """
    from ..caer.metrics import utilization_gained

    started = time.perf_counter()
    metrics = MetricsRegistry()
    with activate_profiling(metrics):
        result = execute(spec, tracer=tracer, metrics=metrics)
    ls = result.latency_sensitive()
    gained = (
        utilization_gained(result) if result.batch_processes() else 0.0
    )
    telemetry = derive_telemetry(metrics)
    telemetry["spec_digest"] = spec.digest
    telemetry["backend"] = spec.backend
    return RunOutcome(
        digest=spec.digest,
        backend=spec.backend,
        victim=spec.victim,
        config=spec.config_tag,
        completion_periods=ls.completion_periods,
        total_periods=result.total_periods,
        ls_total_llc_misses=ls.total_llc_misses(),
        utilization_gained=gained,
        miss_series=ls.llc_miss_series(),
        instruction_series=[round(x, 1) for x in ls.instruction_series()],
        wall_seconds=round(time.perf_counter() - started, 3),
        telemetry=telemetry,
    )

"""Executing declarative run specs.

:func:`execute` runs a :class:`~repro.runspec.RunSpec` on the backend
its ``backend`` field names.  It builds the process list with
:func:`repro.sim.scenario.colocation_processes` and the engine with
:func:`repro.sim.scenario.build_engine`, the same two calls the
hand-built ``run_solo``/``run_colocated`` scenarios make, so a spec is
bit-identical to them on the same coordinates, on either backend.  The
backend registry (``register_backend``, ``get_backend``,
``backend_names``) lives beside ``build_engine``; :mod:`repro.runspec`
re-exports it.

:func:`execute_run` is the one entry point the experiment drivers fan
out over: execute, and condense the result into a picklable
:class:`RunOutcome` carrying the spec digest, wall-clock cost, and the
run's telemetry snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..caer.runtime import caer_factory
from ..obs import MetricsRegistry, RunSpecEvent, Tracer, activate_profiling
from ..sim.process import SimProcess
from ..sim.results import RunResult
from ..sim.scenario import build_engine, colocation_processes
from ..workloads import benchmark
from .spec import RunSpec


def _spec_processes(spec: RunSpec) -> list[SimProcess]:
    """The spec's victim and contenders, as the scenarios build them."""
    lines = spec.machine.l3.capacity_lines
    contenders = spec.contenders
    return colocation_processes(
        benchmark(spec.victim, lines, length=spec.length),
        [benchmark(c.bench, lines, length=spec.length) for c in contenders],
        seed=spec.seed,
        launch_stagger=spec.launch_stagger,
        relaunch=[c.relaunch for c in contenders],
        launch_periods=[c.launch_period for c in contenders],
    )


def execute(
    spec: RunSpec,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> RunResult:
    """Execute ``spec`` on the backend its ``backend`` field names.

    Emits a :class:`~repro.obs.RunSpecEvent` carrying the spec's digest
    before the run starts, so any resulting trace is self-describing.
    """
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
    return build_engine(
        spec.machine,
        _spec_processes(spec),
        backend=spec.backend,
        seed=spec.seed,
        slices_per_period=spec.slices_per_period,
        tracer=tracer,
        metrics=metrics,
        faults=spec.faults,
        caer_factory=None if spec.caer is None else caer_factory(spec.caer),
    ).run()


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
    spec — and cache entry — that produced it.  ``verdicts`` is CAER's
    decision log reduced to each period's assertion (``True``/``False``,
    ``None`` while the detector gathers evidence; empty without CAER),
    so a stored run can be scored against an oracle without a re-run.
    ``wall_seconds`` and ``telemetry`` are excluded from equality:
    parallel and serial executions of the same spec must compare
    identical, and a cached ``wall_seconds`` of 0.0 marks an entry that
    predates run timing.  ``verdicts`` is excluded too, so the outcome
    hashes pinned before it was recorded still hold.
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
    verdicts: list[bool | None] = field(default_factory=list, compare=False)
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
        verdicts=[record["assertion"] for record in result.caer_log],
        wall_seconds=round(time.perf_counter() - started, 3),
        telemetry=telemetry,
    )

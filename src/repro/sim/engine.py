"""The period loop, and the quantum-driven simulation engine.

One engine step is one CAER probe period (§3.2's 1 ms quantum).
:class:`PeriodEngine` is that loop, shared by every execution backend:

1. processes whose ``launch_period`` arrived are launched;
2. the backend executes the period (:meth:`PeriodEngine._execute_period`)
   and returns each process's true PMU sample and the one monitoring
   observes (they differ only under a fault plan);
3. the period is recorded: the true samples go into the
   :class:`~repro.sim.results.RunResult`, the observed ones into the
   trace;
4. the "timer interrupt" fires: the observed samples are handed to the
   period hooks — the CAER runtime lives here and may pause/resume,
   slow down or cap batch processes, which takes effect from the next
   period.

:class:`SimulationEngine` executes a period on a simulated chip, in
``slices_per_period`` sub-slices, each runnable process getting an
equal cycle budget per slice, with the service order rotated every
slice so no core systematically wins the shared-L3 race; processes that
ran to completion are recorded (and immediately relaunched if they are
relaunching batch apps, as in §6.1), and every process's perfmon
session is probed at the period's end.

The run ends when every non-relaunching process has completed (or
``max_periods`` elapses, which is reported as an error unless the caller
opted out).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import Callable, Iterable, Protocol

from ..arch.cache import fast_lane_enabled
from ..arch.chip import MulticoreChip
from ..arch.pmu import PMUSample
from ..config import MachineConfig
from ..errors import SchedulingError, SimulationError
from ..faults import FaultInjector, FaultPlan, FaultyPerfmonSession
from ..obs import NULL_TRACER, MetricsRegistry, PhaseEvent, PMUSampleEvent, Tracer
from ..obs.profiling import PROFILER
from ..perfmon.session import PerfmonSession
from .process import ProcessState, SimProcess
from .results import ProcessResult, RunResult

#: One period's PMU samples by process name.
Samples = dict[str, PMUSample]


class PeriodHook(Protocol):
    """Callback invoked at every period boundary.

    ``samples`` maps process name to that period's PMU deltas; the hook
    may call :meth:`PeriodEngine.set_paused` to throttle batch
    processes from the next period on.
    """

    def __call__(
        self,
        engine: "PeriodEngine",
        period: int,
        samples: Samples,
    ) -> None: ...


class PeriodEngine(ABC):
    """Drives a set of processes period by period.

    Everything the CAER runtime and the run record touch lives here:
    ``machine``, ``processes``, ``tracer``/``metrics``, the directive
    methods and ``run``.  A backend supplies how one period executes
    (:meth:`_execute_period`) and how an L3 quota takes hold
    (:meth:`_apply_quota`).
    """

    def __init__(
        self,
        machine: MachineConfig,
        machine_name: str,
        processes: Iterable[SimProcess],
        period_hooks: Iterable[PeriodHook],
        max_periods: int,
        tracer: Tracer | None,
        metrics: MetricsRegistry | None,
        faults: FaultPlan | None,
    ):
        # Observability is strictly passive: the tracer and registry
        # receive period-boundary events/observations and must never
        # influence the run (the golden pins hold traced).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.machine = machine
        self.processes: dict[str, SimProcess] = {}
        used_cores: set[int] = set()
        for proc in processes:
            if proc.name in self.processes:
                raise SchedulingError(f"duplicate process name {proc.name!r}")
            if proc.core_id in used_cores:
                raise SchedulingError(
                    f"core {proc.core_id} already has a process"
                )
            if not 0 <= proc.core_id < machine.num_cores:
                raise SchedulingError(
                    f"process {proc.name!r} wants core {proc.core_id} but "
                    f"the machine has {machine.num_cores} cores"
                )
            used_cores.add(proc.core_id)
            self.processes[proc.name] = proc
        if not self.processes:
            raise SchedulingError("no processes to run")
        self.period_hooks = list(period_hooks)
        self.max_periods = max_periods
        self.period = 0
        # A non-null fault plan perturbs what monitoring observes; the
        # physical record keeps the true samples.
        self.fault_injector: FaultInjector | None = None
        if faults is not None and not faults.is_null():
            self.fault_injector = FaultInjector(
                faults, tracer=self.tracer, metrics=metrics
            )
        #: completions already traced, per process (the trace emits one
        #: ``relaunched`` phase per completion of a relaunching process)
        self._traced_completions = dict.fromkeys(self.processes, 0)
        self._pending_pause: dict[str, bool] = {}
        self._pending_speed: dict[str, float] = {}
        self._pending_quota: dict[str, float | None] = {}
        self.result = RunResult(
            machine_name=machine_name,
            period_cycles=machine.period_cycles,
        )
        for name, proc in self.processes.items():
            self.result.processes[name] = ProcessResult(
                name=name,
                app_class=proc.app_class,
                core_id=proc.core_id,
                launch_period=proc.launch_period,
            )
        # Resolved once: a registry lookup per period costs more than
        # the observation itself.
        self._period_counter = None
        if metrics is not None:
            self._period_counter = metrics.counter("sim.periods")
        #: per process, in order: its name, the process, the appends of
        #: its record's state, sample and speed series, and its miss
        #: histogram (None without metrics).  The appends are
        #: ProcessResult.record's, bound once: a call per process per
        #: period would cost as much as the appends themselves.
        self._slots = []
        for name, proc in self.processes.items():
            record = self.result.processes[name]
            self._slots.append((
                name, proc,
                record.states.append,
                record.samples.append,
                record.speeds.append,
                None if metrics is None else metrics.histogram(
                    f"sim.llc_misses_per_period.{name}"
                ),
            ))
        self._procs = list(self.processes.values())
        #: processes not yet seen launched, in order
        self._waiting = list(self._procs)

    # -- what a backend supplies -----------------------------------------

    @abstractmethod
    def _execute_period(self, period: int) -> tuple[Samples, Samples]:
        """Execute one period; return the true and the observed samples."""

    @abstractmethod
    def _apply_quota(self, name: str, fraction: float | None) -> None:
        """Cap process ``name``'s L3 occupancy (``None`` lifts the cap)."""

    # -- control interface exposed to hooks ------------------------------

    def set_paused(self, name: str, paused: bool) -> None:
        """Request a throttle state change, effective next period."""
        if name not in self.processes:
            self.process(name)  # raises
        self._pending_pause[name] = paused

    def set_speed(self, name: str, factor: float) -> None:
        """Request a frequency-scaling change, effective next period."""
        if name not in self.processes:
            self.process(name)  # raises
        self._pending_speed[name] = factor

    def set_l3_quota(self, name: str, fraction: float | None) -> None:
        """Request an L3 occupancy cap, effective next period."""
        if name not in self.processes:
            self.process(name)  # raises
        self._pending_quota[name] = fraction

    def process(self, name: str) -> SimProcess:
        """Look up a live process by name."""
        try:
            return self.processes[name]
        except KeyError:
            raise SchedulingError(f"no process named {name!r}") from None

    def log_decision(self, record: dict) -> None:
        """Append a CAER decision record to the run log."""
        self.result.caer_log.append(record)

    # -- main loop --------------------------------------------------------

    def run(self, stop_when: Callable[["PeriodEngine"], bool]
            | None = None) -> RunResult:
        """Run to completion and return the result record.

        ``stop_when`` overrides the default termination test ("every
        non-relaunching process finished").
        """
        done = stop_when or _default_stop(self)
        while not done(self):
            if self.period >= self.max_periods:
                raise SimulationError(
                    f"run exceeded max_periods={self.max_periods}; "
                    "workloads may be mis-sized for this machine"
                )
            self._step_period()
        self.result.total_periods = self.period
        self._finalise()
        return self.result

    def _step_period(self) -> None:
        period = self.period
        if self._waiting:
            self._apply_launches(period)
        states_at_start = [proc.state for proc in self._procs]
        # Wall-clock span profiling (metrics-only; trace events stay
        # free of host time).  Disabled, this is one attribute read.
        if PROFILER.enabled:
            started = perf_counter()
            true, observed = self._execute_period(period)
            PROFILER.observe(
                "profile.engine_period_seconds", perf_counter() - started
            )
        else:
            true, observed = self._execute_period(period)
        self._record(period, states_at_start, true, observed)
        for hook in self.period_hooks:
            hook(self, period, observed)
        if self._pending_pause or self._pending_speed or \
                self._pending_quota:
            self._apply_pending()
        self.period += 1

    def _apply_launches(self, period: int) -> None:
        waiting = []
        for proc in self._waiting:
            if proc.state is not ProcessState.WAITING:
                continue
            if proc.launch_period > period:
                waiting.append(proc)
                continue
            proc.launch()
            if self.tracer.enabled:
                self.tracer.emit(PhaseEvent(
                    period=period, scope="process",
                    subject=proc.name, phase="launched",
                ))
        self._waiting = waiting

    def _record(
        self,
        period: int,
        states_at_start: list[ProcessState],
        true: Samples,
        observed: Samples,
    ) -> None:
        running = ProcessState.RUNNING
        paused = ProcessState.PAUSED
        tracing = self.tracer.enabled
        for slot, state in zip(self._slots, states_at_start):
            name, proc, add_state, add_sample, add_speed, histogram = slot
            # The physical record and the histogram profile physical
            # behaviour, so they get the true reading; the trace is the
            # signal-path view and keeps the observed one.
            sample = true[name]
            add_state(state)
            add_sample(sample)
            add_speed(proc.speed_factor)
            now = proc.state
            if now is running:
                proc.periods_running += 1
            elif now is paused:
                proc.periods_paused += 1
            if tracing:
                self._trace_process(period, proc, state, observed[name])
            if histogram is not None:
                histogram.observe(sample.llc_misses)
        if self._period_counter is not None:
            self._period_counter.inc()

    def _trace_process(
        self,
        period: int,
        proc: SimProcess,
        state: ProcessState,
        seen: PMUSample,
    ) -> None:
        """Emit one process's sample and lifecycle events of a period."""
        name = proc.name
        self.tracer.emit(PMUSampleEvent(
            period=period,
            process=name,
            state=state.name.lower(),
            cycles=seen.cycles,
            instructions=seen.instructions,
            llc_misses=seen.llc_misses,
            llc_references=seen.llc_references,
        ))
        if proc.state is ProcessState.FINISHED and \
                state is not ProcessState.FINISHED:
            self.tracer.emit(PhaseEvent(
                period=period, scope="process",
                subject=name, phase="completed",
            ))
        # A relaunching process stays RUNNING through each
        # completion: trace every run it completed this period.
        if proc.relaunch:
            traced = self._traced_completions[name]
            for _ in range(traced, proc.completions):
                self.tracer.emit(PhaseEvent(
                    period=period, scope="process",
                    subject=name, phase="relaunched",
                ))
            self._traced_completions[name] = proc.completions

    def _apply_pending(self) -> None:
        for name, paused in self._pending_pause.items():
            self.processes[name].set_paused(paused)
        self._pending_pause.clear()
        for name, factor in self._pending_speed.items():
            self.processes[name].set_speed(factor)
        self._pending_speed.clear()
        for name, fraction in self._pending_quota.items():
            self._apply_quota(name, fraction)
        self._pending_quota.clear()

    def _finalise(self) -> None:
        for name, proc in self.processes.items():
            record = self.result.processes[name]
            record.completions = proc.completions
            record.first_completion_period = proc.first_completion_period
            record.instructions_retired = (
                proc.workload.instructions_retired
                + proc.completions * proc.spec.total_instructions
                if proc.relaunch
                else proc.workload.instructions_retired
            )


def _default_stop(engine: PeriodEngine) -> Callable[[PeriodEngine], bool]:
    """The default stop test of one run: every non-relaunching process
    completed.  Its primaries are resolved once, when the run starts."""
    primaries = [p for p in engine.processes.values() if not p.relaunch]
    if not primaries:
        raise SimulationError(
            "all processes relaunch forever; pass an explicit stop_when"
        )
    finished = ProcessState.FINISHED

    def done(_: PeriodEngine) -> bool:
        for proc in primaries:
            if proc.state is not finished:
                return False
        return True

    return done


class SimulationEngine(PeriodEngine):
    """Executes each period on a simulated chip, access by access."""

    def __init__(
        self,
        chip: MulticoreChip,
        processes: Iterable[SimProcess],
        period_hooks: Iterable[PeriodHook] = (),
        slices_per_period: int = 8,
        max_periods: int = 200_000,
        probe_overhead_cycles: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultPlan | None = None,
    ):
        if slices_per_period < 1:
            raise SimulationError(
                f"slices_per_period must be >= 1: {slices_per_period}"
            )
        super().__init__(
            chip.machine, chip.machine.name, processes, period_hooks,
            max_periods, tracer, metrics, faults,
        )
        if self.metrics is not None:
            # Record which execution tier served this run (generic or
            # fast) so perf profiles are attributable; the per-core
            # ``sim.path.*`` counters say which path served each
            # access.  Telemetry only — never part of RunResult, which
            # must hash identically across both tiers.
            fast = fast_lane_enabled()
            self.metrics.gauge("sim.fast_lane").set(1.0 if fast else 0.0)
        self.chip = chip
        self.slices_per_period = slices_per_period
        session_kwargs = {}
        if probe_overhead_cycles is not None:
            session_kwargs["probe_overhead_cycles"] = probe_overhead_cycles
        self.sessions: dict[str, PerfmonSession | FaultyPerfmonSession] = {
            name: PerfmonSession(
                chip.pmu(proc.core_id), chip.core(proc.core_id),
                **session_kwargs,
            )
            for name, proc in self.processes.items()
        }
        # Under a fault plan the faulty-session wrapper interposes:
        # probes still charge their overhead and keep the true sample,
        # but what probe() returns is the perturbed signal.
        if self.fault_injector is not None:
            self.sessions = {
                name: FaultyPerfmonSession(
                    session, self.fault_injector.channel(name)
                )
                for name, session in self.sessions.items()
            }

    def _execute_period(self, period: int) -> tuple[Samples, Samples]:
        # The periodic PMU probe consumes core cycles (charged by the
        # perfmon session); the work budget shrinks accordingly.
        period_cycles = self.machine.period_cycles
        budgets = {
            name: max(
                0.0,
                period_cycles - self.sessions[name].probe_overhead_cycles,
            )
            / self.slices_per_period
            for name in self.processes
        }
        names = list(self.processes)
        for s in range(self.slices_per_period):
            # Rotate service order so shared-resource priority is fair.
            order = names[s % len(names):] + names[:s % len(names)]
            for name in order:
                proc = self.processes[name]
                if proc.finished and proc.state is not ProcessState.FINISHED:
                    proc.note_completion(period)
                if not proc.runnable:
                    continue
                core = self.chip.core(proc.core_id)
                core.run(proc, budgets[name] * proc.speed_factor)
                if proc.finished:
                    proc.note_completion(period)
        self.chip.memory.end_period(period_cycles)
        observed = {
            name: session.probe() for name, session in self.sessions.items()
        }
        if self.fault_injector is None:
            return observed, observed
        true = {
            name: session.true_sample
            for name, session in self.sessions.items()
        }
        return true, observed

    def _apply_quota(self, name: str, fraction: float | None) -> None:
        core = self.processes[name].core_id
        self.chip.hierarchy.set_l3_quota(core, fraction)

    def _finalise(self) -> None:
        if self.metrics is not None:
            # Which path served the run's accesses, counted per batch
            # by the cores (the tier gauge above says only which flag
            # was on).  Telemetry only, like the gauge.
            cores = sorted({p.core_id for p in self.processes.values()})
            for core_id in cores:
                counts = self.chip.core(core_id).path_counts()
                for key, count in counts.items():
                    self.metrics.counter(f"sim.{key}").inc(count)
        super()._finalise()

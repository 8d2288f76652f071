"""The quantum-driven simulation engine.

One engine step is one CAER probe period (§3.2's 1 ms quantum):

1. processes whose ``launch_period`` arrived are launched;
2. the period is executed in ``slices_per_period`` sub-slices, each
   runnable process getting an equal cycle budget per slice, with the
   service order rotated every slice so no core systematically wins the
   shared-L3 race;
3. processes that ran to completion are recorded (and immediately
   relaunched if they are relaunching batch apps, as in §6.1);
4. the "timer interrupt" fires: every process's perfmon session is
   probed and the per-period samples handed to the period hooks — the
   CAER runtime lives here and may pause/resume batch processes, which
   takes effect from the next period.

The run ends when every non-relaunching process has completed (or
``max_periods`` elapses, which is reported as an error unless the caller
opted out).
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from ..arch.cache import fast_lane_enabled
from ..arch.chip import MulticoreChip
from ..arch.pmu import PMUSample
from ..errors import SchedulingError, SimulationError
from ..faults import FaultInjector, FaultPlan, FaultyPerfmonSession
from ..obs import NULL_TRACER, MetricsRegistry, PhaseEvent, PMUSampleEvent, Tracer
from ..obs.profiling import PROFILER
from ..perfmon.session import PerfmonSession
from .clock import SimClock
from .process import ProcessState, SimProcess
from .results import ProcessResult, RunResult


class PeriodHook(Protocol):
    """Callback invoked at every period boundary.

    ``samples`` maps process name to that period's PMU deltas; the hook
    may call :meth:`SimulationEngine.set_paused` to throttle batch
    processes from the next period on.
    """

    def __call__(
        self,
        engine: "SimulationEngine",
        period: int,
        samples: dict[str, PMUSample],
    ) -> None: ...


class SimulationEngine:
    """Drives a chip and a set of processes period by period."""

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
        # Observability is strictly passive: the tracer and registry
        # receive period-boundary events/observations and must never
        # influence the simulation (enforced by the trace-transparency
        # property tests).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if self.metrics is not None:
            # Record which execution tier served this run (generic or
            # fast) so perf profiles are attributable; the per-core
            # ``sim.path.*`` counters say which path served each
            # access.  Telemetry only — never part of RunResult, which
            # must hash identically across both tiers.
            fast = fast_lane_enabled()
            self.metrics.gauge("sim.fast_lane").set(1.0 if fast else 0.0)
        self.chip = chip
        self.processes: dict[str, SimProcess] = {}
        used_cores: set[int] = set()
        for proc in processes:
            if proc.name in self.processes:
                raise SchedulingError(f"duplicate process name {proc.name!r}")
            if proc.core_id in used_cores:
                raise SchedulingError(
                    f"core {proc.core_id} already has a process"
                )
            if proc.core_id >= chip.num_cores:
                raise SchedulingError(
                    f"process {proc.name!r} wants core {proc.core_id} but "
                    f"the chip has {chip.num_cores} cores"
                )
            used_cores.add(proc.core_id)
            self.processes[proc.name] = proc
        if not self.processes:
            raise SchedulingError("no processes to run")
        if slices_per_period < 1:
            raise SimulationError(
                f"slices_per_period must be >= 1: {slices_per_period}"
            )
        self.period_hooks = list(period_hooks)
        self.slices_per_period = slices_per_period
        self.max_periods = max_periods
        self.clock = SimClock(chip.machine.period_cycles)
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
        # A non-null fault plan interposes the faulty-session wrapper:
        # probes still charge their overhead and the physical record
        # keeps the true samples, but everything downstream of probe()
        # (the period hooks, so CAER) observes the perturbed signal.
        self.fault_injector: FaultInjector | None = None
        if faults is not None and not faults.is_null():
            self.fault_injector = FaultInjector(
                faults, tracer=self.tracer, metrics=self.metrics
            )
            self.sessions = {
                name: FaultyPerfmonSession(
                    session, self.fault_injector.channel(name)
                )
                for name, session in self.sessions.items()
            }
        self._pending_pause: dict[str, bool] = {}
        self._pending_speed: dict[str, float] = {}
        self._pending_quota: dict[str, float | None] = {}
        self.result = RunResult(
            machine_name=chip.machine.name,
            period_cycles=chip.machine.period_cycles,
        )
        for name, proc in self.processes.items():
            self.result.processes[name] = ProcessResult(
                name=name,
                app_class=proc.app_class,
                core_id=proc.core_id,
                launch_period=proc.launch_period,
            )

    # -- control interface exposed to hooks ------------------------------

    def set_paused(self, name: str, paused: bool) -> None:
        """Request a throttle state change, effective next period."""
        if name not in self.processes:
            raise SchedulingError(f"no process named {name!r}")
        self._pending_pause[name] = paused

    def set_speed(self, name: str, factor: float) -> None:
        """Request a frequency-scaling change, effective next period."""
        if name not in self.processes:
            raise SchedulingError(f"no process named {name!r}")
        self._pending_speed[name] = factor

    def set_l3_quota(self, name: str, fraction: float | None) -> None:
        """Request an L3 occupancy cap, effective next period."""
        if name not in self.processes:
            raise SchedulingError(f"no process named {name!r}")
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

    def run(self, stop_when: Callable[["SimulationEngine"], bool]
            | None = None) -> RunResult:
        """Run to completion and return the result record.

        ``stop_when`` overrides the default termination test ("every
        non-relaunching process finished").
        """
        done = stop_when or _all_primary_finished
        while True:
            if done(self):
                break
            if self.clock.period >= self.max_periods:
                raise SimulationError(
                    f"run exceeded max_periods={self.max_periods}; "
                    "workloads may be mis-sized for this machine"
                )
            self._step_period()
        self.result.total_periods = self.clock.period
        self._finalise()
        return self.result

    def _step_period(self) -> None:
        period = self.clock.period
        self._apply_launches(period)
        states_at_start = {
            name: proc.state for name, proc in self.processes.items()
        }
        # Wall-clock span profiling (metrics-only; trace events stay
        # free of host time).  Disabled, this is one attribute read.
        if PROFILER.enabled:
            with PROFILER.span("profile.engine_period_seconds"):
                self._execute_slices(period)
        else:
            self._execute_slices(period)
        self.chip.memory.end_period(self.chip.machine.period_cycles)
        self._probe_and_record(period, states_at_start)
        self._apply_pending_pauses()
        self.clock.advance_period()

    def _apply_launches(self, period: int) -> None:
        for proc in self.processes.values():
            if proc.state is ProcessState.WAITING and \
                    proc.launch_period <= period:
                proc.launch()
                if self.tracer.enabled:
                    self.tracer.emit(PhaseEvent(
                        period=period, scope="process",
                        subject=proc.name, phase="launched",
                    ))

    def _execute_slices(self, period: int) -> None:
        # The periodic PMU probe consumes core cycles (charged by the
        # perfmon session); the work budget shrinks accordingly.
        period_cycles = self.chip.machine.period_cycles
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

    def _probe_and_record(
        self, period: int, states_at_start: dict[str, ProcessState]
    ) -> None:
        samples: dict[str, PMUSample] = {}
        faulty = self.fault_injector is not None
        for name, proc in self.processes.items():
            session = self.sessions[name]
            # ``sample`` is what monitoring observes; the physical
            # record always keeps the true reading (identical unless a
            # fault plan interposed the faulty-session wrapper).
            sample = session.probe()
            true = session.true_sample if faulty else sample
            samples[name] = sample
            record = self.result.processes[name]
            record.record(states_at_start[name], true,
                          speed=proc.speed_factor)
            if proc.state is ProcessState.RUNNING:
                proc.periods_running += 1
            elif proc.state is ProcessState.PAUSED:
                proc.periods_paused += 1
            if self.tracer.enabled:
                self.tracer.emit(PMUSampleEvent(
                    period=period,
                    process=name,
                    state=states_at_start[name].name.lower(),
                    cycles=sample.cycles,
                    instructions=sample.instructions,
                    llc_misses=sample.llc_misses,
                    llc_references=sample.llc_references,
                ))
                if proc.state is ProcessState.FINISHED and \
                        states_at_start[name] is not ProcessState.FINISHED:
                    self.tracer.emit(PhaseEvent(
                        period=period, scope="process",
                        subject=name, phase="completed",
                    ))
            if self.metrics is not None:
                # The histogram profiles physical behaviour, so it gets
                # the true reading; the trace above is the signal-path
                # view and keeps the observed one.
                self.metrics.histogram(
                    f"sim.llc_misses_per_period.{name}"
                ).observe(true.llc_misses)
        if self.metrics is not None:
            self.metrics.counter("sim.periods").inc()
        for hook in self.period_hooks:
            hook(self, period, samples)

    def _apply_pending_pauses(self) -> None:
        for name, paused in self._pending_pause.items():
            self.processes[name].set_paused(paused)
        self._pending_pause.clear()
        for name, factor in self._pending_speed.items():
            self.processes[name].set_speed(factor)
        self._pending_speed.clear()
        for name, fraction in self._pending_quota.items():
            core = self.processes[name].core_id
            self.chip.hierarchy.set_l3_quota(core, fraction)
        self._pending_quota.clear()

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


def _all_primary_finished(engine: SimulationEngine) -> bool:
    """Default stop test: every non-relaunching process completed."""
    primaries = [p for p in engine.processes.values() if not p.relaunch]
    if not primaries:
        raise SimulationError(
            "all processes relaunch forever; pass an explicit stop_when"
        )
    return all(p.state is ProcessState.FINISHED for p in primaries)

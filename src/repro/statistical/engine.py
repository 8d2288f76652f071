"""The statistical engine: closed-form period stepping.

Each period, for every runnable process:

1. the current phase's miss-rate curve is evaluated at the process's
   *current* L3 occupancy (plus the private levels at their fixed
   sizes) to get the hit-level split;
2. the per-access cost follows the trace engine's core model (compute
   cycles + latency-weighted stalls over the phase's MLP), including
   last period's memory queueing delay;
3. the period's cycle budget (scaled by any DVFS directive) converts
   into accesses, instructions, and misses;
4. the shared-L3 occupancy state advances: every process inserts its
   missed lines, and when the cache overflows the excess is charged
   mostly to the *inserters* (LRU protects re-referenced lines, and a
   process's own insertions are what push its unprotected tail out)
   plus a small occupancy leak, so an idle footprint still decays over
   tens of periods — giving CAER's detectors realistic transients
   (a paused contender's lines drain as the victim reclaims them);
5. per-process PMU samples are assembled (and perturbed for
   monitoring under a fault plan); :class:`~repro.sim.engine.PeriodEngine`
   records them and hands them to the period hooks, exactly as for the
   trace engine.

Occupancy quotas (the cache-partition response) cap step 4's insertion
for the quota'd process.  Probe overhead shrinks the cycle budget as in
the trace engine.
"""

from __future__ import annotations

from typing import Iterable

from ..analytic.mrc import MissRateCurve, profile_patterns
from ..arch.memory import MAX_RHO
from ..arch.pmu import PMUSample
from ..config import MachineConfig
from ..faults import FaultPlan
from ..obs import MetricsRegistry, Tracer
from ..sim.engine import PeriodEngine, PeriodHook, Samples
from ..sim.process import SimProcess

#: Accesses sampled per phase when building miss-rate curves.
PROFILE_SAMPLES = 40_000

#: Default per-probe cost, matching the perfmon layer.
DEFAULT_PROBE_OVERHEAD_CYCLES = 20.0


class _ProcessModel:
    """Analytic state of one process: phase profiles + L3 occupancy.

    ``mrcs[i]`` is phase ``i``'s miss-rate curve.  The curves come from
    :func:`~repro.analytic.mrc.profile_patterns`, keyed by the phases'
    pattern specs and the process seed, so every run of the same
    workload and seed in a process shares one build (the statistical
    engine's only expensive step).
    """

    def __init__(self, proc: SimProcess, machine: MachineConfig):
        self.proc = proc
        self.machine = machine
        self.occupancy = 0.0
        #: first-touch (compulsory) misses still owed; unlike the MRC's
        #: constant cold fraction these happen once per footprint.
        self.cold_remaining = float(proc.spec.footprint_lines() or 0)
        self.mrcs = profile_patterns(
            tuple(phase.pattern for phase in proc.spec.phases),
            proc.seed,
            PROFILE_SAMPLES,
        )

    def current_mrc(self) -> MissRateCurve:
        index = self.proc.workload._phase_index
        return self.mrcs[index]

    def step_cost(self, queue_delay: float) -> tuple[float, float, float]:
        """(cycles/access, L3-reference fraction, miss fraction).

        The MRC's compulsory floor is removed from the steady miss
        fraction — first touches are charged from ``cold_remaining``
        instead, once — and added back while the cold budget lasts.
        """
        machine = self.machine
        lat = machine.latencies
        phase = self.proc.current_phase()
        mrc = self.current_mrc()
        # Only the transient portion of the cold misses is exempt from
        # steady state.  Single-touch lines (the MRC cannot see their
        # revisits) keep missing exactly while the cache does not hold
        # the whole footprint: a zipf tail is safe once resident, a
        # beyond-cache walk never is.
        transient = (
            mrc.transient_cold_fraction
            if self.cold_remaining > 0
            else 0.0
        )
        footprint = float(mrc.footprint())
        singles_resident = self.occupancy >= 0.95 * min(
            footprint, float(machine.l3.capacity_lines)
        ) and footprint <= machine.l3.capacity_lines
        h1 = mrc.hit_rate(machine.l1.capacity_lines)
        h2 = max(h1, mrc.hit_rate(machine.l2.capacity_lines))
        l3_reach = max(
            machine.l2.capacity_lines,
            min(self.occupancy, machine.l3.capacity_lines),
        )
        h3 = max(h2, mrc.hit_rate(l3_reach))
        exempt = mrc.transient_cold_fraction - transient
        if singles_resident:
            exempt += mrc.singleton_fraction
        miss_fraction = max(0.0, (1.0 - h3) - exempt)
        reference_fraction = max(
            miss_fraction, max(0.0, (1.0 - h2) - exempt)
        )
        stall = (
            max(0.0, reference_fraction - miss_fraction)
            * (lat.l3 - lat.l1)
            + max(0.0, (h2 - h1)) * (lat.l2 - lat.l1)
            + miss_fraction * (lat.memory + queue_delay - lat.l1)
        )
        cost = (
            phase.compute_cycles_per_access + stall / phase.overlap
        )
        return cost, reference_fraction, miss_fraction


class StatisticalEngine(PeriodEngine):
    """Executes each period in closed form.

    The period loop, the directive interface CAER drives and the run
    record are :class:`~repro.sim.engine.PeriodEngine`'s, shared with
    the trace engine; this class supplies only the period itself.
    """

    def __init__(
        self,
        machine: MachineConfig,
        processes: Iterable[SimProcess],
        period_hooks: Iterable[PeriodHook] = (),
        max_periods: int = 500_000,
        probe_overhead_cycles: float = DEFAULT_PROBE_OVERHEAD_CYCLES,
        service_cycles: float = 36.0,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults: FaultPlan | None = None,
    ):
        super().__init__(
            machine, f"{machine.name}/statistical", processes,
            period_hooks, max_periods, tracer, metrics, faults,
        )
        self._models = {
            name: _ProcessModel(proc, machine)
            for name, proc in self.processes.items()
        }
        self.probe_overhead_cycles = probe_overhead_cycles
        self.service_cycles = service_cycles
        self._queue_delay = 0.0
        self._rho = 0.0
        self._quotas: dict[str, float | None] = {
            name: None for name in self.processes
        }

    def _execute_period(self, period: int) -> tuple[Samples, Samples]:
        budget = max(
            0.0,
            self.machine.period_cycles - self.probe_overhead_cycles,
        )

        samples: Samples = {}
        insertions: dict[str, float] = {}
        total_misses = 0.0
        for name, proc in self.processes.items():
            if not proc.runnable:
                samples[name] = PMUSample.zero()
                insertions[name] = 0.0
                continue
            model = self._models[name]
            cost, reference_fraction, miss_fraction = model.step_cost(
                self._queue_delay
            )
            cycles = budget * proc.speed_factor
            accesses = cycles / cost
            phase = proc.current_phase()
            instructions = accesses * phase.instructions_per_access
            remaining = proc.workload.instructions_remaining
            if instructions >= remaining:
                fraction = remaining / instructions
                accesses *= fraction
                cycles *= fraction
                instructions = remaining
            # Phase rotation note: a period's instructions are all
            # priced at the period-start phase, so a boundary crossed
            # mid-period is attributed one period late — the same
            # granularity CAER itself observes at.
            self._account_instructions(proc, instructions)
            misses = accesses * miss_fraction
            cold_spent = min(
                model.cold_remaining,
                accesses * model.current_mrc().transient_cold_fraction,
            )
            model.cold_remaining -= cold_spent
            total_misses += misses
            insertions[name] = misses
            samples[name] = PMUSample(
                cycles=cycles,
                instructions=instructions,
                llc_misses=int(misses),
                llc_references=int(accesses * reference_fraction),
                l2_misses=int(accesses * reference_fraction),
                l1_misses=int(accesses * reference_fraction),
                back_invalidations=0,
                lines_stolen=0,
            )
            if proc.finished:
                # A relaunched instance reuses the same phase profiles.
                proc.note_completion(period)

        self._advance_occupancy(insertions)
        self._advance_memory(total_misses)
        if self.fault_injector is None:
            return samples, samples
        return samples, self.fault_injector.observe_all(period, samples)

    def _apply_quota(self, name: str, fraction: float | None) -> None:
        self._quotas[name] = fraction

    @staticmethod
    def _account_instructions(proc: SimProcess, instructions: float) -> None:
        """Advance the workload by a fractional instruction count."""
        workload = proc.workload
        phase = workload.current_phase()
        accesses = instructions / phase.instructions_per_access
        # account() is integer-access based; emulate fractional progress
        # by adjusting the remaining counters directly through repeated
        # whole-access accounting plus a remainder carried in-place.
        whole = int(accesses)
        if whole:
            workload.account(whole)
        remainder = (accesses - whole) * phase.instructions_per_access
        if remainder and not workload.finished:
            workload.instructions_retired += remainder
            workload._phase_remaining -= remainder
            workload._total_remaining -= remainder
            if workload._total_remaining <= 1e-9:
                workload.finished = True

    #: weight of resident occupancy (vs. fresh insertions) in the
    #: eviction split: small, so re-referenced footprints are mostly
    #: protected but idle ones still leak.
    OCCUPANCY_LEAK = 0.25

    def _advance_occupancy(self, insertions: dict[str, float]) -> None:
        capacity = float(self.machine.l3.capacity_lines)
        for name, inserted in insertions.items():
            model = self._models[name]
            quota = self._quotas[name]
            cap = capacity if quota is None else quota * capacity
            footprint = float(
                self.processes[name].spec.footprint_lines() or capacity
            )
            model.occupancy = min(
                model.occupancy + inserted, cap, footprint
            )
        total = sum(m.occupancy for m in self._models.values())
        overflow = total - capacity
        if overflow <= 0:
            return
        weights: dict[str, float] = {}
        for name, model in self._models.items():
            # A footprint small enough to be re-referenced every few
            # periods is LRU-protected against streaming insertions
            # (hits keep its lines at MRU); only occupancy beyond that
            # floor leaks.
            footprint = float(
                self.processes[name].spec.footprint_lines() or 0
            )
            protected = (
                footprint if footprint <= 0.25 * capacity else 0.0
            )
            leakable = max(0.0, model.occupancy - protected)
            weights[name] = (
                insertions[name] + self.OCCUPANCY_LEAK * leakable
            )
        weight_sum = sum(weights.values())
        if weight_sum <= 0:
            return
        for name, model in self._models.items():
            evicted = overflow * weights[name] / weight_sum
            model.occupancy = max(0.0, model.occupancy - evicted)

    def _advance_memory(self, total_misses: float) -> None:
        raw = min(
            total_misses * self.service_cycles
            / self.machine.period_cycles,
            MAX_RHO,
        )
        self._rho += 0.5 * (raw - self._rho)
        self._queue_delay = (
            self.service_cycles * self._rho / (2.0 * (1.0 - self._rho))
        )

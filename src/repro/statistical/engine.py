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

Only step 1's L3 hit rate depends on the period: everything else a
period reads — the private-level hit rates, the cold and singleton
fractions, the footprint and its residency threshold, the phase's
cost parameters, the capacities and the cycle budget — is fixed per
process and phase, and is computed once when the engine is built.  So
a period costs one bisect of a miss-rate curve per runnable process.

Occupancy quotas (the cache-partition response) cap step 4's insertion
for the quota'd process.  Probe overhead shrinks the cycle budget as in
the trace engine.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from ..analytic.mrc import MissRateCurve, profile_patterns
from ..arch.memory import MAX_RHO
from ..arch.pmu import PMUSample
from ..config import MachineConfig
from ..faults import FaultPlan
from ..obs import MetricsRegistry, Tracer
from ..sim.engine import PeriodEngine, PeriodHook, Samples
from ..sim.process import ProcessState, SimProcess
from ..workloads.base import PhaseSpec, WorkloadInstance

#: Accesses sampled per phase when building miss-rate curves.
PROFILE_SAMPLES = 40_000

#: Default per-probe cost, matching the perfmon layer.
DEFAULT_PROBE_OVERHEAD_CYCLES = 20.0

#: The sample of a period a process did not run.
_IDLE = PMUSample.zero()


class _PhaseModel(NamedTuple):
    """What a period needs of one phase, derived once per run."""

    mrc: MissRateCurve
    #: hit rate at the L2's size (at least the L1's)
    hit_l2: float
    #: the L2-hit stall per access, before the phase's overlap
    l2_stall: float
    #: the MRC's transient cold and singleton fractions
    transient: float
    singleton: float
    #: the lines the MRC holds exempt once the cold budget is spent and
    #: the singletons are resident
    transient_singleton: float
    #: occupancy from which the phase's singletons stay resident
    #: (infinite when its footprint exceeds the L3)
    resident_at: float
    compute_cycles_per_access: float
    overlap: float
    instructions_per_access: float

    @classmethod
    def build(
        cls, spec: PhaseSpec, mrc: MissRateCurve, machine: MachineConfig
    ) -> "_PhaseModel":
        lat = machine.latencies
        l3_lines = machine.l3.capacity_lines
        h1 = mrc.hit_rate(machine.l1.capacity_lines)
        h2 = max(h1, mrc.hit_rate(machine.l2.capacity_lines))
        footprint = float(mrc.footprint())
        transient = mrc.transient_cold_fraction
        singleton = mrc.singleton_fraction
        return cls(
            mrc=mrc,
            hit_l2=h2,
            l2_stall=max(0.0, (h2 - h1)) * (lat.l2 - lat.l1),
            transient=transient,
            singleton=singleton,
            transient_singleton=transient + singleton,
            resident_at=(
                0.95 * min(footprint, float(l3_lines))
                if footprint <= l3_lines
                else math.inf
            ),
            compute_cycles_per_access=spec.compute_cycles_per_access,
            overlap=spec.overlap,
            instructions_per_access=spec.instructions_per_access,
        )


class _ProcessModel:
    """Analytic state of one process: phase models + L3 occupancy.

    ``phases[i]`` holds phase ``i``'s miss-rate curve and every constant
    a period derives from it.  The curves come from
    :func:`~repro.analytic.mrc.profile_patterns`, keyed by the phases'
    pattern specs and the process seed, so every run of the same
    workload and seed in a process shares one build (the statistical
    engine's only expensive step).  A relaunched batch instance runs
    the same spec, so the phase models outlive it.
    """

    def __init__(self, proc: SimProcess, machine: MachineConfig):
        self.occupancy = 0.0
        #: the L3 occupancy cap of the partition response (None = none)
        self.quota: float | None = None
        spec = proc.spec
        footprint = spec.footprint_lines()
        capacity = float(machine.l3.capacity_lines)
        #: first-touch (compulsory) misses still owed; unlike the MRC's
        #: constant cold fraction these happen once per footprint.
        self.cold_remaining = float(footprint or 0)
        #: occupancy beyond the footprint cannot be held (the L3's
        #: size bounds an unknown footprint)
        self.occupancy_cap = float(footprint or capacity)
        #: A footprint small enough to be re-referenced every few
        #: periods is LRU-protected against streaming insertions (hits
        #: keep its lines at MRU); only occupancy beyond it leaks.
        self.protected = (
            self.cold_remaining
            if self.cold_remaining <= 0.25 * capacity
            else 0.0
        )
        mrcs = profile_patterns(
            tuple(phase.pattern for phase in spec.phases),
            proc.seed,
            PROFILE_SAMPLES,
        )
        self.phases = tuple(
            _PhaseModel.build(phase, mrc, machine)
            for phase, mrc in zip(spec.phases, mrcs)
        )
        self._l2_lines = machine.l2.capacity_lines
        self._l3_lines = machine.l3.capacity_lines
        lat = machine.latencies
        self._l3_extra = lat.l3 - lat.l1

    def step_cost(
        self, phase: _PhaseModel, miss_latency: float
    ) -> tuple[float, float, float]:
        """(cycles/access, L3-reference fraction, miss fraction).

        ``miss_latency`` is this period's memory latency beyond an L1
        hit, queueing delay included.  The MRC's compulsory floor is
        removed from the steady miss fraction — first touches are
        charged from ``cold_remaining`` instead, once — and added back
        while the cold budget lasts.
        """
        occupancy = self.occupancy
        cold = self.cold_remaining > 0
        # Only the transient portion of the cold misses is exempt from
        # steady state.  Single-touch lines (the MRC cannot see their
        # revisits) keep missing exactly while the cache does not hold
        # the whole footprint: a zipf tail is safe once resident, a
        # beyond-cache walk never is.
        if occupancy >= phase.resident_at:
            exempt = phase.singleton if cold else phase.transient_singleton
        else:
            exempt = 0.0 if cold else phase.transient
        h2 = phase.hit_l2
        l3_reach = max(self._l2_lines, min(occupancy, self._l3_lines))
        h3 = max(h2, phase.mrc.hit_rate(l3_reach))
        miss_fraction = max(0.0, (1.0 - h3) - exempt)
        reference_fraction = max(
            miss_fraction, max(0.0, (1.0 - h2) - exempt)
        )
        stall = (
            max(0.0, reference_fraction - miss_fraction) * self._l3_extra
            + phase.l2_stall
            + miss_fraction * miss_latency
        )
        cost = phase.compute_cycles_per_access + stall / phase.overlap
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
        self._entries = [
            (name, proc, self._models[name])
            for name, proc in self.processes.items()
        ]
        self.probe_overhead_cycles = probe_overhead_cycles
        self.service_cycles = service_cycles
        #: cycles a process may spend per period at full speed
        self._budget = max(
            0.0, machine.period_cycles - probe_overhead_cycles
        )
        self._l3_lines = float(machine.l3.capacity_lines)
        lat = machine.latencies
        self._memory_latency = lat.memory
        self._l1_latency = lat.l1
        self._queue_delay = 0.0
        self._rho = 0.0

    def _execute_period(self, period: int) -> tuple[Samples, Samples]:
        budget = self._budget
        miss_latency = (
            self._memory_latency + self._queue_delay - self._l1_latency
        )
        running = ProcessState.RUNNING
        samples: Samples = {}
        insertions: list[float] = []
        total_misses = 0.0
        for name, proc, model in self._entries:
            if proc.state is not running:
                samples[name] = _IDLE
                insertions.append(0.0)
                continue
            workload = proc.workload
            phase = model.phases[workload._phase_index]
            cost, reference_fraction, miss_fraction = model.step_cost(
                phase, miss_latency
            )
            cycles = budget * proc.speed_factor
            accesses = cycles / cost
            per_access = phase.instructions_per_access
            instructions = accesses * per_access
            remaining = workload.instructions_remaining
            if instructions >= remaining:
                fraction = remaining / instructions
                accesses *= fraction
                cycles *= fraction
                instructions = remaining
            # Phase rotation note: a period's instructions are all
            # priced at the period-start phase, so a boundary crossed
            # mid-period is attributed one period late — the same
            # granularity CAER itself observes at.
            self._account_instructions(workload, instructions, per_access)
            misses = accesses * miss_fraction
            # The cold budget drains at the rate of the phase the
            # accounting left current.
            cold_spent = min(
                model.cold_remaining,
                accesses * model.phases[workload._phase_index].transient,
            )
            model.cold_remaining -= cold_spent
            total_misses += misses
            insertions.append(misses)
            references = int(accesses * reference_fraction)
            samples[name] = PMUSample(
                cycles, instructions, int(misses), references,
                references, references, 0, 0,
            )
            if workload.finished:
                # A relaunched instance reuses the same phase models.
                proc.note_completion(period)

        self._advance_occupancy(insertions)
        self._advance_memory(total_misses)
        if self.fault_injector is None:
            return samples, samples
        return samples, self.fault_injector.observe_all(period, samples)

    def _apply_quota(self, name: str, fraction: float | None) -> None:
        self._models[name].quota = fraction

    @staticmethod
    def _account_instructions(
        workload: WorkloadInstance, instructions: float, per_access: float
    ) -> None:
        """Advance the workload by a fractional instruction count.

        ``per_access`` is the instructions per access of the phase the
        period started in.
        """
        accesses = instructions / per_access
        # account() is integer-access based; emulate fractional progress
        # by adjusting the remaining counters directly through repeated
        # whole-access accounting plus a remainder carried in-place.
        whole = int(accesses)
        if whole:
            workload.account(whole)
        remainder = (accesses - whole) * per_access
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

    def _advance_occupancy(self, insertions: list[float]) -> None:
        """Insert each process's misses, then evict any overflow.

        ``insertions`` is in process order.
        """
        capacity = self._l3_lines
        models = self._models.values()
        for model, inserted in zip(models, insertions):
            quota = model.quota
            cap = capacity if quota is None else quota * capacity
            model.occupancy = min(
                model.occupancy + inserted, cap, model.occupancy_cap
            )
        total = sum(model.occupancy for model in models)
        overflow = total - capacity
        if overflow <= 0:
            return
        leak = self.OCCUPANCY_LEAK
        weights = [
            inserted + leak * max(0.0, model.occupancy - model.protected)
            for model, inserted in zip(models, insertions)
        ]
        weight_sum = sum(weights)
        if weight_sum <= 0:
            return
        for model, weight in zip(models, weights):
            evicted = overflow * weight / weight_sum
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

"""Closed-form co-location slowdown prediction.

Mirrors the simulator's execution model analytically: a phase's cost per
access is its compute cost plus latency-weighted stalls, with the
hit-level split taken from the phase's miss-rate curve evaluated at the
private-cache sizes and at the application's *share* of the L3.  The L3
share and the memory queueing delay are mutually dependent with the
execution rates, so the predictor iterates the whole system (occupancy
model + M/D/1 channel + costs) to a damped fixed point.

Used for fast screening of workload designs and — in the test-suite —
for cross-validating the trace-driven simulator: on microbenchmarks the
two must agree on who wins and by roughly what factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import ExperimentError
from ..workloads.base import PhaseSpec, WorkloadSpec
from .mrc import MissRateCurve, profile_patterns
from .sharing import SharedCacheModel, SharerProfile

#: Accesses sampled per phase when profiling a pattern.  The window is
#: deliberately moderate: revisits rarer than the window (deep zipf
#: tails) profile as cold and therefore contention-insensitive — which
#: is also how shared LRU treats them, since lines re-referenced that
#: rarely are evicted and re-fetched regardless of the co-runner.  A
#: much larger window makes the *proportional* occupancy model
#: overstate how much of the tail a victim loses (LRU protects hot
#: lines better than proportional sharing assumes).
PROFILE_SAMPLES = 30_000

#: Outer fixed-point iterations over (occupancy, queue, rates).
OUTER_ITERATIONS = 30


@dataclass(frozen=True)
class PhaseProfile:
    """A phase's analytically relevant quantities."""

    spec: PhaseSpec
    mrc: MissRateCurve

    @property
    def compute_cycles_per_access(self) -> float:
        return self.spec.compute_cycles_per_access


@dataclass(frozen=True)
class ColocationPrediction:
    """Predicted outcome of co-locating a victim with a contender."""

    victim: str
    contender: str
    victim_solo_cost: float  # cycles per access, alone
    victim_colo_cost: float  # cycles per access, co-located
    victim_occupancy_fraction: float
    queue_delay: float

    @property
    def slowdown(self) -> float:
        """Predicted completion-time ratio co-located / alone."""
        return self.victim_colo_cost / self.victim_solo_cost


def profile_phase(
    phase: PhaseSpec, seed: int = 0, samples: int = PROFILE_SAMPLES
) -> PhaseProfile:
    """A phase's miss-rate curve, from a fresh generator at ``seed``.

    The curve is :func:`~repro.analytic.mrc.profile_patterns`'s cached
    build, so repeated predictions profile each phase once per process.
    """
    (mrc,) = profile_patterns((phase.pattern,), seed, samples)
    return PhaseProfile(spec=phase, mrc=mrc)


def _dominant_phase(spec: WorkloadSpec) -> PhaseSpec:
    """The phase carrying the largest instruction share."""
    return max(spec.phases, key=lambda p: p.duration_instructions)


def _phase_cost(
    profile: PhaseProfile,
    machine: MachineConfig,
    l3_lines: float,
    queue_delay: float,
) -> float:
    """Cycles per access of a phase given an L3 share and queue delay."""
    lat = machine.latencies
    mrc = profile.mrc
    h1 = mrc.hit_rate(machine.l1.capacity_lines)
    h2 = mrc.hit_rate(machine.l2.capacity_lines)
    h3 = mrc.hit_rate(min(l3_lines, machine.l3.capacity_lines))
    h2 = max(h2, h1)
    h3 = max(h3, h2)
    stall = (
        (h2 - h1) * (lat.l2 - lat.l1)
        + (h3 - h2) * (lat.l3 - lat.l1)
        + (1.0 - h3) * (lat.memory + queue_delay - lat.l1)
    )
    return profile.compute_cycles_per_access + stall / profile.spec.overlap


def _memory_queue_delay(
    machine: MachineConfig, misses_per_cycle: float, service: float
) -> float:
    """M/D/1 mean waiting time, as in :class:`repro.arch.memory`."""
    from ..arch.memory import MAX_RHO

    rho = min(misses_per_cycle * service, MAX_RHO)
    return service * rho / (2.0 * (1.0 - rho))


def predict_solo(
    spec: WorkloadSpec,
    machine: MachineConfig | None = None,
    seed: int = 0,
    service_cycles: float = 36.0,
) -> float:
    """Predicted cycles per access of the dominant phase, running alone."""
    machine = machine or MachineConfig.scaled_nehalem()
    profile = profile_phase(_dominant_phase(spec), seed=seed)
    return _solo_cost(profile, machine, service_cycles)


def _solo_cost(
    profile: PhaseProfile, machine: MachineConfig, service_cycles: float
) -> float:
    """Fixed-point cycles per access of ``profile`` alone on the chip."""
    cost = _phase_cost(profile, machine, machine.l3.capacity_lines, 0.0)
    for _ in range(OUTER_ITERATIONS):
        miss_rate = profile.mrc.miss_rate(machine.l3.capacity_lines)
        misses_per_cycle = miss_rate / cost
        queue = _memory_queue_delay(
            machine, misses_per_cycle, service_cycles
        )
        new_cost = _phase_cost(
            profile, machine, machine.l3.capacity_lines, queue
        )
        if abs(new_cost - cost) < 1e-6:
            break
        cost = 0.5 * (cost + new_cost)
    return cost


def predict_colocation(
    victim: WorkloadSpec,
    contender: WorkloadSpec,
    machine: MachineConfig | None = None,
    seed: int = 0,
    service_cycles: float = 36.0,
) -> ColocationPrediction:
    """Predict the victim's slowdown when co-located with the contender.

    Both workloads are represented by their dominant phase; the outer
    loop iterates occupancies, execution rates, and the shared memory
    channel to a fixed point.
    """
    machine = machine or MachineConfig.scaled_nehalem()
    victim_profile = profile_phase(_dominant_phase(victim), seed=seed)
    contender_profile = profile_phase(
        _dominant_phase(contender), seed=seed + 1
    )
    capacity = machine.l3.capacity_lines
    solo_cost = _solo_cost(victim_profile, machine, service_cycles)

    sharing = SharedCacheModel(capacity)
    costs = [solo_cost, _phase_cost(contender_profile, machine,
                                    capacity, 0.0)]
    profiles = [victim_profile, contender_profile]
    occupancies = [capacity / 2.0, capacity / 2.0]
    queue = 0.0
    for _ in range(OUTER_ITERATIONS):
        sharers = [
            SharerProfile(
                name=str(i), mrc=p.mrc, access_rate=1.0 / c
            )
            for i, (p, c) in enumerate(zip(profiles, costs))
        ]
        solved = sharing.solve(sharers)
        occupancies = [solved["0"], solved["1"]]
        misses_per_cycle = sum(
            p.mrc.miss_rate(o) / c
            for p, o, c in zip(profiles, occupancies, costs)
        )
        queue = _memory_queue_delay(
            machine, misses_per_cycle, service_cycles
        )
        new_costs = [
            _phase_cost(p, machine, o, queue)
            for p, o in zip(profiles, occupancies)
        ]
        delta = max(
            abs(n - c) for n, c in zip(new_costs, costs)
        )
        costs = [0.5 * (n + c) for n, c in zip(new_costs, costs)]
        if delta < 1e-6:
            break

    if solo_cost <= 0:
        raise ExperimentError("non-positive predicted solo cost")
    return ColocationPrediction(
        victim=victim.name,
        contender=contender.name,
        victim_solo_cost=solo_cost,
        victim_colo_cost=costs[0],
        victim_occupancy_fraction=occupancies[0] / capacity,
        queue_delay=queue,
    )


def predict_colocation_phased(
    victim: WorkloadSpec,
    contender: WorkloadSpec,
    machine: MachineConfig | None = None,
    seed: int = 0,
    service_cycles: float = 36.0,
) -> float:
    """Phase-weighted slowdown prediction.

    :func:`predict_colocation` represents the victim by its dominant
    phase; for heavily phased workloads (gcc, mcf, xalancbmk) this
    overweights whichever phase happens to be longest.  Here every
    victim phase is predicted separately against the contender's
    dominant phase, and the slowdowns are combined by each phase's
    share of *time* (instruction share weighted by its per-instruction
    cost), which is how phase slowdowns compose for a run-to-completion
    workload.
    """
    machine = machine or MachineConfig.scaled_nehalem()
    total_solo = 0.0
    total_colo = 0.0
    for index, phase in enumerate(victim.phases):
        single = WorkloadSpec(
            name=f"{victim.name}/phase{index}",
            phases=(phase,),
            total_instructions=phase.duration_instructions,
        )
        prediction = predict_colocation(
            single, contender, machine, seed=seed,
            service_cycles=service_cycles,
        )
        # Per-instruction costs weight each phase's instruction share.
        instructions = phase.duration_instructions
        total_solo += (
            instructions * prediction.victim_solo_cost * phase.mem_ratio
        )
        total_colo += (
            instructions * prediction.victim_colo_cost * phase.mem_ratio
        )
    if total_solo <= 0:
        raise ExperimentError("non-positive phased solo time")
    return total_colo / total_solo

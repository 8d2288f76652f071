"""Property-based engine invariants under arbitrary throttle schedules."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.chip import MulticoreChip
from repro.config import MachineConfig
from repro.sim.engine import SimulationEngine
from repro.sim.process import ProcessState, SimProcess
from repro.workloads import synthetic


@given(
    pause_schedule=st.lists(st.booleans(), min_size=4, max_size=12),
    seed=st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_conservation_under_arbitrary_throttling(pause_schedule, seed):
    """Whatever the pause schedule, the engine's books must balance."""
    chip = MulticoreChip(MachineConfig.tiny(), seed=seed)
    proc = SimProcess(
        synthetic.streamer(lines=200, instructions=1e9),
        core_id=0,
        name="p",
        seed=seed,
    )

    def hook(engine, period, samples):
        if period < len(pause_schedule):
            engine.set_paused("p", pause_schedule[period])

    engine = SimulationEngine(chip, [proc], period_hooks=[hook])
    horizon = len(pause_schedule) + 2
    result = engine.run(stop_when=lambda e: e.period >= horizon)
    record = result.process("p")

    assert len(record.states) == horizon
    total_instructions = sum(s.instructions for s in record.samples)
    # Sampled instruction deltas must equal the workload's accounting.
    assert abs(total_instructions - proc.workload.instructions_retired) < 1.0

    for state, sample in zip(record.states, record.samples):
        if state in (ProcessState.PAUSED, ProcessState.WAITING):
            # Throttled periods retire nothing and miss nothing.
            assert sample.instructions == 0.0
            assert sample.llc_misses == 0
        else:
            # A runnable streaming period makes progress.
            assert sample.instructions > 0.0
        # No period can execute more cycles than it has (plus probe).
        assert sample.cycles <= chip.machine.period_cycles + 100

    # The hierarchy's inclusion invariant survives any schedule.
    assert chip.hierarchy.check_inclusion() == []


@given(stagger=st.integers(0, 6), seed=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_stagger_never_loses_instructions(stagger, seed):
    """Launch stagger delays, never discards, work."""
    chip = MulticoreChip(MachineConfig.tiny(), seed=seed)
    proc = SimProcess(
        synthetic.compute_bound(instructions=4_000.0),
        core_id=0,
        launch_period=stagger,
        seed=seed,
    )
    engine = SimulationEngine(chip, [proc])
    result = engine.run()
    record = result.latency_sensitive()
    assert record.first_completion_period is not None
    assert record.instructions_retired >= 4_000.0 - 1.0
    waiting = record.periods_in_state(ProcessState.WAITING)
    assert waiting == stagger

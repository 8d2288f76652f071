"""Engine behaviour: quantum loop, directives, conservation laws.

The period loop is shared by both backends, so its contract
(``TestDirectives``, ``TestValidation``, ``TestRecording``) runs on the
trace engine and, through the ``...OnStatistical`` subclasses at the
end, on the closed-form engine.
"""

from __future__ import annotations

import pytest

from repro.arch.chip import MulticoreChip
from repro.config import MachineConfig
from repro.errors import SchedulingError, SimulationError
from repro.obs import RingBufferSink, Tracer
from repro.sim.engine import PeriodEngine, SimulationEngine
from repro.sim.process import AppClass, ProcessState, SimProcess
from repro.statistical import StatisticalEngine
from repro.workloads import synthetic


def make_engine(
    processes, machine=None, engine=SimulationEngine, **kwargs
) -> PeriodEngine:
    machine = machine or MachineConfig.tiny()
    if engine is SimulationEngine:
        return SimulationEngine(MulticoreChip(machine), processes, **kwargs)
    return engine(machine, processes, **kwargs)


class EngineContract:
    """Builds the engine under test (the trace engine unless overridden)."""

    engine = SimulationEngine

    def make_engine(self, processes, **kwargs) -> PeriodEngine:
        return make_engine(processes, engine=self.engine, **kwargs)


def simple_process(instructions=5_000.0, core_id=0, **kwargs):
    kwargs.setdefault("name", f"proc{core_id}")
    return SimProcess(
        synthetic.compute_bound(instructions=instructions),
        core_id=core_id,
        **kwargs,
    )


class TestBasicRuns:
    def test_runs_to_completion(self):
        engine = make_engine([simple_process()])
        result = engine.run()
        assert result.total_periods > 0
        ls = result.latency_sensitive()
        assert ls.first_completion_period is not None

    def test_retired_instructions_match_budget(self):
        engine = make_engine([simple_process(instructions=5_000.0)])
        result = engine.run()
        retired = result.latency_sensitive().instructions_retired
        assert retired == pytest.approx(5_000.0, rel=0.02)

    def test_two_processes_on_distinct_cores(self):
        engine = make_engine(
            [simple_process(core_id=0), simple_process(core_id=1)]
        )
        result = engine.run()
        assert len(result.processes) == 2

    def test_staggered_launch(self):
        late = simple_process(core_id=0, launch_period=3)
        engine = make_engine([late])
        result = engine.run()
        record = result.process(late.name)
        assert all(
            s is ProcessState.WAITING for s in record.states[:3]
        )
        assert record.states[3] is ProcessState.RUNNING

    def test_relaunch_keeps_batch_running(self):
        batch = SimProcess(
            synthetic.compute_bound(instructions=500.0),
            core_id=1,
            app_class=AppClass.BATCH,
            name="batch",
            relaunch=True,
        )
        primary = simple_process(instructions=20_000.0, core_id=0)
        engine = make_engine([primary, batch])
        result = engine.run()
        assert result.process("batch").completions > 1


class TestDirectives(EngineContract):
    def test_pause_takes_effect_next_period(self):
        proc = simple_process(instructions=1e9)
        captured = []

        def hook(engine, period, samples):
            captured.append(samples[proc.name].instructions)
            if period == 2:
                engine.set_paused(proc.name, True)
            if period == 5:
                engine.set_paused(proc.name, False)

        engine = self.make_engine([proc], period_hooks=[hook])
        engine.run(stop_when=lambda e: e.period >= 8)
        # The directive issued at period 2 governs periods 3..5; the
        # resume issued at period 5 restores execution from period 6.
        assert captured[2] > 0
        assert captured[3] == 0.0
        assert captured[4] == 0.0
        assert captured[5] == 0.0
        assert captured[6] > 0

    def test_paused_process_retires_nothing(self):
        proc = simple_process(instructions=1e6)

        def hook(engine, period, samples):
            if period == 1:
                engine.set_paused(proc.name, True)

        engine = self.make_engine([proc], period_hooks=[hook])
        result = engine.run(stop_when=lambda e: e.period >= 6)
        record = result.process(proc.name)
        # Periods 2+ are paused: zero instruction samples.
        for state, sample in zip(record.states, record.samples):
            if state is ProcessState.PAUSED:
                assert sample.instructions == 0.0
        assert ProcessState.PAUSED in record.states

    def test_unknown_process_directive_rejected(self):
        engine = self.make_engine([simple_process()])
        with pytest.raises(SchedulingError):
            engine.set_paused("nope", True)


class TestValidation(EngineContract):
    def test_duplicate_cores_rejected(self):
        with pytest.raises(SchedulingError, match="already has"):
            self.make_engine(
                [
                    simple_process(core_id=0, name="a"),
                    simple_process(core_id=0, name="b"),
                ]
            )

    def test_duplicate_names_rejected(self):
        a = simple_process(core_id=0)
        b = simple_process(core_id=1)
        b.name = a.name
        with pytest.raises(SchedulingError, match="duplicate"):
            self.make_engine([a, b])

    def test_core_out_of_range_rejected(self):
        with pytest.raises(SchedulingError, match="cores"):
            self.make_engine([simple_process(core_id=7)])

    def test_no_processes_rejected(self):
        with pytest.raises(SchedulingError):
            self.make_engine([])

    def test_max_periods_guard(self):
        proc = simple_process(instructions=1e12)
        engine = self.make_engine([proc], max_periods=5)
        with pytest.raises(SimulationError, match="max_periods"):
            engine.run()

    def test_all_relaunching_needs_explicit_stop(self):
        batch = SimProcess(
            synthetic.compute_bound(instructions=100.0),
            core_id=0,
            relaunch=True,
        )
        engine = self.make_engine([batch])
        with pytest.raises(SimulationError, match="relaunch"):
            engine.run()


class TestRecording(EngineContract):
    def test_series_lengths_match_periods(self):
        engine = self.make_engine([simple_process()])
        result = engine.run()
        record = result.latency_sensitive()
        assert len(record.states) == result.total_periods
        assert len(record.samples) == result.total_periods

    def test_cycle_samples_bounded_by_period(self):
        machine = MachineConfig.tiny()
        engine = self.make_engine([simple_process(instructions=1e9)],
                                  machine=machine, max_periods=10)
        result = engine.run(stop_when=lambda e: e.period >= 5)
        for sample in result.latency_sensitive().samples:
            # Probe overhead is charged on top of execution cycles.
            assert sample.cycles <= machine.period_cycles * 1.1

    def test_custom_stop_condition(self):
        engine = self.make_engine([simple_process(instructions=1e9)])
        result = engine.run(stop_when=lambda e: e.period >= 4)
        assert result.total_periods == 4

    def test_every_relaunch_is_traced(self):
        """A relaunching batch app stays RUNNING through its completions;
        the trace carries one ``relaunched`` phase per completed run."""
        ring = RingBufferSink()
        batch = SimProcess(
            synthetic.compute_bound(instructions=500.0),
            core_id=1,
            app_class=AppClass.BATCH,
            name="batch",
            relaunch=True,
        )
        primary = simple_process(instructions=20_000.0, core_id=0)
        engine = self.make_engine([primary, batch], tracer=Tracer([ring]))
        result = engine.run()
        phases = [
            (event.subject, event.phase)
            for event in ring.by_kind("phase")
            if event.scope == "process"
        ]
        completions = result.process("batch").completions
        assert completions > 1
        assert phases.count(("batch", "relaunched")) == completions
        assert phases.count((primary.name, "completed")) == 1
        assert ("batch", "completed") not in phases
        assert (primary.name, "relaunched") not in phases


class TestDirectivesOnStatistical(TestDirectives):
    engine = StatisticalEngine


class TestValidationOnStatistical(TestValidation):
    engine = StatisticalEngine


class TestRecordingOnStatistical(TestRecording):
    engine = StatisticalEngine

"""Execution backends: registry, parity with hand-built scenarios."""

from __future__ import annotations

import pytest

from repro.arch.pmu import PMUSample
from repro.caer.runtime import CaerRuntime, caer_factory
from repro.errors import ConfigError, SchedulingError
from repro.faults import FaultPlan
from repro.obs import RingBufferSink, Tracer
from repro.runspec import (
    BATCH_BENCHMARK,
    ContenderSpec,
    RunSpec,
    backend_names,
    execute,
    execute_run,
    get_backend,
    paper_run_spec,
    register_backend,
)
from repro.sim import scenario
from repro.sim.engine import PeriodEngine
from repro.sim.process import ProcessState
from repro.sim.scenario import run_colocated, run_multi_colocated, run_solo
from repro.workloads import benchmark, synthetic

LENGTH = 0.02


class TestRegistry:
    def test_both_engines_registered(self):
        assert backend_names() == ("sim", "statistical")

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(ConfigError, match="sim, statistical"):
            get_backend("quantum")

    def test_duplicate_registration_refused(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("sim", get_backend("sim"))

    def test_replace_allows_override(self):
        original = get_backend("sim")
        register_backend("sim", original, replace=True)
        assert get_backend("sim") is original

    def test_executing_an_unknown_backend_fails(self):
        spec = RunSpec(victim="429.mcf", length=LENGTH, backend="quantum")
        with pytest.raises(ConfigError, match="unknown backend"):
            execute(spec)


class TestSimParity:
    """A spec is bit-identical to the hand-built scenario on its
    backend (the subclass below runs every case on the other one)."""

    backend = "sim"

    def test_solo_matches_run_solo(self, scaled_machine):
        spec = paper_run_spec(
            "429.mcf", "solo", scaled_machine, length=LENGTH,
            backend=self.backend,
        )
        via_spec = execute(spec)
        workload = benchmark(
            "429.mcf", scaled_machine.l3.capacity_lines, length=LENGTH
        )
        direct = run_solo(
            workload, scaled_machine, seed=0, backend=self.backend
        )
        assert via_spec.latency_sensitive().completion_periods == (
            direct.latency_sensitive().completion_periods
        )
        assert via_spec.latency_sensitive().llc_miss_series() == (
            direct.latency_sensitive().llc_miss_series()
        )

    @pytest.mark.parametrize("config", ["raw", "rule"])
    def test_colocated_matches_run_colocated(self, scaled_machine, config):
        spec = paper_run_spec(
            "429.mcf", config, scaled_machine, length=LENGTH,
            backend=self.backend,
        )
        via_spec = execute(spec)
        lines = scaled_machine.l3.capacity_lines
        factory = (
            None if spec.caer is None else caer_factory(spec.caer)
        )
        direct = run_colocated(
            benchmark("429.mcf", lines, length=LENGTH),
            benchmark(BATCH_BENCHMARK, lines, length=LENGTH),
            scaled_machine,
            caer_factory=factory,
            seed=0,
            backend=self.backend,
        )
        assert via_spec.latency_sensitive().completion_periods == (
            direct.latency_sensitive().completion_periods
        )
        assert via_spec.latency_sensitive().llc_miss_series() == (
            direct.latency_sensitive().llc_miss_series()
        )
        assert via_spec.total_periods == direct.total_periods


class TestStatisticalParity(TestSimParity):
    backend = "statistical"


class ToyEngine(PeriodEngine):
    """A minimal engine: every running process completes after five
    periods of running and reads all-zero counters."""

    def __init__(self, machine, processes, tracer=None, metrics=None,
                 faults=None):
        super().__init__(machine, f"{machine.name}/toy", processes,
                         (), 1_000, tracer, metrics, faults)
        self.ran = dict.fromkeys(self.processes, 0)

    def _execute_period(self, period):
        for name, proc in self.processes.items():
            if proc.state is ProcessState.RUNNING:
                self.ran[name] += 1
                if self.ran[name] % 5 == 0:
                    proc.note_completion(period)
        true = {name: PMUSample.zero() for name in self.processes}
        return true, true

    def _apply_quota(self, name, fraction):
        pass


@pytest.fixture
def toy_backend():
    """Registers ``ToyEngine`` as backend ``"toy"``; yields the engines
    it builds, and unregisters it afterwards."""
    built = []

    def toy_engine(machine, processes, *, seed, slices_per_period,
                   tracer, metrics, faults):
        engine = ToyEngine(machine, processes, tracer=tracer,
                           metrics=metrics, faults=faults)
        built.append(engine)
        return engine

    register_backend("toy", toy_engine)
    try:
        yield built
    finally:
        del scenario._BACKENDS["toy"]


class TestRegisteredBuilder:
    def test_execute_runs_the_registered_engine(
        self, scaled_machine, toy_backend
    ):
        spec = paper_run_spec(
            "429.mcf", "rule", scaled_machine, length=LENGTH,
            backend="toy",
        )
        sink = RingBufferSink()
        result = execute(spec, tracer=Tracer([sink]))
        (engine,) = toy_backend
        assert [type(hook) for hook in engine.period_hooks] == [CaerRuntime]
        assert result.machine_name == f"{scaled_machine.name}/toy"
        # Launched at the stagger, done after five running periods.
        assert result.latency_sensitive().first_completion_period == (
            spec.launch_stagger + 4
        )
        (event,) = sink.by_kind("run_spec")
        assert event.digest == spec.digest
        assert event.backend == "toy"


class TestStatisticalBackend:
    def test_executes_and_differs_from_sim(self, scaled_machine):
        spec = paper_run_spec(
            "429.mcf", "rule", scaled_machine, length=LENGTH,
            backend="statistical",
        )
        outcome = execute_run(spec)
        assert outcome.backend == "statistical"
        assert outcome.completion_periods > 0
        assert outcome.digest == spec.digest

    def test_caer_hook_engages(self, scaled_machine):
        raw = execute_run(
            paper_run_spec("429.mcf", "raw", scaled_machine,
                           length=LENGTH, backend="statistical"),
        )
        managed = execute_run(
            paper_run_spec("429.mcf", "rule", scaled_machine,
                           length=LENGTH, backend="statistical"),
        )
        assert managed.completion_periods <= raw.completion_periods

    def test_too_many_contenders_rejected(self, scaled_machine):
        spec = RunSpec(
            victim="429.mcf",
            contenders=(ContenderSpec(BATCH_BENCHMARK),)
            * scaled_machine.num_cores,
            machine=scaled_machine,
            length=LENGTH,
            backend="statistical",
        )
        with pytest.raises(SchedulingError, match="cores"):
            execute_run(spec)

    def test_helper_with_too_many_contenders_rejected(self, tiny_machine):
        with pytest.raises(SchedulingError, match="cores"):
            run_multi_colocated(
                synthetic.compute_bound(),
                [synthetic.compute_bound()] * tiny_machine.num_cores,
                tiny_machine,
                backend="statistical",
            )


class TestExecuteRun:
    def test_outcome_carries_identity_and_telemetry(self, scaled_machine):
        spec = paper_run_spec(
            "429.mcf", "rule", scaled_machine, length=LENGTH
        )
        outcome = execute_run(spec)
        assert outcome.digest == spec.digest
        assert outcome.config == "rule"
        assert outcome.telemetry["spec_digest"] == spec.digest
        assert outcome.telemetry["backend"] == "sim"
        assert "detector_trigger_rate" in outcome.telemetry["derived"]
        assert outcome.wall_seconds > 0.0

    @pytest.mark.parametrize("backend", ["sim", "statistical"])
    def test_verdicts_are_the_traced_detection_verdicts(
        self, scaled_machine, backend
    ):
        spec = paper_run_spec(
            "429.mcf", "rule", scaled_machine, length=LENGTH,
            backend=backend,
        ).with_faults(FaultPlan.scaled(0.5))
        ring = RingBufferSink(1 << 16)
        traced = execute_run(spec, tracer=Tracer([ring]))
        detections = [event.verdict for event in ring.by_kind("detection")]
        assert len(detections) == traced.total_periods
        assert set(detections) == {True, False, None}
        assert traced.verdicts == detections
        assert execute_run(spec).verdicts == detections

    def test_no_verdicts_without_caer(self, scaled_machine):
        spec = paper_run_spec("429.mcf", "raw", scaled_machine, length=LENGTH)
        assert execute_run(spec).verdicts == []

    def test_too_many_contenders_rejected(self, scaled_machine):
        spec = RunSpec(
            victim="429.mcf",
            contenders=(ContenderSpec(BATCH_BENCHMARK),)
            * scaled_machine.num_cores,
            machine=scaled_machine,
            length=LENGTH,
        )
        with pytest.raises(SchedulingError, match="cores"):
            execute_run(spec)


class TestTracing:
    def test_execute_emits_runspec_event(self, scaled_machine):
        spec = paper_run_spec(
            "429.mcf", "rule", scaled_machine, length=LENGTH
        )
        sink = RingBufferSink()
        tracer = Tracer([sink])
        execute(spec, tracer=tracer)
        events = sink.by_kind("run_spec")
        assert len(events) == 1
        assert events[0].digest == spec.digest
        assert events[0].backend == "sim"
        assert events[0].victim == "429.mcf"
        assert events[0].contenders == 1

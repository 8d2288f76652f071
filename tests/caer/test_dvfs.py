"""The DVFS-style frequency-scaling response (§7 extension)."""

from __future__ import annotations

import pytest

from repro.caer.detector import Observation
from repro.caer.metrics import (
    effective_utilization_gained,
    utilization_gained,
)
from repro.caer.response import FrequencyScaling
from repro.caer.runtime import CaerConfig, caer_factory
from repro.errors import ConfigError, DetectorError, SchedulingError
from repro.sim import run_colocated, run_solo
from repro.sim.process import ProcessState, SimProcess
from repro.workloads import synthetic


def obs() -> Observation:
    return Observation(0.0, 0.0, 0.0, 0.0, 0)


class TestFrequencyScalingPolicy:
    def test_positive_verdict_scales(self):
        policy = FrequencyScaling(scale=0.25, length=2)
        policy.begin(True)
        step = policy.step(obs())
        assert step.speed == 0.25
        assert not step.pause_batch
        assert not step.done
        assert policy.step(obs()).done

    def test_negative_verdict_full_speed(self):
        policy = FrequencyScaling(scale=0.25, length=1)
        policy.begin(False)
        step = policy.step(obs())
        assert step.speed == 1.0
        assert step.done

    def test_step_without_begin_rejected(self):
        with pytest.raises(DetectorError):
            FrequencyScaling().step(obs())

    def test_validation(self):
        with pytest.raises(ConfigError):
            FrequencyScaling(scale=0.0)
        with pytest.raises(ConfigError):
            FrequencyScaling(scale=1.5)
        with pytest.raises(ConfigError):
            FrequencyScaling(length=0)


class TestEngineSpeedDirective:
    def test_speed_scales_progress(self, tiny_machine):
        from repro.arch.chip import MulticoreChip
        from repro.sim.engine import SimulationEngine

        spec = synthetic.compute_bound(instructions=1e9)

        def run_at(factor: float) -> float:
            chip = MulticoreChip(tiny_machine)
            proc = SimProcess(spec, 0, name="p")

            def hook(engine, period, samples):
                engine.set_speed("p", factor)

            engine = SimulationEngine(chip, [proc], period_hooks=[hook])
            result = engine.run(stop_when=lambda e: e.period >= 10)
            return result.process("p").samples[-1].instructions

        full = run_at(1.0)
        half = run_at(0.5)
        # Fixed per-period costs (cold misses, probe overhead) and
        # cache effects do not scale with frequency; require only that
        # halving the frequency roughly halves progress.
        assert 0.40 <= half / full <= 0.62

    def test_speed_validation(self):
        proc = SimProcess(synthetic.compute_bound(), 0)
        with pytest.raises(SchedulingError):
            proc.set_speed(0.0)
        with pytest.raises(SchedulingError):
            proc.set_speed(1.5)

    def test_speed_recorded_per_period(self, tiny_machine):
        from repro.arch.chip import MulticoreChip
        from repro.sim.engine import SimulationEngine

        chip = MulticoreChip(tiny_machine)
        proc = SimProcess(
            synthetic.compute_bound(instructions=1e9), 0, name="p"
        )

        def hook(engine, period, samples):
            if period == 1:
                engine.set_speed("p", 0.5)

        engine = SimulationEngine(chip, [proc], period_hooks=[hook])
        result = engine.run(stop_when=lambda e: e.period >= 4)
        assert result.process("p").speeds == [1.0, 1.0, 0.5, 0.5]


class TestEndToEnd:
    def test_dvfs_protects_while_keeping_batch_alive(self, small_machine):
        ls = synthetic.zipf_worker(
            lines=300, alpha=0.8, instructions=60_000.0
        )
        batch = synthetic.streamer(lines=2_000, instructions=20_000.0)
        solo = run_solo(ls, small_machine)
        raw = run_colocated(ls, batch, small_machine)
        dvfs = run_colocated(
            ls, batch, small_machine,
            caer_factory=caer_factory(CaerConfig.dvfs()),
            batch_name="batch",
        )
        solo_p = solo.latency_sensitive().completion_periods
        assert (
            dvfs.latency_sensitive().completion_periods
            <= raw.latency_sensitive().completion_periods
        )
        assert (
            dvfs.latency_sensitive().completion_periods
            >= solo_p
        )
        # DVFS never outright pauses the batch during the response
        # (only shutter phases pause it).
        log_speeds = {d["speed"] for d in dvfs.caer_log}
        assert 0.25 in log_speeds or 1.0 in log_speeds

    def test_effective_utilization_discounts_scaled_periods(
        self, small_machine
    ):
        ls = synthetic.zipf_worker(
            lines=300, alpha=0.8, instructions=40_000.0
        )
        batch = synthetic.streamer(lines=2_000, instructions=20_000.0)
        result = run_colocated(
            ls, batch, small_machine,
            caer_factory=caer_factory(CaerConfig.dvfs(dvfs_scale=0.25)),
            batch_name="batch",
        )
        nominal = utilization_gained(result)
        effective = effective_utilization_gained(result)
        assert effective <= nominal

    def test_effective_equals_nominal_for_pause_responses(
        self, small_machine
    ):
        ls = synthetic.zipf_worker(
            lines=300, alpha=0.8, instructions=40_000.0
        )
        batch = synthetic.streamer(lines=2_000, instructions=20_000.0)
        result = run_colocated(
            ls, batch, small_machine,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            batch_name="batch",
        )
        assert effective_utilization_gained(result) == pytest.approx(
            utilization_gained(result)
        )


class TestDetectorResponseCombos:
    """Any detector may pair with any response through CaerConfig."""

    @pytest.mark.parametrize("detector", ["shutter", "rule-based",
                                          "random"])
    @pytest.mark.parametrize(
        "response", ["rlgl", "soft-lock", "dvfs", "partition"]
    )
    def test_combo_builds_and_runs(self, detector, response,
                                   small_machine):
        config = CaerConfig(
            detector=detector, response=response, response_length=3,
        )
        result = run_colocated(
            synthetic.zipf_worker(lines=300, instructions=20_000.0),
            synthetic.streamer(lines=2_000, instructions=10_000.0),
            small_machine,
            caer_factory=caer_factory(config),
            batch_name="batch",
        )
        assert result.caer_log
        assert result.latency_sensitive().first_completion_period \
            is not None

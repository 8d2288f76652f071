"""Cross-validation: analytic predictor vs. the trace-driven simulator."""

from __future__ import annotations

import pytest

from repro.analytic.predictor import predict_colocation, predict_solo
from repro.config import MachineConfig
from repro.sim import run_colocated, run_solo
from repro.workloads import synthetic


def simulated_slowdown(victim, contender, machine) -> float:
    solo = run_solo(victim, machine)
    colo = run_colocated(victim, contender, machine)
    return (
        colo.latency_sensitive().completion_periods
        / solo.latency_sensitive().completion_periods
    )


class TestDirectional:
    def test_streamer_hurts_reuse_victim(self, scaled_machine):
        victim = synthetic.zipf_worker(lines=6000, alpha=0.8)
        contender = synthetic.streamer(lines=40_000)
        prediction = predict_colocation(victim, contender, scaled_machine)
        assert prediction.slowdown > 1.15
        assert prediction.victim_occupancy_fraction < 0.6
        # The co-location's solo baseline is exactly the solo prediction.
        assert prediction.victim_solo_cost == predict_solo(
            victim, scaled_machine
        )

    def test_compute_bound_victim_unharmed(self, scaled_machine):
        victim = synthetic.compute_bound()
        contender = synthetic.streamer(lines=40_000)
        prediction = predict_colocation(victim, contender, scaled_machine)
        assert prediction.slowdown < 1.1

    def test_bigger_working_set_costs_more_alone(self, scaled_machine):
        small = predict_solo(
            synthetic.zipf_worker(lines=200), scaled_machine
        )
        large = predict_solo(
            synthetic.zipf_worker(lines=20_000), scaled_machine
        )
        assert large > small


class TestCrossValidation:
    @pytest.mark.parametrize(
        "victim_lines,contender_lines",
        [(6000, 40_000), (2000, 40_000)],
    )
    def test_agrees_with_simulator(
        self, scaled_machine, victim_lines, contender_lines
    ):
        """Predictor and simulator must agree within 20% on slowdown."""
        victim = synthetic.zipf_worker(
            lines=victim_lines, alpha=0.8, instructions=120_000.0
        )
        contender = synthetic.streamer(
            lines=contender_lines, instructions=80_000.0
        )
        predicted = predict_colocation(
            victim, contender, scaled_machine
        ).slowdown
        simulated = simulated_slowdown(victim, contender, scaled_machine)
        assert predicted == pytest.approx(simulated, rel=0.35)

    def test_ranks_victims_like_simulator(self, scaled_machine):
        contender = synthetic.streamer(
            lines=40_000, instructions=80_000.0
        )
        sensitive = synthetic.zipf_worker(
            lines=7000, alpha=0.6, instructions=120_000.0
        )
        insensitive = synthetic.zipf_worker(
            lines=300, alpha=1.2, instructions=120_000.0
        )
        pred_gap = (
            predict_colocation(sensitive, contender, scaled_machine).slowdown
            - predict_colocation(
                insensitive, contender, scaled_machine
            ).slowdown
        )
        sim_gap = simulated_slowdown(
            sensitive, contender, scaled_machine
        ) - simulated_slowdown(insensitive, contender, scaled_machine)
        assert pred_gap > 0
        assert sim_gap > 0


class TestPhasedPrediction:
    def test_single_phase_matches_dominant(self, scaled_machine):
        from repro.analytic.predictor import predict_colocation_phased

        victim = synthetic.zipf_worker(lines=5_000, alpha=0.8)
        contender = synthetic.streamer(lines=40_000)
        dominant = predict_colocation(
            victim, contender, scaled_machine
        ).slowdown
        phased = predict_colocation_phased(
            victim, contender, scaled_machine
        )
        assert phased == pytest.approx(dominant, rel=0.02)

    def test_phased_weights_all_phases(self, scaled_machine):
        """A workload whose dominant phase is quiet must still show the
        heavy phase's contention in the phased prediction."""
        from repro.analytic.predictor import (
            predict_colocation,
            predict_colocation_phased,
        )
        from repro.workloads import synthetic as syn

        victim = syn.phased_worker(
            heavy_lines=8_000,
            light_lines=50,
            heavy_instructions=30_000.0,
            light_instructions=60_000.0,  # light phase dominates
        )
        contender = syn.streamer(lines=40_000)
        dominant = predict_colocation(
            victim, contender, scaled_machine
        ).slowdown
        phased = predict_colocation_phased(
            victim, contender, scaled_machine
        )
        # The dominant-phase view sees only the light phase; the
        # phased view must report more contention.
        assert phased > dominant

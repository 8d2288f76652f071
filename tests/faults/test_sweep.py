"""The `faults` experiment driver: intensity sweep end to end.

The expensive end-to-end sweep runs once (module-scoped fixture) on the
statistical backend and several assertions read it; validation tests
are cheap and run nothing.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.faults import (
    DEFAULT_INTENSITIES,
    SWEEP_CONFIGS,
    fault_sweep,
)

SETTINGS = CampaignSettings(length=0.2, backend="statistical")
INTENSITIES = DEFAULT_INTENSITIES


def _campaign() -> Campaign:
    return Campaign(SETTINGS, use_disk_cache=False, jobs=1)


@pytest.fixture(scope="module")
def campaign() -> Campaign:
    return _campaign()


@pytest.fixture(scope="module")
def sweep(campaign):
    return fault_sweep(campaign, victim="429.mcf", intensities=INTENSITIES)


def _simulated(campaign: Campaign) -> float:
    return campaign.metrics.snapshot()["campaign.runs_simulated"]["value"]


class TestValidation:
    def test_rejects_empty_intensities(self):
        with pytest.raises(ExperimentError, match="intensity"):
            fault_sweep(_campaign(), intensities=())

    @pytest.mark.parametrize("config", ["raw", "solo", "bogus"])
    def test_rejects_non_detector_configs(self, config):
        with pytest.raises(ExperimentError, match="config"):
            fault_sweep(_campaign(), configs=(config,))


class TestSweepShape:
    def test_one_row_per_intensity(self, sweep):
        assert sweep.row_names == [
            f"i={intensity:g}" for intensity in INTENSITIES
        ]

    def test_three_series_per_config(self, sweep):
        for config in SWEEP_CONFIGS:
            for suffix in ("acc", "pen", "util"):
                assert len(sweep.column(f"{config}_{suffix}")) == len(
                    INTENSITIES
                )

    def test_renders_with_notes(self, sweep):
        text = sweep.render()
        assert "Detection robustness" in text
        assert "clean-signal baseline" in text
        assert "flat control" in text


class TestStore:
    def test_second_sweep_simulates_nothing(self, campaign, sweep):
        # The solo baseline and every faulted run live in the store.
        simulated = _simulated(campaign)
        assert simulated == 1 + len(INTENSITIES) * len(SWEEP_CONFIGS)
        again = fault_sweep(
            campaign, victim="429.mcf", intensities=INTENSITIES
        )
        assert _simulated(campaign) == simulated
        assert again.render() == sweep.render()


class TestDegradation:
    def test_clean_baseline_detects_well(self, sweep):
        accuracy = sweep.column("shutter_acc")
        assert accuracy[0] > 0.5

    def test_shutter_accuracy_degrades_monotonically(self, sweep):
        """The headline curve: more signal corruption, never better
        detection (rule/random are small-N noisy; shutter is the
        documented monotone curve)."""
        accuracy = sweep.column("shutter_acc")
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(accuracy, accuracy[1:])
        )
        assert accuracy[-1] < accuracy[0]

    def test_random_control_never_reads_the_signal(self, sweep):
        """The random detector's accuracy is fault-independent."""
        accuracy = sweep.column("random_acc")
        assert max(accuracy) - min(accuracy) == pytest.approx(0.0)

    def test_penalties_stay_finite_and_sane(self, sweep):
        for config in SWEEP_CONFIGS:
            for penalty in sweep.column(f"{config}_pen"):
                assert -0.5 < penalty < 10.0

"""The detector shootout driver."""

from __future__ import annotations

import pytest

from repro.caer import registry
from repro.caer.runtime import CaerConfig
from repro.errors import ExperimentError
from repro.experiments import Campaign, CampaignSettings, detector_shootout
from repro.experiments.shootout import shootout_config

# Burst-Shutter needs enough periods for several full shutter cycles
# to land verdicts; 0.2 (~200 periods) is the shortest length where
# every heuristic has settled.
SETTINGS = CampaignSettings(length=0.2, backend="statistical")


def _campaign(jobs: int | None = None) -> Campaign:
    return Campaign(SETTINGS, use_disk_cache=False, jobs=jobs)


class TestShootoutConfig:
    def test_shutter_keeps_paper_setup_plus_hardening(self):
        config = shootout_config("shutter", 100.0, "429.mcf")
        # The §6 knobs are untouched; only the opt-in fault hardening
        # rides on the parameter mapping for the robustness sweep.
        assert config == CaerConfig.shutter(
            detector_params={"fault_filter": True, "debounce": 3}
        )
        baseline = CaerConfig.shutter()
        assert config.switch_point == baseline.switch_point
        assert config.end_point == baseline.end_point
        assert config.impact_factor == baseline.impact_factor

    def test_random_keeps_baseline_setup(self):
        assert shootout_config(
            "random", 100.0, "429.mcf"
        ) == CaerConfig.random_baseline()

    def test_profile_gets_baseline_and_informed_thresh(self):
        config = shootout_config("profile", 100.0, "429.mcf")
        assert config.baseline_misses == 100.0
        assert config.usage_thresh == pytest.approx(125.0)

    def test_rule_based_gets_informed_thresh(self):
        config = shootout_config("rule-based", 200.0, "429.mcf")
        assert config.detector == "rule-based"
        assert config.usage_thresh == pytest.approx(250.0)
        assert config.response == "soft-lock"

    def test_proactive_gets_victim_param(self):
        config = shootout_config(
            "proactive-analytic", 100.0, "444.namd"
        )
        assert config.detector_param("victim") == "444.namd"


class TestDetectorShootout:
    def test_rejects_empty_intensities(self):
        with pytest.raises(ExperimentError, match="intensity"):
            detector_shootout(_campaign(), intensities=())

    def test_rejects_missing_clean_intensity(self):
        with pytest.raises(ExperimentError, match="0.0"):
            detector_shootout(_campaign(), intensities=(0.5,))

    def test_rejects_unknown_detector_listing_choices(self):
        with pytest.raises(ExperimentError, match="gmm-fence"):
            detector_shootout(_campaign(), detectors=("psychic",))

    def test_scores_every_registered_detector(self):
        """One row per registered detector, random strictly worst."""
        table = detector_shootout(_campaign(jobs=2), intensities=(0.0,))
        rows = dict(zip(table.row_names, table.columns["acc"]))
        assert set(rows) == set(registry.detector_names())
        floor = rows.pop("random")
        assert 0.0 <= floor <= 1.0
        for name, accuracy in rows.items():
            assert accuracy > floor, (
                f"{name} ({accuracy}) must beat random ({floor})"
            )
        # The closed loop measurably throttled somebody: every scored
        # run reports a defined penalty and utilization column.
        assert len(table.columns["penalty"]) == len(table.row_names)
        assert len(table.columns["util"]) == len(table.row_names)

    def test_subset_and_ordering(self):
        table = detector_shootout(
            _campaign(jobs=1),
            intensities=(0.0,),
            detectors=("rule-based", "random"),
        )
        assert table.row_names == ["rule-based", "random"]

    def test_shutter_holds_random_floor_under_heavy_faults(self):
        """The fault-hardened shutter never dips below random.

        The historical fragility: at fault intensity 1.0 the raw
        shutter's accuracy collapsed under the random floor (every
        noise-driven phase move read as contention).  The shootout
        arms ``fault_filter``/``debounce`` on the shutter row, so its
        mean accuracy across the swept intensities — including full
        intensity — must clear the coin-flip baseline.
        """
        table = detector_shootout(
            _campaign(jobs=2),
            intensities=(0.0, 1.0),
            detectors=("shutter", "random"),
        )
        rows = dict(zip(table.row_names, table.columns["acc_mean"]))
        assert rows["shutter"] > rows["random"], (
            f"hardened shutter ({rows['shutter']}) must beat the "
            f"random floor ({rows['random']}) across intensities"
        )

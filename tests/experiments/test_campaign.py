"""Campaign orchestration and caching."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import Campaign, CampaignSettings

FAST = CampaignSettings(length=0.02)


class TestSettings:
    def test_machine_built_from_settings(self):
        machine = FAST.machine()
        assert machine.l3.capacity_lines == 8192
        assert machine.period_cycles == 40_000

    def test_cache_tag_identifies_settings(self):
        a = CampaignSettings(length=0.1).cache_tag()
        b = CampaignSettings(length=0.2).cache_tag()
        assert a != b

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LENGTH", "0.37")
        assert CampaignSettings.from_env().length == 0.37

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_LENGTH", "soon")
        with pytest.raises(ExperimentError):
            CampaignSettings.from_env()


class TestConfigMapping:
    def test_raw_has_no_caer(self):
        assert Campaign.caer_config("raw") is None

    def test_tags_map_to_paper_setups(self):
        assert Campaign.caer_config("shutter").detector == "shutter"
        assert Campaign.caer_config("rule").detector == "rule-based"
        assert Campaign.caer_config("random").detector == "random"

    def test_unknown_tag(self):
        with pytest.raises(ExperimentError):
            Campaign.caer_config("psychic")


class TestRuns:
    def test_solo_summary(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        summary = campaign.solo("444.namd")
        assert summary.config == "solo"
        assert summary.completion_periods > 0
        assert len(summary.miss_series) == summary.total_periods

    def test_memoised_in_memory(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        first = campaign.solo("444.namd")
        second = campaign.solo("444.namd")
        assert first is second

    def test_disk_cache_round_trip(self, tmp_path):
        first = Campaign(FAST, cache_dir=tmp_path).solo("444.namd")
        fresh = Campaign(FAST, cache_dir=tmp_path)
        second = fresh.solo("444.namd")
        assert second.completion_periods == first.completion_periods
        assert second.miss_series == first.miss_series

    def test_corrupt_cache_entry_is_ignored(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        campaign.solo("444.namd")
        path = campaign._cache_path(
            campaign.spec_for("444.namd", "solo").digest
        )
        path.write_text("{not json")
        fresh = Campaign(FAST, cache_dir=tmp_path)
        assert fresh.solo("444.namd").completion_periods > 0

    def test_colocated_validates_config(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        with pytest.raises(ExperimentError):
            campaign.colocated("444.namd", "bogus")

    def test_colocated_points_solo_at_solo(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        with pytest.raises(ExperimentError, match=r"solo\('444.namd'\)"):
            campaign.colocated("444.namd", "solo")
        assert "campaign.runs_simulated" not in campaign.metrics.snapshot()

    def test_colocated_reads_back_prefetched_registry_tag(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path, jobs=1)
        assert campaign.prefetch(["429.mcf"], ["proactive-analytic"]) == 1

        def simulated() -> float:
            snapshot = campaign.metrics.snapshot()
            return snapshot["campaign.runs_simulated"]["value"]

        before = simulated()
        outcome = campaign.colocated("429.mcf", "proactive-analytic")
        spec = campaign.spec_for("429.mcf", "proactive-analytic")
        assert outcome.digest == spec.digest
        assert outcome.config == spec.config_tag
        assert simulated() == before

    def test_slowdown_at_least_one_ish(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        slowdown = campaign.slowdown("444.namd", "raw")
        assert slowdown >= 0.9  # insensitive victim: near 1.0

    def test_penalty_is_slowdown_minus_one(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        assert campaign.penalty("444.namd", "raw") == pytest.approx(
            campaign.slowdown("444.namd", "raw") - 1.0
        )

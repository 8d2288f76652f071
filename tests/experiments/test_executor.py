"""Run execution: the campaign store's contract, jobs resolution."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments.ablations import run_ablation
from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.executor import TRACE_DIR_ENV, resolve_jobs
from repro.experiments.resilience import RetryPolicy
from repro.faults.chaos import CHAOS_ENV

#: Short runs keep the suite fast while still spanning several probe
#: periods.
FAST = CampaignSettings(length=0.02)
STATISTICAL = CampaignSettings(length=0.02, backend="statistical")


def _count(campaign: Campaign, name: str) -> float:
    entry = campaign.metrics.snapshot().get(name)
    return entry["value"] if entry else 0.0


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_defaults_to_schedulable_cpus(self, monkeypatch):
        # Inside a container or taskset mask the schedulable-CPU count
        # is the real parallelism; os.cpu_count() overstates it.
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5},
            raising=False,
        )
        assert resolve_jobs() == 3

    def test_env_beats_affinity(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
            raising=False,
        )
        assert resolve_jobs() == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (macOS) fall back to the
        # total CPU count.
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_non_positive_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            resolve_jobs(jobs)

    @pytest.mark.parametrize("jobs", [2.5, "4", True])
    def test_non_integer_rejected(self, jobs):
        with pytest.raises(ConfigError, match="integer"):
            resolve_jobs(jobs)

    def test_error_names_the_cli_source(self):
        with pytest.raises(ConfigError, match="--jobs"):
            resolve_jobs(0, source="--jobs")

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()


class TestCampaignOutcomes:
    """The store's one way in: spec order, one error for every failure."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcomes_follow_spec_order(self, jobs):
        campaign = Campaign(STATISTICAL, use_disk_cache=False, jobs=jobs)
        specs = [
            STATISTICAL.run_spec(bench, "solo")
            for bench in ("444.namd", "429.mcf", "470.lbm")
        ]
        # A repeated spec runs once and comes back in each of its places.
        outcomes = campaign.outcomes(specs + specs[:1])
        assert [o.digest for o in outcomes] == [
            spec.digest for spec in specs + specs[:1]
        ]
        assert _count(campaign, "campaign.runs_simulated") == 3.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_error_names_every_quarantined_run(self, jobs, monkeypatch):
        # Serial and pooled batches share one result contract.
        monkeypatch.setenv(CHAOS_ENV, "crash:99:444.namd")
        campaign = Campaign(
            STATISTICAL, use_disk_cache=False, jobs=jobs,
            retry=RetryPolicy(max_attempts=1),
        )
        specs = [
            STATISTICAL.run_spec(bench, config)
            for bench in ("444.namd", "429.mcf")
            for config in ("solo", "raw")
        ]
        with pytest.raises(ExperimentError) as excinfo:
            campaign.outcomes(specs)
        message = str(excinfo.value)
        assert "run (444.namd, solo) is quarantined" in message
        assert "run (444.namd, raw) is quarantined" in message
        # Healthy siblings were not nuked by the failures: they ran and
        # were stored before the error was raised.
        assert "429.mcf" not in message
        assert all(campaign.cached(spec) for spec in specs[2:])


class TestTraceDir:
    def test_one_trace_file_per_simulated_run(self, tmp_path, monkeypatch):
        # The impact-factor ablation's runs share a victim and a config
        # tag; each still gets a trace of its own.
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        campaign = Campaign(
            CampaignSettings(length=0.05, backend="statistical"),
            use_disk_cache=False, jobs=1,
        )
        run_ablation("impact-factor", campaign)
        simulated = _count(campaign, "campaign.runs_simulated")
        assert simulated == 10.0
        assert len(list(tmp_path.glob("trace_*.jsonl"))) == simulated


class TestCampaignPrefetch:
    def test_prefetch_then_lookup(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path, jobs=2)
        produced = campaign.prefetch(["429.mcf"], ["solo", "raw"])
        assert produced == 2
        # Now pure lookups: a second prefetch simulates nothing.
        assert campaign.prefetch(["429.mcf"], ["solo", "raw"]) == 0
        assert campaign.solo("429.mcf").victim == "429.mcf"
        assert campaign.total_wall_seconds() > 0.0

    def test_disk_cache_round_trips_wall_seconds(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path, jobs=1)
        produced = campaign.solo("444.namd")
        fresh = Campaign(FAST, cache_dir=tmp_path, jobs=1)
        loaded = fresh.solo("444.namd")
        assert loaded == produced
        assert loaded.wall_seconds == produced.wall_seconds

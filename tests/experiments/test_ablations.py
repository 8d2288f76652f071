"""Ablation registry and sweep mechanics (with a stubbed runner)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import ablations
from repro.experiments.ablations import ABLATIONS, AblationRunner
from repro.experiments.campaign import Campaign, CampaignSettings


def _runner() -> AblationRunner:
    """A real runner on a tiny, memory-only campaign."""
    return AblationRunner(
        Campaign(CampaignSettings(length=0.01), use_disk_cache=False)
    )


class StubRunner:
    """Records which configs a sweep evaluates; returns canned numbers."""

    def __init__(self):
        from repro.config import MachineConfig

        self.evaluated = []
        self.machine = MachineConfig.scaled_nehalem()

    def evaluate(self, victim, config):
        self.evaluated.append((victim, config))
        return 0.1, 0.5

    def evaluate_many(self, pairs):
        return [self.evaluate(victim, config) for victim, config in pairs]


class TestRegistry:
    def test_all_named_ablations_registered(self):
        expected = {
            "impact-factor",
            "shutter-geometry",
            "usage-threshold",
            "response-length",
            "adaptive-response",
            "window-size",
            "shutter-mode",
            "response-mechanism",
            "probe-period",
            "probe-overhead",
            "prefetch",
            "writebacks",
            "detector",
        }
        assert set(ABLATIONS) == expected

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ExperimentError, match="unknown ablation"):
            ablations.run_ablation("nonesuch")


#: Sweeps that only vary the CAER config (drivable through a stub).
CONFIG_LEVEL_ABLATIONS = sorted(
    set(ABLATIONS)
    - {
        "probe-period", "probe-overhead", "prefetch", "writebacks",
        "detector",
    }
)

#: Sweeps that rebuild the machine or engine per setting.
MACHINE_LEVEL_ABLATIONS = (
    "probe-period", "probe-overhead", "prefetch", "writebacks",
    "detector",
)


class TestSweeps:
    @pytest.mark.parametrize("name", CONFIG_LEVEL_ABLATIONS)
    def test_sweep_produces_complete_table(self, name):
        runner = StubRunner()
        table = ABLATIONS[name](runner)
        assert table.row_names  # at least one setting
        for column in (
            "mcf_penalty",
            "mcf_util",
            "namd_penalty",
            "namd_util",
        ):
            assert len(table.column(column)) == len(table.row_names)
        # Both victims evaluated for every setting.
        assert len(runner.evaluated) == 2 * len(table.row_names)

    def test_impact_factor_rows_labelled(self):
        table = ABLATIONS["impact-factor"](StubRunner())
        assert all(r.startswith("impact=") for r in table.row_names)

    def test_geometry_configs_valid(self):
        runner = StubRunner()
        ABLATIONS["shutter-geometry"](runner)
        # Config construction happens inside the sweep; reaching here
        # means every (switch, end) pair validated.


class TestRunnerPlumbing:
    def test_runner_builds_machine_from_settings(self):
        runner = _runner()
        assert runner.machine == runner.campaign.settings.machine()
        assert runner.machine.l3.capacity_lines == 8192

    def test_runner_evaluates_real_config(self):
        """One real (tiny) evaluation to cover the simulation path."""
        from repro.caer.runtime import CaerConfig

        runner = _runner()
        penalty, util = runner.evaluate(
            "444.namd", CaerConfig.rule_based()
        )
        assert penalty > -0.5
        assert 0.0 <= util <= 1.0


class TestMachineLevelSweeps:
    @pytest.mark.parametrize("name", MACHINE_LEVEL_ABLATIONS)
    def test_real_sweep_structure(self, name):
        """Machine-level sweeps rebuild chips; run them tiny but real."""
        table = ABLATIONS[name](_runner())
        assert table.row_names
        for column in table.columns:
            assert len(table.column(column)) == len(table.row_names)

    def test_probe_overhead_simulates_each_run_once(self, monkeypatch):
        from repro.sim.engine import SimulationEngine

        runs = []
        run = SimulationEngine.run

        def counted(engine):
            runs.append(engine)
            return run(engine)

        monkeypatch.setattr(SimulationEngine, "run", counted)
        table = ABLATIONS["probe-overhead"](_runner())
        # Four overheads on two victims; the zero-overhead row is the
        # baseline every penalty divides by.
        assert len(runs) == 8
        assert table.column("mcf_penalty")[0] == 0.0
        assert table.column("namd_penalty")[0] == 0.0


#: Short statistical runs: the store tests count runs, not seconds.
STORE_SETTINGS = CampaignSettings(length=0.02, backend="statistical")


def _simulated(campaign: Campaign) -> float:
    entry = campaign.metrics.snapshot().get("campaign.runs_simulated")
    return entry["value"] if entry else 0.0


class TestSharedStore:
    """Ablations read their runs through the campaign's store."""

    def test_cold_detector_ablation_simulates_each_spec_once(self):
        # Three detectors and the oracle on two victims, plus the two
        # solo baselines the penalties and the oracle share.
        campaign = Campaign(STORE_SETTINGS, use_disk_cache=False, jobs=1)
        ablations.run_ablation("detector", campaign)
        assert _simulated(campaign) == 10

    def test_after_headline_only_new_runs_are_simulated(self):
        from repro.experiments.headline import headline_numbers

        campaign = Campaign(STORE_SETTINGS, use_disk_cache=False, jobs=1)
        headline_numbers(campaign)
        before = _simulated(campaign)
        ablations.run_ablation("detector", campaign)
        # solo, shutter and rule are the headline's runs; only random
        # and the profile oracle, on mcf and namd, are new.
        assert _simulated(campaign) - before == 4
        ablations.run_ablation("detector", campaign)
        assert _simulated(campaign) - before == 4

    def test_probe_period_rows_keep_the_campaign_backend(
        self, monkeypatch
    ):
        campaign = Campaign(STORE_SETTINGS, use_disk_cache=False, jobs=1)
        read = []
        outcomes = campaign.outcomes

        def recording(specs):
            served = outcomes(specs)
            read.extend(served)
            return served

        monkeypatch.setattr(campaign, "outcomes", recording)
        ablations.run_ablation("probe-period", campaign)
        # Three periods, two victims, solo and rule-based each.
        assert len(read) == 12
        assert {outcome.backend for outcome in read} == {"statistical"}

    def test_interrupted_ablation_resumes_from_the_journal(
        self, tmp_path, monkeypatch
    ):
        from repro.faults.chaos import CHAOS_ENV

        def campaign() -> Campaign:
            return Campaign(STORE_SETTINGS, cache_dir=tmp_path, jobs=1)

        monkeypatch.setenv(CHAOS_ENV, "interrupt:1:444.namd")
        first = campaign()
        with pytest.raises(KeyboardInterrupt):
            ablations.run_ablation("detector", first)
        checkpointed = _simulated(first)
        assert checkpointed > 0

        monkeypatch.delenv(CHAOS_ENV)
        resumed = campaign()
        table = ablations.run_ablation("detector", resumed)
        snapshot = resumed.metrics.snapshot()
        assert snapshot["campaign.journal_resumed"]["value"] == checkpointed
        assert _simulated(resumed) == 10 - checkpointed

        uninterrupted = ablations.run_ablation(
            "detector", Campaign(STORE_SETTINGS, use_disk_cache=False)
        )
        assert table.render() == uninterrupted.render()

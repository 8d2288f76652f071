"""Resilient execution: retry, quarantine, journal resume, chaos."""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import (
    ChaosError,
    ConfigError,
    ExperimentError,
    FaultPlanError,
    SimulationError,
    UnknownBenchmarkError,
    WorkloadError,
    is_deterministic,
)
from repro.experiments.campaign import (
    Campaign,
    CampaignSettings,
)
from repro.experiments.resilience import (
    DEFAULT_BACKOFF,
    CampaignJournal,
    RetryPolicy,
    run_specs_resilient,
)
from repro.experiments.faults import fault_sweep
from repro.faults.chaos import CHAOS_ENV, ChaosSpec, maybe_inject
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry
from repro.sim import process

FAST = CampaignSettings(length=0.02, backend="statistical")

#: An eager policy so retry tests stay fast.
EAGER = RetryPolicy(max_attempts=2, backoff=(0.0,))


def _count(campaign: Campaign, name: str) -> float:
    entry = campaign.metrics.snapshot().get(name)
    return entry["value"] if entry else 0.0


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.backoff == DEFAULT_BACKOFF
        assert policy.timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff": (-0.1,)},
            {"timeout": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.timeout == 2.5

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "many")
        with pytest.raises(ConfigError, match="REPRO_RETRIES"):
            RetryPolicy.from_env()

    def test_backoff_schedule_clamps_to_last(self):
        policy = RetryPolicy(max_attempts=9, backoff=(0.1, 0.4))
        assert policy.delay_before(1) == 0.0
        assert policy.delay_before(2) == 0.1
        assert policy.delay_before(3) == 0.4
        assert policy.delay_before(9) == 0.4


@pytest.mark.parametrize(
    "error, deterministic",
    [
        (ConfigError("bad machine"), True),
        (FaultPlanError("bad plan"), True),
        (WorkloadError("bad phase"), True),
        (UnknownBenchmarkError("nonesuch"), True),
        (ChaosError("injected"), False),
        (SimulationError("inconsistent"), False),
        (RuntimeError("crash"), False),
        (None, False),  # a timeout or a dead worker
    ],
)
def test_is_deterministic(error, deterministic):
    assert is_deterministic(error) is deterministic


class TestChaosSpec:
    def test_unarmed(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert ChaosSpec.from_env() is None

    def test_parse_full_form(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:2:429.mcf")
        chaos = ChaosSpec.from_env()
        assert chaos == ChaosSpec("crash", 2, "429.mcf")

    def test_count_defaults_to_one(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang")
        assert ChaosSpec.from_env() == ChaosSpec("hang", 1)

    @pytest.mark.parametrize("raw", ["explode:1", "crash:soon", "crash:0"])
    def test_bad_directives_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(CHAOS_ENV, raw)
        with pytest.raises(ConfigError):
            ChaosSpec.from_env()

    def test_victim_scoping(self):
        chaos = ChaosSpec("crash", 2, "429.mcf")
        mcf = FAST.run_spec("429.mcf", "solo")
        namd = FAST.run_spec("444.namd", "solo")
        assert chaos.applies(mcf, 1) and chaos.applies(mcf, 2)
        assert not chaos.applies(mcf, 3)
        assert not chaos.applies(namd, 1)

    def test_maybe_inject_crash(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:1")
        with pytest.raises(ChaosError, match="attempt 1"):
            maybe_inject(FAST.run_spec("444.namd", "solo"), 1)
        maybe_inject(FAST.run_spec("444.namd", "solo"), 2)  # no-op


class TestRunSpecsResilient:
    def test_transient_crash_retries_to_success(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:1")
        metrics = MetricsRegistry()
        specs = [FAST.run_spec("444.namd", "solo")]
        outcomes, quarantined = run_specs_resilient(
            specs, jobs=1, metrics=metrics, policy=EAGER
        )
        assert not quarantined
        assert outcomes[specs[0].digest].completion_periods > 0
        snapshot = metrics.snapshot()
        assert snapshot["executor.attempts"]["value"] == 2.0
        assert snapshot["executor.retries"]["value"] == 1.0

    def test_persistent_crash_quarantines_not_raises(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:99:444.namd")
        metrics = MetricsRegistry()
        specs = [
            FAST.run_spec("444.namd", "solo"),
            FAST.run_spec("429.mcf", "solo"),
        ]
        outcomes, quarantined = run_specs_resilient(
            specs, jobs=1, metrics=metrics, policy=EAGER
        )
        assert specs[1].digest in outcomes
        record = quarantined[specs[0].digest]
        assert record.attempts == EAGER.max_attempts
        assert "ChaosError" in record.error
        assert metrics.snapshot()["executor.quarantined"]["value"] == 1.0

    def test_on_complete_fires_per_completion(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        done = []
        specs = [
            FAST.run_spec("444.namd", "solo"),
            FAST.run_spec("429.mcf", "solo"),
        ]
        run_specs_resilient(
            specs, jobs=1, policy=EAGER,
            on_complete=lambda spec, outcome, attempt: done.append(
                (spec.digest, attempt)
            ),
        )
        assert sorted(done) == sorted(
            (spec.digest, 1) for spec in specs
        )

    def test_duplicate_digests_run_once(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        metrics = MetricsRegistry()
        spec = FAST.run_spec("444.namd", "solo")
        outcomes, _ = run_specs_resilient(
            [spec, spec], jobs=1, metrics=metrics, policy=EAGER
        )
        assert len(outcomes) == 1
        assert metrics.snapshot()["executor.attempts"]["value"] == 1.0

    def test_hang_trips_per_run_timeout(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:1")
        specs = [
            FAST.run_spec("444.namd", "solo"),
            FAST.run_spec("429.mcf", "solo"),
        ]
        policy = RetryPolicy(
            max_attempts=2, backoff=(0.0,), timeout=0.75
        )
        started = time.monotonic()
        outcomes, quarantined = run_specs_resilient(
            specs, jobs=2, policy=policy
        )
        # Attempt 1 hangs (3 s) and is abandoned at the 0.75 s timeout;
        # attempt 2 is clean, so everything still completes.
        assert not quarantined
        assert set(outcomes) == {spec.digest for spec in specs}
        assert time.monotonic() - started < 2.5 * policy.timeout + 10


class TestCampaignJournal:
    def test_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.record_done("d1", "444.namd", "solo", attempts=2)
        journal.record_quarantined("d2", "429.mcf", "rule", 3, "boom")
        again = CampaignJournal(tmp_path / "journal.jsonl")
        assert again.completed["d1"]["attempts"] == 2
        assert again.quarantined["d2"]["error"] == "boom"

    def test_label_reads_back(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.record_quarantined(
            "d1", "429.mcf", "rule", 3, "boom",
            label="(429.mcf, rule+faults(drop=0.15,seed=0))",
        )
        journal.record_quarantined("d2", "444.namd", "solo", 3, "boom")
        again = CampaignJournal(tmp_path / "journal.jsonl")
        assert CampaignJournal.label_of(again.quarantined["d1"]) == (
            "(429.mcf, rule+faults(drop=0.15,seed=0))"
        )
        # A record written without a label reads as (bench, config).
        assert CampaignJournal.label_of(again.quarantined["d2"]) == (
            "(444.namd, solo)"
        )

    def test_later_records_win(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.record_quarantined("d1", "444.namd", "solo", 3, "boom")
        journal.record_done("d1", "444.namd", "solo")
        again = CampaignJournal(tmp_path / "journal.jsonl")
        assert "d1" in again.completed
        assert "d1" not in again.quarantined

    def test_cleared_lifts_quarantine(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.record_quarantined("d1", "444.namd", "solo", 3, "boom")
        journal.record_cleared("d1")
        assert "d1" not in CampaignJournal(
            tmp_path / "journal.jsonl"
        ).quarantined

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.record_done("d1", "444.namd", "solo")
        with open(path, "a") as handle:
            handle.write('{"status": "done", "digest": "d2"')  # torn
        again = CampaignJournal(path)
        assert "d1" in again.completed
        assert "d2" not in again.completed

    def test_missing_file_is_empty(self, tmp_path):
        journal = CampaignJournal(tmp_path / "absent.jsonl")
        assert journal.completed == {} and journal.quarantined == {}


class TestCampaignResilience:
    def test_quarantined_spec_reported_not_raised(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "crash:99:444.namd")
        campaign = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        simulated = campaign.prefetch(
            ["444.namd", "429.mcf"], ["solo"], jobs=1
        )
        assert simulated == 1
        report = campaign.quarantine_report()
        assert [r.label for r in report] == ["(444.namd, solo)"]
        with pytest.raises(ExperimentError, match="quarantined"):
            campaign.solo("444.namd")
        # The journal persists the quarantine into the next campaign.
        monkeypatch.delenv(CHAOS_ENV)
        fresh = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        assert len(fresh.quarantine_report()) == 1
        # ... unless the operator asks for another chance.
        monkeypatch.setenv("REPRO_RETRY_QUARANTINED", "1")
        retrying = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        assert retrying.quarantine_report() == []
        assert retrying.prefetch(["444.namd"], ["solo"], jobs=1) == 1

    def test_fresh_report_names_each_fault_intensity(
        self, tmp_path, monkeypatch
    ):
        # Faulted runs share their (bench, config) tags, so the journal
        # keeps each run's full label, fault plan included.
        settings = CampaignSettings(length=0.05, backend="statistical")
        Campaign(settings, cache_dir=tmp_path).solo("429.mcf")
        monkeypatch.setenv(CHAOS_ENV, "crash:99:429.mcf")
        campaign = Campaign(settings, cache_dir=tmp_path, retry=EAGER)
        intensities = (0.1, 0.3)
        with pytest.raises(ExperimentError, match="quarantined"):
            fault_sweep(
                campaign, victim="429.mcf", intensities=intensities,
                configs=("shutter",),
            )
        expected = sorted(
            settings.run_spec("429.mcf", "shutter").with_faults(
                FaultPlan.scaled(intensity, seed=0)
            ).describe()
            for intensity in intensities
        )
        assert len(set(expected)) == len(intensities)
        report = [r.label for r in campaign.quarantine_report()]
        assert report == expected
        monkeypatch.delenv(CHAOS_ENV)
        fresh = Campaign(settings, cache_dir=tmp_path, retry=EAGER)
        assert [r.label for r in fresh.quarantine_report()] == expected

    def test_solo_miss_is_retried_then_quarantined(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "crash:99:444.namd")
        campaign = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        message = (
            r"run \(444\.namd, solo\) is quarantined after 2 failed "
            r"attempts: .*REPRO_RETRY_QUARANTINED=1"
        )
        with pytest.raises(ExperimentError, match=message):
            campaign.solo("444.namd")
        assert _count(campaign, "executor.attempts") == 2.0
        assert _count(campaign, "executor.retries") == 1.0
        # Quarantined and journalled: a later call, in this campaign or
        # the next, raises the same error without running anything.
        monkeypatch.delenv(CHAOS_ENV)
        fresh = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        with pytest.raises(ExperimentError, match=message):
            fresh.solo("444.namd")
        assert _count(fresh, "executor.attempts") == 0.0

    def test_unknown_bench_is_quarantined_after_one_attempt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        campaign = Campaign(FAST, cache_dir=tmp_path)
        with pytest.raises(
            ExperimentError,
            match=r"\(nonesuch, solo\) is quarantined after 1 failed",
        ):
            campaign.solo("nonesuch")
        assert _count(campaign, "executor.attempts") == 1.0
        assert _count(campaign, "executor.retries") == 0.0

    def test_window_overflow_is_quarantined_after_one_attempt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        monkeypatch.setattr(process, "LINE_WINDOW", 1024)
        campaign = Campaign(FAST, cache_dir=tmp_path)
        with pytest.raises(
            ExperimentError, match="1 failed attempts: .*address window"
        ):
            campaign.solo("429.mcf")
        assert _count(campaign, "executor.attempts") == 1.0

    def test_chaos_crash_keeps_the_retry_ladder(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        monkeypatch.setenv(CHAOS_ENV, "crash:99:444.namd")
        campaign = Campaign(FAST, cache_dir=tmp_path)
        with pytest.raises(ExperimentError, match="3 failed attempts"):
            campaign.solo("444.namd")
        assert _count(campaign, "executor.attempts") == 3.0
        assert _count(campaign, "executor.retries") == 2.0

    def test_colocated_miss_retries_to_success_and_is_journalled(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "crash:1:429.mcf")
        campaign = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        outcome = campaign.colocated("429.mcf", "raw")
        assert outcome.digest == campaign.spec_for("429.mcf", "raw").digest
        assert _count(campaign, "executor.retries") == 1.0
        assert outcome.digest in campaign.journal.completed

    def test_clear_quarantine_is_journalled(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:99")
        campaign = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        campaign.prefetch(["444.namd"], ["solo"], jobs=1)
        assert campaign.quarantine_report()
        monkeypatch.delenv(CHAOS_ENV)
        assert campaign.clear_quarantine() == 1
        fresh = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        assert fresh.quarantine_report() == []
        assert fresh.solo("444.namd").completion_periods > 0

    def test_interrupt_then_rerun_resumes_with_zero_reexecution(
        self, tmp_path, monkeypatch
    ):
        # namd completes (and is checkpointed) before the chaos
        # interrupt kills the mcf run mid-campaign.
        monkeypatch.setenv(CHAOS_ENV, "interrupt:99:429.mcf")
        first = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        with pytest.raises(KeyboardInterrupt):
            first.prefetch(["444.namd", "429.mcf"], ["solo"], jobs=1)
        assert _count(first, "campaign.runs_simulated") == 1.0

        monkeypatch.delenv(CHAOS_ENV)
        second = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        simulated = second.prefetch(
            ["444.namd", "429.mcf"], ["solo"], jobs=1
        )
        # Only the interrupted run is executed; the completed one is
        # vouched for by the journal and never re-simulated.
        assert simulated == 1
        assert _count(second, "campaign.journal_resumed") == 1.0
        assert _count(second, "campaign.runs_simulated") == 1.0

        third = Campaign(FAST, cache_dir=tmp_path, retry=EAGER)
        assert third.prefetch(
            ["444.namd", "429.mcf"], ["solo"], jobs=1
        ) == 0
        assert _count(third, "campaign.journal_resumed") == 2.0
        assert _count(third, "campaign.runs_simulated") == 0.0

    def test_corrupt_cache_entry_renamed_aside(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        campaign.solo("444.namd")
        path = campaign._cache_path(
            campaign.spec_for("444.namd", "solo").digest
        )
        path.write_text("{definitely not json")
        fresh = Campaign(FAST, cache_dir=tmp_path)
        assert fresh.solo("444.namd").completion_periods > 0
        assert _count(fresh, "campaign.cache_invalid") == 1.0
        corpse = path.with_name(path.name + ".corrupt")
        assert corpse.exists()
        assert corpse.read_text() == "{definitely not json"
        assert json.loads(path.read_text())  # re-simulated and stored

"""Markdown report generation."""

from __future__ import annotations

from repro.runspec import RunOutcome
from repro.experiments.report import (
    _telemetry_section,
    _timing_section,
    generate_report,
    write_report,
)


def _outcome(bench: str, wall_seconds: float, telemetry=None) -> RunOutcome:
    return RunOutcome(
        digest=f"digest-of-{bench}",
        backend="sim",
        victim=bench,
        config="shutter",
        completion_periods=10,
        total_periods=10,
        ls_total_llc_misses=100,
        utilization_gained=0.5,
        wall_seconds=wall_seconds,
        telemetry=telemetry,
    )


class TestReport:
    def test_contains_all_sections(self):
        from tests.experiments.test_figures import FakeCampaign

        text = generate_report(FakeCampaign())
        assert "# CAER reproduction report" in text
        for heading in (
            "Headline numbers",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 10",
        ):
            assert heading in text, heading
        assert "run length" in text

    def test_write_report(self, tmp_path):
        from tests.experiments.test_figures import FakeCampaign

        path = write_report(FakeCampaign(), tmp_path / "r" / "report.md")
        assert path.exists()
        assert "Figure 6" in path.read_text()


class TestTimingSection:
    def test_all_untimed_renders_na_not_zero(self):
        from tests.experiments.test_figures import FakeCampaign

        campaign = FakeCampaign()
        campaign._store(_outcome(
            "429.mcf", wall_seconds=0.0
        ))
        campaign._store(_outcome(
            "470.lbm", wall_seconds=0.0
        ))
        text = _timing_section(campaign, elapsed=1.0)
        assert "n/a" in text
        assert "0.0 s across" not in text
        assert "cache epoch" in text
        assert "--no-cache" in text

    def test_partial_timing_calls_out_untimed_entries(self):
        from tests.experiments.test_figures import FakeCampaign

        campaign = FakeCampaign()
        campaign._store(_outcome(
            "429.mcf", wall_seconds=2.5
        ))
        campaign._store(_outcome(
            "470.lbm", wall_seconds=0.0
        ))
        text = _timing_section(campaign, elapsed=1.0)
        assert "2.5 s across 1 timed runs" in text
        assert "1 of 2 runs have no timing (n/a)" in text

    def test_fully_timed_has_no_epoch_note(self):
        from tests.experiments.test_figures import FakeCampaign

        campaign = FakeCampaign()
        campaign._store(_outcome(
            "429.mcf", wall_seconds=1.5
        ))
        text = _timing_section(campaign, elapsed=1.0)
        assert "n/a" not in text
        assert "cache epoch" not in text


class TestTelemetrySection:
    def test_empty_without_telemetry(self):
        from tests.experiments.test_figures import FakeCampaign

        assert _telemetry_section(FakeCampaign()) == ""

    def test_summarises_caer_governed_runs(self):
        from tests.experiments.test_figures import FakeCampaign

        campaign = FakeCampaign()
        campaign._store(_outcome(
            "429.mcf",
            wall_seconds=1.0,
            telemetry={
                "metrics": {},
                "derived": {
                    "verdicts": 10.0,
                    "detector_trigger_rate": 0.4,
                    "batch_run_fraction": 0.7,
                },
            },
        ))
        text = _telemetry_section(campaign)
        assert "## Telemetry" in text
        assert "trigger rate is 40%" in text
        assert "70% of governed periods" in text

"""Analytic-vs-simulated cross-validation driver."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import Campaign, CampaignSettings


def _campaign(jobs: int | None = None) -> Campaign:
    return Campaign(
        CampaignSettings(length=0.02), use_disk_cache=False, jobs=jobs
    )
from repro.experiments.crossval import (
    analytic_figure1,
    backend_crossval,
    rank_correlation,
)


class TestRankCorrelation:
    def test_identity(self):
        assert rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(
            1.0
        )

    def test_inverse(self):
        assert rank_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(
            -1.0
        )

    def test_constant_series(self):
        # Degenerate variance: defined as 0.
        assert rank_correlation([1, 1, 1], [1, 2, 3]) == pytest.approx(
            0.0, abs=1.0
        )


class TestAnalyticFigure1:
    def test_table_from_fake_campaign(self):
        from tests.experiments.test_figures import FakeCampaign

        table = analytic_figure1(FakeCampaign())
        assert len(table.row_names) == 21
        predicted = table.column("predicted")
        assert all(p >= 1.0 for p in predicted)
        # The analytic model must separate the suite: lbm-class
        # victims predicted well above the insensitive ones.
        by_name = dict(zip(table.row_names, predicted))
        assert by_name["429.mcf"] > by_name["444.namd"] + 0.1
        assert by_name["470.lbm"] > by_name["453.povray"] + 0.1


class TestBackendCrossval:
    def test_end_to_end_at_tiny_length(self):
        victims = ("429.mcf", "444.namd")
        table = backend_crossval(_campaign(), victims=victims)
        assert table.row_names == list(victims)
        sim = table.column("sim_slowdown")
        stat = table.column("stat_slowdown")
        # Both engines see contention: co-location never speeds the
        # victim up, on either backend.
        assert all(s >= 1.0 for s in sim)
        assert all(s >= 1.0 for s in stat)
        # The error column is the relative gap between the engines.
        error = table.column("error")
        assert error == pytest.approx(
            [t / s - 1.0 for s, t in zip(sim, stat)]
        )
        assert any("spearman" in note for note in table.notes)

    def test_engines_rank_sensitivity_the_same_way(self):
        """mcf (cache-hungry) must out-slow namd on both engines."""
        table = backend_crossval(
            _campaign(), victims=("429.mcf", "444.namd")
        )
        sim = table.column("sim_slowdown")
        stat = table.column("stat_slowdown")
        assert sim[0] > sim[1]
        assert stat[0] > stat[1]

    def test_parallel_matches_serial(self):
        victims = ("429.mcf",)
        parallel = backend_crossval(_campaign(jobs=2), victims=victims)
        serial = backend_crossval(_campaign(jobs=1), victims=victims)
        assert parallel.column("sim_slowdown") == serial.column(
            "sim_slowdown"
        )
        assert parallel.column("stat_slowdown") == serial.column(
            "stat_slowdown"
        )

"""Alternative-contender experiment (§6.1)."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.contenders import (
    CONTENDERS,
    VICTIM_PANEL,
    contender_study,
    heavy_contender_agreement,
)
from repro.experiments.reporting import FigureTable


class TestStudyStructure:
    def test_panel_definitions(self):
        assert "470.lbm" in CONTENDERS
        assert "462.libquantum" in CONTENDERS
        assert "433.milc" in CONTENDERS
        assert "444.namd" in CONTENDERS  # the light control
        assert "429.mcf" in VICTIM_PANEL

    def test_small_real_study(self):
        table = contender_study(
            Campaign(CampaignSettings(length=0.02), use_disk_cache=False),
            contenders=("470.lbm", "444.namd"),
            victims=("429.mcf", "444.namd"),
        )
        # Self-pairs skipped: (mcf, lbm), (namd, lbm), (mcf, namd).
        assert len(table.row_names) == 3
        assert "429.mcf vs 470.lbm" in table.row_names
        assert "444.namd vs 444.namd" not in table.row_names
        for column in ("raw_penalty", "caer_penalty", "caer_util"):
            assert len(table.column(column)) == 3

    def test_heavy_contender_hurts_more_than_light(self):
        table = contender_study(
            Campaign(CampaignSettings(length=0.03), use_disk_cache=False),
            contenders=("470.lbm", "444.namd"),
            victims=("429.mcf",),
        )
        by_row = dict(
            zip(table.row_names, table.column("raw_penalty"))
        )
        assert (
            by_row["429.mcf vs 470.lbm"]
            > by_row["429.mcf vs 444.namd"] + 0.1
        )


class TestAgreementMetric:
    def make_table(self, penalties: dict[str, float]) -> FigureTable:
        table = FigureTable(
            title="t", row_names=list(penalties)
        )
        table.add_column("raw_penalty", list(penalties.values()))
        return table

    def test_identical_contenders_agree_perfectly(self):
        table = self.make_table(
            {
                "429.mcf vs 470.lbm": 0.4,
                "429.mcf vs 462.libquantum": 0.4,
                "429.mcf vs 433.milc": 0.4,
            }
        )
        assert heavy_contender_agreement(table) == pytest.approx(0.0)

    def test_spread_measured(self):
        table = self.make_table(
            {
                "429.mcf vs 470.lbm": 0.5,
                "429.mcf vs 462.libquantum": 0.3,
                "429.mcf vs 433.milc": 0.4,
            }
        )
        assert heavy_contender_agreement(table) == pytest.approx(0.2)

    def test_light_control_excluded(self):
        table = self.make_table(
            {
                "429.mcf vs 470.lbm": 0.4,
                "429.mcf vs 444.namd": 0.0,  # must not count
            }
        )
        assert heavy_contender_agreement(table) == pytest.approx(0.0)

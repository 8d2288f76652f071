"""Figure drivers, exercised against a synthetic campaign.

The real campaign simulates 21 benchmarks x 5 configurations — that is
the benches' job.  Here a :class:`FakeCampaign` supplies hand-crafted
outcomes so each driver's *analysis* is verified exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.paperdata import (
    FIGURE1_SLOWDOWN,
    LEAST_SENSITIVE,
    MOST_SENSITIVE,
)
from repro.runspec import RunOutcome
from repro.workloads import benchmark_names


class FakeCampaign(Campaign):
    """Serves synthetic run outcomes shaped like the paper's data."""

    def __init__(self):
        super().__init__(CampaignSettings(length=0.01),
                         use_disk_cache=False)
        self._utils = {
            "raw": 1.0, "shutter": 0.6, "rule": 0.58, "random": 0.5,
        }

    def prefetch(self, benches, configs, jobs=None) -> int:
        """Simulates nothing: :meth:`solo` and :meth:`colocated` serve
        every run a driver reads."""
        return 0

    def solo(self, bench: str) -> RunOutcome:
        misses = 1000 if bench in MOST_SENSITIVE else 50
        return RunOutcome(
            digest=f"{bench}-solo",
            backend="sim",
            victim=bench,
            config="solo",
            completion_periods=100,
            total_periods=100,
            ls_total_llc_misses=misses * 100,
            utilization_gained=0.0,
            miss_series=[misses] * 100,
            instruction_series=[10_000.0 - misses] * 100,
        )

    def colocated(self, bench: str, config: str) -> RunOutcome:
        raw_slowdown = FIGURE1_SLOWDOWN[bench]
        managed = {
            "raw": raw_slowdown,
            "shutter": 1.0 + (raw_slowdown - 1.0) * 0.3,
            "rule": 1.0 + (raw_slowdown - 1.0) * 0.2,
            "random": 1.0 + (raw_slowdown - 1.0) * 0.6,
        }[config]
        sensitive = bench in MOST_SENSITIVE
        util = self._utils[config]
        if config in ("shutter", "rule") and sensitive:
            util *= 0.4  # heuristics sacrifice more for sensitive apps
        periods = round(100 * managed)
        return RunOutcome(
            digest=f"{bench}-{config}",
            backend="sim",
            victim=bench,
            config=config,
            completion_periods=periods,
            total_periods=periods,
            ls_total_llc_misses=periods * 60,
            utilization_gained=util,
            miss_series=[60] * periods,
            instruction_series=[9_000.0] * periods,
        )


@pytest.fixture
def campaign() -> FakeCampaign:
    return FakeCampaign()


class TestFigure1:
    def test_rows_and_mean(self, campaign):
        table = figures.figure1(campaign)
        assert table.row_names == list(benchmark_names())
        assert table.column("slowdown") == pytest.approx(
            [FIGURE1_SLOWDOWN[b] for b in benchmark_names()]
        )
        assert table.mean("slowdown") == pytest.approx(1.17, abs=0.02)


class TestFigure2:
    def test_increase_computed(self, campaign):
        table = figures.figure2(campaign)
        for a, w, inc in zip(
            table.column("alone"),
            table.column("with_contender"),
            table.column("increase"),
        ):
            assert inc == pytest.approx(w / a - 1.0)


class TestFigure3:
    def test_charts_rendered(self, campaign):
        charts = figures.figure3(campaign)
        assert set(charts) == {
            "483.xalancbmk/misses",
            "483.xalancbmk/instructions",
            "429.mcf/misses",
            "429.mcf/instructions",
        }
        for chart in charts.values():
            assert "#" in chart

    def test_correlation_table(self, campaign):
        table = figures.figure3_correlations(campaign)
        assert table.row_names == list(figures.FIGURE3_BENCHMARKS)
        # Flat series -> correlation 0; the fake has constant series.
        for r in table.column("pearson_r"):
            assert -1.0 <= r <= 1.0


class TestFigure6:
    def test_ordering_raw_worst(self, campaign):
        table = figures.figure6(campaign)
        assert (
            table.mean("co-location")
            > table.mean("caer_shutter")
            > table.mean("caer_rule")
        )


class TestFigure7:
    def test_utilization_columns(self, campaign):
        table = figures.figure7(campaign)
        for value in table.column("caer_shutter"):
            assert 0.0 <= value <= 1.0


class TestFigure8:
    def test_elimination_in_unit_range(self, campaign):
        table = figures.figure8(campaign)
        for column in ("caer_shutter", "caer_rule"):
            for value in table.column(column):
                assert 0.0 <= value <= 1.0

    def test_rule_eliminates_more_than_shutter(self, campaign):
        table = figures.figure8(campaign)
        assert table.mean("caer_rule") >= table.mean("caer_shutter")


class TestFigures9And10:
    def test_signs_match_paper(self, campaign):
        most = figures.figure9(campaign)
        least = figures.figure10(campaign)
        assert most.row_names == list(MOST_SENSITIVE)
        assert least.row_names == list(LEAST_SENSITIVE)
        # Sensitive: heuristics sacrifice more than random (negative A).
        assert most.mean("caer_rule") < 0
        assert most.mean("caer_shutter") < 0
        # Insensitive: heuristics beat random (positive A).
        assert least.mean("caer_rule") > 0
        assert least.mean("caer_shutter") > 0


class TestPearson:
    def test_perfect_inverse(self):
        assert figures._pearson(
            [1, 2, 3, 4], [8, 6, 4, 2]
        ) == pytest.approx(-1.0)

    def test_uncorrelated_constant(self):
        assert figures._pearson([1, 1, 1], [2, 3, 4]) == 0.0

    def test_short_series(self):
        assert figures._pearson([1], [2]) == 0.0

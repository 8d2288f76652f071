"""The multi-batch scaling study (extension experiment)."""

from __future__ import annotations

import pytest

from repro.caer.runtime import CaerConfig
from repro.errors import SchedulingError
from repro.experiments.campaign import Campaign, CampaignSettings
from repro.experiments.scaling import scaling_spec, scaling_study
from repro.sim import run_multi_colocated
from repro.workloads import synthetic

FAST = CampaignSettings(length=0.02)


def _campaign(jobs: int | None = None) -> Campaign:
    return Campaign(FAST, use_disk_cache=False, jobs=jobs)


class TestScenario:
    def test_multi_colocated_schedules_all_batches(self, scaled_machine):
        result = run_multi_colocated(
            synthetic.zipf_worker(lines=2_000, instructions=80_000.0),
            [
                synthetic.streamer(lines=10_000, instructions=40_000.0),
                synthetic.streamer(lines=10_000, instructions=40_000.0),
            ],
            scaled_machine,
        )
        assert len(result.batch_processes()) == 2
        names = {p.name for p in result.batch_processes()}
        assert len(names) == 2  # distinct auto-generated names

    def test_too_many_batches_rejected(self, tiny_machine):
        with pytest.raises(SchedulingError, match="cores"):
            run_multi_colocated(
                synthetic.compute_bound(),
                [synthetic.compute_bound()] * 3,
                tiny_machine,  # only 2 cores
            )

    def test_more_contenders_hurt_more(self, scaled_machine):
        victim = synthetic.zipf_worker(
            lines=5_000, alpha=0.7, instructions=100_000.0
        )
        contender = synthetic.streamer(
            lines=30_000, instructions=50_000.0
        )

        def periods(k: int) -> int:
            result = run_multi_colocated(
                victim, [contender] * k, scaled_machine
            )
            return result.latency_sensitive().completion_periods

        assert periods(3) > periods(1)


class TestSpecs:
    def test_k_contenders_and_policy(self):
        spec = scaling_spec(FAST, "429.mcf", 3, CaerConfig.rule_based())
        assert len(spec.contenders) == 3
        assert spec.caer == CaerConfig.rule_based()
        assert spec.describe() == "(429.mcf, rule x3)"

    def test_settings_flow_into_the_spec(self):
        spec = scaling_spec(FAST, "429.mcf", 1)
        assert spec.length == FAST.length
        assert spec.backend == FAST.backend
        assert spec.machine == FAST.machine()


class TestStudy:
    def test_table_structure_and_direction(self):
        table = scaling_study(_campaign())
        assert table.row_names == ["1 batch", "2 batch", "3 batch"]
        raw = table.column("raw_penalty")
        caer = table.column("caer_penalty")
        # Raw interference grows with contender count...
        assert raw[-1] > raw[0]
        # ...while CAER holds the penalty well below raw at every count.
        for r, c in zip(raw, caer):
            assert c < r

    def test_caer_holds_the_penalty_roughly_flat(self):
        """The docstring's shape claim, quantified.

        Adding contenders grows the raw penalty by some margin; CAER's
        penalty may drift too, but by less — the whole point of
        throttling the batch group as one.
        """
        table = scaling_study(_campaign())
        raw = table.column("raw_penalty")
        caer = table.column("caer_penalty")
        raw_growth = raw[-1] - raw[0]
        caer_growth = caer[-1] - caer[0]
        assert raw_growth > 0
        assert caer_growth < raw_growth
        # "Roughly flat": CAER's worst penalty stays within a small
        # absolute band of its best, while raw fans out.
        assert max(caer) - min(caer) < max(raw) - min(raw)

    def test_parallel_matches_serial(self):
        assert (
            scaling_study(_campaign(jobs=2)).column("caer_penalty")
            == scaling_study(_campaign(jobs=1)).column("caer_penalty")
        )

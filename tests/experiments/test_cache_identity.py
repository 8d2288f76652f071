"""Digest-keyed campaign cache: cross-driver hits and the key audit."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.errors import ConfigError
from repro.experiments.campaign import (
    _AUDIT_PERTURBATIONS,
    CACHE_EPOCH,
    Campaign,
    CampaignSettings,
    audit_cache_key,
)
from repro.runspec import RunOutcome, RunSpec

FAST = CampaignSettings(length=0.02)


def _count(campaign: Campaign, name: str) -> float:
    entry = campaign.metrics.snapshot().get(name)
    return entry["value"] if entry else 0.0


class TestCrossDriverCacheHits:
    def test_identical_specs_hit_across_campaigns(self, tmp_path):
        """A re-run over the same cache serves 100% from cache.

        First campaign populates the disk cache via the parallel
        prefetch path; a second, fresh campaign asking for the same
        specs — through prefetch, ``solo`` and ``colocated`` alike —
        simulates nothing and never misses.
        """
        benches = ["429.mcf", "470.lbm"]
        configs = ["solo", "raw", "rule"]
        first = Campaign(FAST, cache_dir=tmp_path, jobs=2)
        assert first.prefetch(benches, configs) == 6
        assert _count(first, "campaign.runs_simulated") == 6

        rerun = Campaign(FAST, cache_dir=tmp_path, jobs=2)
        assert rerun.prefetch(benches, configs) == 0
        for bench in benches:
            rerun.solo(bench)
            rerun.colocated(bench, "raw")
            rerun.colocated(bench, "rule")
        assert _count(rerun, "campaign.runs_simulated") == 0
        assert _count(rerun, "campaign.cache_misses") == 0
        assert _count(rerun, "campaign.cache_invalid") == 0
        assert _count(rerun, "campaign.cache_disk_hits") == 6
        assert _count(rerun, "campaign.cache_memory_hits") == 6

    def test_cache_path_is_the_spec_digest(self, tmp_path):
        campaign = Campaign(FAST, cache_dir=tmp_path)
        spec = campaign.spec_for("429.mcf", "rule")
        path = campaign._cache_path(spec.digest)
        assert path == tmp_path / f"e{CACHE_EPOCH}" / f"{spec.digest}.json"

    def test_backends_never_share_cache_entries(self, tmp_path):
        sim = Campaign(FAST, cache_dir=tmp_path)
        stat = Campaign(
            dataclasses.replace(FAST, backend="statistical"),
            cache_dir=tmp_path,
        )
        assert sim._cache_path(
            sim.spec_for("429.mcf", "raw").digest
        ) != stat._cache_path(stat.spec_for("429.mcf", "raw").digest)

    def test_differing_settings_produce_differing_keys(self):
        """Satellite collision check at the campaign level."""
        digests = {
            perturb(FAST).run_spec("429.mcf", "rule").digest
            for perturb in _AUDIT_PERTURBATIONS.values()
        }
        digests.add(FAST.run_spec("429.mcf", "rule").digest)
        assert len(digests) == len(_AUDIT_PERTURBATIONS) + 1


class TestCacheKeyAudit:
    def test_default_settings_pass(self):
        audit_cache_key(CampaignSettings())

    def test_unaudited_field_refused(self, monkeypatch):
        trimmed = dict(_AUDIT_PERTURBATIONS)
        del trimmed["seed"]
        monkeypatch.setattr(
            "repro.experiments.campaign._AUDIT_PERTURBATIONS", trimmed
        )
        with pytest.raises(ConfigError, match="seed"):
            audit_cache_key(CampaignSettings())

    def test_digest_invariant_perturbation_refused(self, monkeypatch):
        broken = dict(_AUDIT_PERTURBATIONS)
        broken["length"] = lambda s: s  # knob "changes" but digest won't
        monkeypatch.setattr(
            "repro.experiments.campaign._AUDIT_PERTURBATIONS", broken
        )
        with pytest.raises(ConfigError, match="length"):
            audit_cache_key(CampaignSettings())

    def test_campaign_construction_runs_the_audit(
        self, tmp_path, monkeypatch
    ):
        trimmed = dict(_AUDIT_PERTURBATIONS)
        del trimmed["backend"]
        monkeypatch.setattr(
            "repro.experiments.campaign._AUDIT_PERTURBATIONS", trimmed
        )
        with pytest.raises(ConfigError, match="backend"):
            Campaign(FAST, cache_dir=tmp_path)


def _histogram(buckets, counts, total, count, low, high) -> dict:
    return {
        "type": "histogram", "buckets": buckets, "counts": counts,
        "sum": total, "count": count, "min": low, "max": high,
    }


#: Shaped like a statistical ``429.mcf`` shutter entry at length 0.01
#: (plus a ``None`` and booleans, so every JSON type is written), with
#: its host-timed values (``wall_seconds``, the period-span histogram)
#: fixed so the written bytes are too.  Its verdicts add a c-negative
#: to the run's one c-positive, so they hold ``None``, ``True`` and
#: ``False``.  Its ``digest`` is the spec digest of ``FAST``'s
#: statistical ``(429.mcf, shutter)`` run, so the entry reads back
#: through that spec.
PINNED_OUTCOME = RunOutcome(
    digest="56a2cbc2bdc473a86b278152073d37b8ae421fb9376445c89464a1e6023e2934",
    backend="statistical",
    victim="429.mcf",
    config="shutter",
    completion_periods=11,
    total_periods=14,
    ls_total_llc_misses=2887,
    utilization_gained=0.45454545454545453,
    miss_series=[0, 0, 0, 333, 326, 316, 309, 283, 264, 255, 252, 249,
                 278, 22],
    instruction_series=[0.0, 0.0, 0.0, 1785.4, 1820.0, 1982.5, 2107.6,
                        2057.7, 2016.8, 2028.3, 2075.8, 2132.1, 2455.9,
                        5537.9],
    verdicts=[None] * 10 + [True, None, False, None],
    wall_seconds=0.088,
    telemetry={
        "metrics": {
            "caer.batch_paused_periods": {"type": "counter", "value": 9.0},
            "caer.periods": {"type": "counter", "value": 14.0},
            "profile.engine_period_seconds": _histogram(
                [1e-06, 5e-06, 1e-05, 5e-05, 0.0001, 0.0005, 0.001],
                [0, 0, 0, 4, 9, 1, 0, 0], 0.000917515000764979, 14,
                3.38079989887774e-05, 0.00013710300117963925,
            ),
            "sim.llc_misses_per_period.429.mcf": _histogram(
                [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                 512.0],
                [3, 0, 0, 0, 0, 1, 0, 0, 3, 7, 0], 2887.0, 14, 0, 333,
            ),
        },
        "derived": {
            "detector_trigger_rate": 0.5,
            "batch_run_fraction": 0.3571428571428571,
            "verdicts": 2.0,
            "speedup": None,
        },
        "spec_digest": (
            "da53c1e25d22e34d87f99feab8ae96592bd8723d5439269726ba37257548c346"
        ),
        "backend": "statistical",
        "flags": [True, False],
    },
)

#: sha256 of the cache entry :meth:`Campaign._store` writes for it:
#: the outcome's field dict, in field order, through ``json.dumps``.
PINNED_ENTRY_SHA256 = (
    "023190f2cb7afa809209cb39c39dd7e5279cef56c7f02f6aa75bd5486a9879e3"
)


class TestBookkeeping:
    """Per-run bookkeeping pays once and writes what it always wrote."""

    def test_cache_entry_bytes_are_pinned(self, tmp_path):
        campaign = Campaign(
            dataclasses.replace(FAST, backend="statistical"),
            cache_dir=tmp_path,
        )
        campaign._store(PINNED_OUTCOME)
        spec = campaign.spec_for("429.mcf", "shutter")
        data = campaign._cache_path(spec.digest).read_bytes()
        assert hashlib.sha256(data).hexdigest() == PINNED_ENTRY_SHA256
        assert campaign.cached(spec) is PINNED_OUTCOME
        fresh = Campaign(campaign.settings, cache_dir=tmp_path)
        loaded = fresh.cached(fresh.spec_for("429.mcf", "shutter"))
        assert loaded == PINNED_OUTCOME
        assert loaded.verdicts == PINNED_OUTCOME.verdicts
        assert loaded.telemetry == PINNED_OUTCOME.telemetry
        assert loaded.wall_seconds == PINNED_OUTCOME.wall_seconds

    def test_one_serialisation_per_distinct_spec(self, tmp_path, monkeypatch):
        """A cold serial campaign serialises each spec once, plus the
        fresh specs of the cache-key audit."""
        calls = []
        to_json = RunSpec.to_json

        def counting(spec):
            calls.append(spec)
            return to_json(spec)

        monkeypatch.setattr(RunSpec, "to_json", counting)
        settings = CampaignSettings(length=0.01, backend="statistical")
        audit_cache_key(settings)
        audit_calls = len(calls)
        assert audit_calls == len(_AUDIT_PERTURBATIONS) + 1
        calls.clear()

        benches = ["429.mcf", "470.lbm"]
        configs = ["solo", "raw", "shutter", "rule"]
        campaign = Campaign(settings, cache_dir=tmp_path, jobs=1)
        assert campaign.prefetch(benches, configs) == 8
        for bench in benches:
            campaign.solo(bench)
            campaign.colocated(bench, "shutter")
        assert len(calls) == audit_calls + 8
        assert len({spec.digest for spec in calls[audit_calls:]}) == 8

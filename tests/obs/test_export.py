"""Live telemetry: exposition rendering, HTTP endpoint, beacons, spans.

Covers the export subsystem end to end: the Prometheus text renderer
over registry snapshots, the background ``/metrics`` endpoint with a
live provider, heartbeat write/read/merge (including corrupt-file
tolerance), span-profiler activation semantics, and the integration
claim — a mid-campaign scrape observes strictly increasing
completed-run counters.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    MetricsExporter,
    PROFILER,
    activate_profiling,
    exporter_port,
    merge_beacon_metrics,
    read_beacons,
    render_prometheus,
    sanitize_metric_name,
    spans_enabled,
    start_exporter,
    write_beacon,
)
from repro.obs.export import METRICS_PORT_ENV
from repro.obs.heartbeat import BEACON_DIR_ENV, beacon_age, beacon_dir
from repro.obs.profiling import PROFILE_ENV


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode()


class TestSanitization:
    def test_dots_become_underscores(self):
        assert (
            sanitize_metric_name("sim.llc_misses.470.lbm-0")
            == "sim_llc_misses_470_lbm_0"
        )

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("4xx.count") == "_4xx_count"

    def test_valid_name_unchanged(self):
        assert sanitize_metric_name("caer_periods:rate") == \
            "caer_periods:rate"

    def test_empty_name_rejected(self):
        with pytest.raises(ObservabilityError):
            sanitize_metric_name("")


class TestRenderer:
    def test_counter_gains_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("campaign.runs_simulated").inc(3)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_campaign_runs_simulated_total counter" in text
        assert "repro_campaign_runs_simulated_total 3\n" in text
        assert "# HELP repro_campaign_runs_simulated_total" in text

    def test_gauge_passes_through(self):
        registry = MetricsRegistry()
        registry.gauge("executor.jobs").set(4)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_executor_jobs gauge" in text
        assert "repro_executor_jobs 4\n" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("span.seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        assert '# TYPE repro_span_seconds histogram' in text
        assert 'repro_span_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_span_seconds_bucket{le="1"} 3' in text
        assert 'repro_span_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_span_seconds_count 4" in text
        assert "repro_span_seconds_sum 5.6" in text

    def test_colliding_names_keep_first(self):
        snapshot = {
            "a.b": {"type": "gauge", "value": 1.0},
            "a_b": {"type": "gauge", "value": 2.0},
        }
        text = render_prometheus(snapshot)
        assert text.count("# TYPE repro_a_b gauge") == 1
        # sorted() puts "a.b" before "a_b" ('.' < '_'), so value 1 wins.
        assert "repro_a_b 1" in text
        assert "repro_a_b 2" not in text

    def test_unknown_types_are_skipped(self):
        text = render_prometheus({"weird": {"type": "mystery", "value": 1}})
        assert text == ""

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""


class TestExporterPort:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(METRICS_PORT_ENV, raising=False)
        assert exporter_port() is None
        assert start_exporter(dict) is None

    def test_valid_port(self, monkeypatch):
        monkeypatch.setenv(METRICS_PORT_ENV, "9099")
        assert exporter_port() == 9099

    @pytest.mark.parametrize("bad", ["nope", "-1", "70000"])
    def test_invalid_port_raises(self, monkeypatch, bad):
        monkeypatch.setenv(METRICS_PORT_ENV, bad)
        with pytest.raises(ObservabilityError):
            exporter_port()


class TestExporterEndpoint:
    def test_scrape_roundtrip_and_live_updates(self):
        registry = MetricsRegistry()
        registry.counter("campaign.runs_simulated").inc()
        with MetricsExporter(registry.snapshot, port=0) as exporter:
            first = _scrape(exporter.url)
            assert "repro_campaign_runs_simulated_total 1" in first
            registry.counter("campaign.runs_simulated").inc(2)
            second = _scrape(exporter.url)
            assert "repro_campaign_runs_simulated_total 3" in second

    def test_root_path_serves_metrics_too(self):
        registry = MetricsRegistry()
        registry.gauge("x").set(1)
        with MetricsExporter(registry.snapshot, port=0) as exporter:
            body = _scrape(f"http://127.0.0.1:{exporter.port}/")
            assert "repro_x 1" in body

    def test_unknown_path_404s(self):
        with MetricsExporter(dict, port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as info:
                _scrape(f"http://127.0.0.1:{exporter.port}/nope")
            assert info.value.code == 404

    def test_provider_error_is_500_not_crash(self):
        def bad_provider():
            raise RuntimeError("registry on fire")

        with MetricsExporter(bad_provider, port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as info:
                _scrape(exporter.url)
            assert info.value.code == 500
            # The endpoint survives a provider error.
            with pytest.raises(urllib.error.HTTPError):
                _scrape(exporter.url)


class TestHeartbeats:
    def test_write_read_roundtrip(self, tmp_path):
        path = write_beacon(
            tmp_path, "worker-0", {"state": "running", "tasks_completed": 2}
        )
        assert path is not None
        beacons = read_beacons(tmp_path)
        payload = beacons["worker-0"]
        assert payload["state"] == "running"
        assert payload["tasks_completed"] == 2
        assert payload["pid"] > 0
        assert beacon_age(payload) < 60.0

    def test_rewrites_advance_seq(self, tmp_path):
        write_beacon(tmp_path, "campaign", {"state": "running"})
        first = read_beacons(tmp_path)["campaign"]["seq"]
        write_beacon(tmp_path, "campaign", {"state": "done"})
        second = read_beacons(tmp_path)["campaign"]["seq"]
        assert second > first

    def test_corrupt_beacon_is_skipped(self, tmp_path):
        write_beacon(tmp_path, "worker-0", {"state": "idle"})
        (tmp_path / "worker-1.json").write_text("{torn")
        (tmp_path / "not-an-object.json").write_text(json.dumps([1, 2]))
        beacons = read_beacons(tmp_path)
        assert set(beacons) == {"worker-0"}

    def test_missing_directory_reads_empty(self, tmp_path):
        assert read_beacons(tmp_path / "never-created") == {}

    def test_unwritable_directory_returns_none(self, tmp_path):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("x")
        assert write_beacon(blocker, "worker-0", {}) is None

    def test_beacon_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(BEACON_DIR_ENV, raising=False)
        assert beacon_dir() is None
        monkeypatch.setenv(BEACON_DIR_ENV, str(tmp_path))
        assert beacon_dir() == tmp_path

    def test_merge_aggregates_workers_and_campaign(self, tmp_path):
        write_beacon(tmp_path, "worker-0", {
            "state": "running", "tasks_completed": 3, "tasks_failed": 1,
            "detector_verdicts": 10.0, "detector_positives": 4.0,
        })
        write_beacon(tmp_path, "worker-1", {
            "state": "idle", "tasks_completed": 5, "tasks_failed": 0,
            "detector_verdicts": 6.0, "detector_positives": 1.0,
        })
        write_beacon(tmp_path, "campaign", {
            "state": "running", "runs_total": 20, "runs_completed": 8,
            "runs_cached": 8, "quarantined": 1,
        })
        merged = merge_beacon_metrics(read_beacons(tmp_path))
        assert merged["workerpool.workers"]["value"] == 2
        assert merged["workerpool.workers_running"]["value"] == 1
        assert merged["workerpool.tasks_completed"]["value"] == 8
        assert merged["workerpool.tasks_failed"]["value"] == 1
        assert merged["workerpool.detector_verdicts"]["value"] == 16.0
        assert merged["workerpool.detector_positives"]["value"] == 5.0
        assert merged["campaign.beacon_runs_total"]["value"] == 20
        assert merged["campaign.beacon_runs_completed"]["value"] == 8
        assert merged["campaign.beacon_quarantined"]["value"] == 1
        assert merged["campaign.beacon_running"]["value"] == 1.0
        # The fragment renders like any snapshot.
        text = render_prometheus(merged)
        assert "repro_workerpool_tasks_completed_total 8" in text

    def test_merge_of_nothing_is_empty(self):
        assert merge_beacon_metrics({}) == {}


class TestSpanProfiling:
    def test_disabled_by_default_off_env(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "0")
        assert not spans_enabled()
        registry = MetricsRegistry()
        with activate_profiling(registry):
            assert not PROFILER.enabled
        assert len(registry) == 0

    def test_activation_is_scoped(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert spans_enabled()
        registry = MetricsRegistry()
        assert not PROFILER.enabled
        with activate_profiling(registry):
            assert PROFILER.enabled
            with PROFILER.span("profile.test_seconds"):
                pass
        assert not PROFILER.enabled
        snap = registry.snapshot()
        assert snap["profile.test_seconds"]["count"] == 1

    def test_activation_without_registry_is_noop(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        with activate_profiling(None):
            assert not PROFILER.enabled

    def test_nested_activation_restores_outer(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with activate_profiling(outer):
            with activate_profiling(inner):
                PROFILER.observe("profile.x_seconds", 0.5)
            PROFILER.observe("profile.y_seconds", 0.5)
        assert "profile.x_seconds" in inner.snapshot()
        assert "profile.y_seconds" in outer.snapshot()
        assert "profile.x_seconds" not in outer.snapshot()


class TestMidCampaignScrape:
    def test_completed_runs_strictly_increase_between_scrapes(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE's acceptance claim, in-process.

        A campaign prefetch runs on a worker thread while the exporter
        serves its merged snapshot; successive scrapes must observe the
        ``campaign.runs_simulated`` counter strictly increasing, and
        the final scrape must account for every simulated run.
        """
        import re

        from repro.experiments import Campaign, CampaignSettings

        monkeypatch.delenv(BEACON_DIR_ENV, raising=False)
        settings = CampaignSettings(length=0.02, backend="statistical")
        campaign = Campaign(
            settings, cache_dir=tmp_path / "cache", jobs=1
        )
        benches = ["429.mcf", "470.lbm", "462.libquantum", "433.milc"]
        configs = ["solo", "shutter"]

        pattern = re.compile(
            r"^repro_campaign_runs_simulated_total (\d+)$", re.M
        )
        observed: list[int] = []
        with MetricsExporter(campaign.export_snapshot, port=0) as exporter:
            worker = threading.Thread(
                target=campaign.prefetch, args=(benches, configs)
            )
            worker.start()
            try:
                while worker.is_alive():
                    match = pattern.search(_scrape(exporter.url))
                    count = int(match.group(1)) if match else 0
                    if not observed or count > observed[-1]:
                        observed.append(count)
            finally:
                worker.join()
            final = pattern.search(_scrape(exporter.url))
        assert final is not None
        assert int(final.group(1)) == len(benches) * len(configs)
        # Strictly increasing by construction; the claim is that we
        # actually caught the campaign mid-flight at least once.
        assert observed == sorted(set(observed))

"""Command-line interface plumbing (fast paths only)."""

from __future__ import annotations

import json
import re

import pytest

from repro import cli
from repro.obs import read_jsonl
from repro.runspec import RunSpec


class TestParser:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figures: 1 2 3 6 7 8 9 10" in out
        assert "impact-factor" in out

    def test_fig_requires_valid_number(self):
        with pytest.raises(SystemExit):
            cli.main(["fig", "4"])

    def test_ablation_requires_valid_name(self):
        with pytest.raises(SystemExit):
            cli.main(["ablation", "nonesuch"])

    def test_length_flag_parsed(self):
        parser = cli._build_parser()
        args = parser.parse_args(["--length", "0.3", "list"])
        assert args.length == 0.3
        settings = cli._settings(args)
        assert settings.length == 0.3

    def test_seed_flag_parsed(self):
        parser = cli._build_parser()
        args = parser.parse_args(["--seed", "7", "list"])
        assert cli._settings(args).seed == 7

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LENGTH", "0.15")
        parser = cli._build_parser()
        args = parser.parse_args(["list"])
        assert cli._settings(args).length == 0.15

    def test_list_mentions_trace_and_stats(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "stats" in out

    def test_list_mentions_spec_and_backends(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spec" in out
        assert "backends: sim statistical" in out

    def test_backend_flag_parsed(self):
        parser = cli._build_parser()
        args = parser.parse_args(["--backend", "statistical", "list"])
        assert cli._settings(args).backend == "statistical"

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["--backend", "quantum", "list"])

    def test_bad_jobs_is_one_line_error(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["--jobs", "0", "list"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "--jobs" in captured.err


class TestSpecCommand:
    def test_prints_canonical_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["--length", "0.02", "spec", "429.mcf", "rule"])
        out = capsys.readouterr().out
        assert code == 0
        spec = RunSpec.from_json(out)
        assert spec.victim == "429.mcf"
        assert spec.config_tag == "rule"
        assert spec.length == 0.02
        # Canonical: printing the parsed spec reproduces the text.
        assert out.strip() == spec.to_json()

    def test_backend_flag_reaches_the_spec(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli.main([
            "--backend", "statistical", "spec", "429.mcf", "raw",
        ]) == 0
        spec = RunSpec.from_json(capsys.readouterr().out)
        assert spec.backend == "statistical"

    def test_file_round_trips(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli.main(["--length", "0.02", "spec", "429.mcf"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert cli.main(["spec", "--file", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_execute_reports_outcome(self, capsys, tmp_path,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main([
            "--length", "0.02", "spec", "429.mcf", "solo", "--execute",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: sim" in out
        assert "run: (429.mcf, solo)" in out
        assert re.search(r"completion_periods: \d+", out)

    def test_execute_on_statistical_backend(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main([
            "--length", "0.02", "--backend", "statistical",
            "spec", "429.mcf", "rule", "--execute",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: statistical" in out

    def test_short_bench_name_canonicalised(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli.main(["spec", "mcf"]) == 0
        spec = RunSpec.from_json(capsys.readouterr().out)
        assert spec.victim == "429.mcf"

    def test_unknown_bench_is_one_line_error(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["spec", "nonesuch", "rule"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "nonesuch" in captured.err

    def test_missing_bench_is_one_line_error(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["spec"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "--file" in captured.err

    def test_unreadable_file_is_one_line_error(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["spec", "--file", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_invalid_spec_json_is_one_line_error(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
        code = cli.main(["spec", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "version" in captured.err


class TestBackendFlag:
    def test_headline_runs_on_statistical_backend(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main([
            "--length", "0.02", "--backend", "statistical", "headline",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "penalty" in out.lower()


class TestErrorRouting:
    def test_unknown_benchmark_is_one_line_error(self, capsys, tmp_path):
        code = cli.main([
            "trace", "nonesuch", "shutter",
            "--output", str(tmp_path / "t.jsonl"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "nonesuch" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_config_is_one_line_error(self, capsys, tmp_path):
        code = cli.main([
            "trace", "mcf", "bogus",
            "--output", str(tmp_path / "t.jsonl"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "bogus" in captured.err


class TestTraceCommand:
    def test_trace_writes_jsonl_with_one_detection_per_period(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "trace.jsonl"
        code = cli.main([
            "--length", "0.02", "trace", "mcf", "shutter",
            "--output", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert str(path) in out
        records = read_jsonl(path)
        detections = [r for r in records if r["kind"] == "detection"]
        periods = int(re.search(r"over (\d+) periods", out).group(1))
        assert len(detections) == periods > 0
        # determinism contract: no wall-clock in any event payload
        assert all("seconds" not in key and "time" not in key
                   for record in records for key in record)

    def test_stats_smoke_on_empty_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no cached runs" in out


class TestStatsFormats:
    def test_json_format_is_machine_readable(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["stats", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["cached"] == 0
        assert "cache_tag" in data

    def test_prometheus_format_reuses_the_renderer(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["stats", "--format", "prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        # Empty cache still walks _load, so the miss counter serves.
        assert "# TYPE repro_campaign_cache_misses_total counter" in out

    def test_unknown_format_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["stats", "--format", "yaml"])

    def test_cached_sim_runs_show_path_coverage(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.experiments.campaign import Campaign

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_LENGTH", "0.02")
        Campaign().solo("462.libquantum")
        assert cli.main(["stats", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        (solo,) = [row for row in data["configs"]
                   if row["config"] == "solo"]
        paths = solo["paths"]
        assert set(paths) == {
            "path.vector", "path.bulk", "path.walk", "path.mru",
            "vector.classify_declines", "vector.backoff_skips",
        }
        # The streaming victim is served by the kernels, not the walk.
        assert paths["path.vector"] > 0
        assert paths["path.walk"] == paths["path.mru"] == 0
        assert cli.main(["stats", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_path_vector_total counter" in out
        assert "repro_sim_vector_classify_declines_total" in out


class TestWatchCommand:
    def test_once_without_beacons_exits_1(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv(
            "REPRO_BEACON_DIR", str(tmp_path / "beacons")
        )
        code = cli.main(["watch", "--once"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no beacons" in out

    def test_once_with_beacons_exits_0(self, capsys, tmp_path,
                                       monkeypatch):
        from repro.obs import write_beacon

        beacons = tmp_path / "beacons"
        monkeypatch.setenv("REPRO_BEACON_DIR", str(beacons))
        write_beacon(beacons, "campaign", {
            "state": "running", "runs_total": 10, "runs_completed": 4,
            "runs_cached": 4, "quarantined": 0, "cache_tag": "t",
        })
        write_beacon(beacons, "worker-0", {
            "state": "running", "digest": "abc123def456",
            "tasks_completed": 4, "tasks_failed": 0,
            "reused_dispatches": 1, "detector_verdicts": 7.0,
            "detector_positives": 2.0,
        })
        code = cli.main(["watch", "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/10 runs" in out
        assert "worker-0" in out
        assert "running abc123def456" in out

    def test_dir_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        from repro.obs import write_beacon

        monkeypatch.setenv("REPRO_BEACON_DIR", str(tmp_path / "empty"))
        chosen = tmp_path / "chosen"
        write_beacon(chosen, "campaign", {"state": "done"})
        code = cli.main(["watch", "--once", "--dir", str(chosen)])
        assert code == 0
        assert "done" in capsys.readouterr().out

    def test_loop_exits_0_on_done_beacon(self, capsys, tmp_path,
                                         monkeypatch):
        from repro.experiments.watch import watch_loop
        from repro.obs import write_beacon

        beacons = tmp_path / "beacons"
        write_beacon(beacons, "campaign", {
            "state": "done", "runs_total": 2, "runs_completed": 2,
        })
        assert watch_loop(str(beacons), interval=0.01) == 0

    def test_loop_bounded_iterations_without_beacons(self, tmp_path,
                                                     capsys):
        from repro.experiments.watch import watch_loop

        code = watch_loop(
            str(tmp_path / "nothing"), interval=0.01, max_iterations=2
        )
        assert code == 1


class TestTimelineCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "trace.jsonl"
        assert cli.main([
            "--length", "0.02", "trace", "mcf", "shutter",
            "--output", str(path),
        ]) == 0
        return path

    def test_renders_detect_then_respond(self, capsys, trace_path):
        capsys.readouterr()
        code = cli.main(["timeline", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"period \d+\n(  .+\n)+", out)
        assert "detect" in out
        # Within any period carrying both, detection precedes response.
        respond_periods = re.findall(
            r"period (\d+)\n(?:  .*\n)*?  respond", out
        )
        assert respond_periods  # shutter responds at least once
        assert "pmu" not in out  # high-volume kind is opt-in

    def test_kind_filter_and_period_range(self, capsys, trace_path):
        capsys.readouterr()
        code = cli.main([
            "timeline", str(trace_path),
            "--kind", "pmu_sample", "--start", "0", "--end", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pmu" in out
        assert "detect" not in out
        periods = [
            int(m) for m in re.findall(r"^period (\d+)$", out, re.M)
        ]
        assert periods and all(0 <= p <= 3 for p in periods)

    def test_limit_elides_and_says_so(self, capsys, trace_path):
        capsys.readouterr()
        code = cli.main(["timeline", str(trace_path), "--limit", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(re.findall(r"^period \d+$", out, re.M)) == 2
        assert "more periods elided" in out

    def test_unknown_kind_is_one_line_error(self, capsys, trace_path):
        capsys.readouterr()
        code = cli.main(["timeline", str(trace_path), "--kind", "bogus"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "bogus" in captured.err

    def test_missing_file_is_one_line_error(self, capsys, tmp_path):
        code = cli.main(["timeline", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestExporterWiring:
    def test_metrics_port_serves_during_command(self, capsys, tmp_path,
                                                monkeypatch):
        """REPRO_METRICS_PORT wires the endpoint around any campaign
        command: the endpoint serves while the command runs, is
        announced on stderr, and is torn down afterwards."""
        import urllib.request

        import repro.obs as obs

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        monkeypatch.setenv(
            "REPRO_BEACON_DIR", str(tmp_path / "beacons")
        )
        holder = {}
        original_start = obs.start_exporter

        def capturing_start(provider, port=None):
            holder["exporter"] = original_start(provider, port=port)
            return holder["exporter"]

        monkeypatch.setattr(obs, "start_exporter", capturing_start)
        original_run = cli._run_command

        def scraping_run(args, settings, campaign):
            url = holder["exporter"].url
            with urllib.request.urlopen(url, timeout=5) as response:
                holder["body"] = response.read().decode()
            return original_run(args, settings, campaign)

        monkeypatch.setattr(cli, "_run_command", scraping_run)
        assert cli.main(["stats"]) == 0
        captured = capsys.readouterr()
        assert re.search(
            r"http://127\.0\.0\.1:\d+/metrics", captured.err
        )
        # The mid-command scrape yielded well-formed exposition (the
        # campaign registry may be empty before the cache walk, but a
        # scrape must succeed and parse).
        assert "body" in holder
        for line in holder["body"].splitlines():
            assert line.startswith(("# HELP", "# TYPE", "repro_"))
        # After main() returns the socket is released.
        with pytest.raises(Exception):
            urllib.request.urlopen(holder["exporter"].url, timeout=1)


class TestFleetCommand:
    @staticmethod
    def _base(tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return [
            "--length", "0.05", "--backend", "statistical", "fleet",
            "--nodes", "2", "--ticks", "12",
        ]

    def test_episode_reports_slo_and_zero_loss(
        self, capsys, tmp_path, monkeypatch
    ):
        args = self._base(tmp_path, monkeypatch)
        code = cli.main(args + ["--episode", "--intensity", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LS SLO attainment:" in out
        assert "jobs lost: 0" in out

    def test_episode_resumes_from_journal(
        self, capsys, tmp_path, monkeypatch
    ):
        journal = tmp_path / "fleet.jsonl"
        args = self._base(tmp_path, monkeypatch) + [
            "--episode", "--journal", str(journal),
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert "resumed:" not in first
        assert journal.exists()
        # Second invocation resumes every journalled completion.
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert "resumed:" in second

    def test_sweep_renders_chaos_frontier(
        self, capsys, tmp_path, monkeypatch
    ):
        args = self._base(tmp_path, monkeypatch)
        code = cli.main(args + [
            "--intensity", "0", "--intensity", "0.2",
            "--repeats", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Chaos frontier" in out
        assert "i=0.2" in out
        assert "lost" in out

    def test_episode_emits_beacons(self, tmp_path, monkeypatch):
        from repro.obs import scan_beacons

        beacons = tmp_path / "beacons"
        args = self._base(tmp_path, monkeypatch)
        code = cli.main(args + [
            "--episode", "--beacon-dir", str(beacons),
        ])
        assert code == 0
        found, invalid = scan_beacons(beacons)
        assert invalid == 0
        assert found["fleet"]["state"] == "done"
        assert any(name.startswith("node-") for name in found)


class TestQuarantineCommand:
    def test_list_empty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli.main(["quarantine", "list"]) == 0
        assert "quarantine is empty" in capsys.readouterr().out

    def test_journal_list_and_clear(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.resilience import CampaignJournal

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.record_quarantined(
            digest="node-3", bench="node-3", config="fleet",
            attempts=4, error="flapping node",
        )
        journal.record_quarantined(
            digest="abc123", bench="429.mcf", config="rule",
            attempts=3, error="boom",
        )
        assert cli.main(
            ["quarantine", "list", "--journal", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "node-3" in out and "flapping node" in out
        assert "abc123" in out

        assert cli.main([
            "quarantine", "clear", "--journal", str(path),
            "--digest", "node-3",
        ]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert set(CampaignJournal(path).quarantined) == {"abc123"}

        assert cli.main(
            ["quarantine", "clear", "--journal", str(path)]
        ) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert not CampaignJournal(path).quarantined

    def test_clear_unknown_digest_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(
            ["quarantine", "clear", "--digest", "deadbeef"]
        )
        assert code == 1
        assert "not quarantined" in capsys.readouterr().out

    def test_journal_clear_unknown_digest_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        code = cli.main([
            "quarantine", "clear", "--journal", str(path),
            "--digest", "deadbeef",
        ])
        assert code == 1
        assert "not quarantined" in capsys.readouterr().out

    def test_listed_in_extensions(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out and "quarantine" in out

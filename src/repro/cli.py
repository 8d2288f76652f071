"""Command-line interface.

Regenerate any of the paper's artefacts from a shell::

    repro-caer fig 1           # Figure 1 table
    repro-caer fig 3           # Figure 3 ASCII time series
    repro-caer all             # every figure plus the headline numbers
    repro-caer headline        # just the §1/§6 means
    repro-caer ablation impact-factor
    repro-caer calibrate       # workload-vs-Figure-1 calibration table
    repro-caer list            # what can be run

Run length is controlled by ``--length`` or the ``REPRO_LENGTH``
environment variable (default 0.2; 1.0 is the slowest/most faithful).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .errors import ConfigError, ReproError
from .experiments import (
    ABLATIONS,
    Campaign,
    CampaignSettings,
    figure1,
    figure2,
    figure3,
    figure3_correlations,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    headline_numbers,
    run_ablation,
)
from .runspec import RunSpec, backend_names, execute_run

_FIGURES = {
    "1": figure1,
    "2": figure2,
    "6": figure6,
    "7": figure7,
    "8": figure8,
    "9": figure9,
    "10": figure10,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-caer",
        description=(
            "Reproduction of 'Contention Aware Execution: Online "
            "Contention Detection and Response' (CGO 2010)"
        ),
    )
    parser.add_argument(
        "--length",
        type=float,
        default=None,
        help="run-length scale (default from REPRO_LENGTH or 0.2)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="simulation seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for simulation fan-out (default from "
            "REPRO_JOBS or the cpu count; 1 = serial)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help=(
            "execution engine for every run (default from "
            "REPRO_BACKEND or 'sim'; 'statistical' is the closed-form "
            "fast engine)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk run cache",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="emit tables as CSV instead of aligned text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "write a JSONL decision trace per simulated run to "
            "results/traces/ (cached runs are not re-simulated and "
            "therefore not traced)"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="directory for --trace output (default results/traces)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("fig", help="regenerate one figure")
    fig.add_argument("number", choices=sorted(_FIGURES) + ["3"])

    sub.add_parser("all", help="regenerate every figure + headline")
    sub.add_parser("headline", help="suite-mean penalties/utilization")

    abl = sub.add_parser("ablation", help="run a tuning-space sweep")
    abl.add_argument("name", choices=sorted(ABLATIONS))

    sub.add_parser(
        "scaling", help="multi-batch scaling study (extension)"
    )
    crossval = sub.add_parser(
        "crossval",
        help="cross-validation: sim vs. statistical backend over "
             "identical specs (--analytic for the closed-form model)",
    )
    crossval.add_argument(
        "--analytic",
        action="store_true",
        help="compare the analytic predictor against the campaign "
             "instead of the two backends",
    )
    sub.add_parser(
        "contenders", help="alternative-contender study (§6.1)"
    )
    faults = sub.add_parser(
        "faults",
        help="fault-injection sweep: detection accuracy vs. PMU "
             "signal-path fault intensity (robustness extension)",
    )
    faults.add_argument(
        "--victim", default="429.mcf",
        help="latency-sensitive benchmark under test (default 429.mcf)",
    )
    faults.add_argument(
        "--intensity",
        type=float,
        action="append",
        default=None,
        metavar="I",
        help="fault intensity to sweep (repeatable; default "
             "0 0.25 0.5 1.0)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plans' RNG streams (default 0)",
    )
    shootout = sub.add_parser(
        "shootout",
        help="score every registered detector against the profile "
             "oracle (accuracy / penalty / utilization)",
    )
    shootout.add_argument(
        "--victim", default="429.mcf",
        help="latency-sensitive benchmark under test (default 429.mcf)",
    )
    shootout.add_argument(
        "--intensity",
        type=float,
        action="append",
        default=None,
        metavar="I",
        help="fault intensity to average accuracy over (repeatable; "
             "must include 0; default 0 0.5)",
    )
    shootout.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME",
        help="detector to score (repeatable; default every "
             "registered detector)",
    )
    shootout.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plans' RNG streams (default 0)",
    )
    fleet = sub.add_parser(
        "fleet",
        help="fleet layer: chaos-frontier sweep (default) or a single "
             "placement episode over simulated CAER nodes",
    )
    fleet.add_argument(
        "--nodes", type=int, default=None,
        help="simulated nodes in the fleet (default 4)",
    )
    fleet.add_argument(
        "--ticks", type=int, default=None,
        help="episode horizon in fleet ticks (default 48)",
    )
    fleet.add_argument(
        "--config", choices=("raw", "shutter", "rule", "random"),
        default="rule",
        help="CAER config every node runs (default rule)",
    )
    fleet.add_argument(
        "--victim", default="429.mcf",
        help="latency-sensitive benchmark on the nodes (default "
             "429.mcf)",
    )
    fleet.add_argument(
        "--intensity",
        type=float,
        action="append",
        default=None,
        metavar="I",
        help="node-fault intensity (repeatable for the sweep; with "
             "--episode the first value is used; default sweep "
             "0 0.1 0.2 0.4 0.7 1.0)",
    )
    fleet.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the node fault plans (default 0)",
    )
    fleet.add_argument(
        "--repeats", type=int, default=None,
        help="fault seeds averaged per sweep row (default 3)",
    )
    fleet.add_argument(
        "--episode",
        action="store_true",
        help="run one fleet episode and print its SLO report instead "
             "of the sweep",
    )
    fleet.add_argument(
        "--journal", default=None, metavar="PATH",
        help="fleet journal file for crash-safe episode resume "
             "(--episode only)",
    )
    fleet.add_argument(
        "--beacon-dir", default=None, metavar="DIR",
        help="write per-node heartbeat beacons here (--episode only; "
             "default REPRO_BEACON_DIR when set)",
    )
    quarantine = sub.add_parser(
        "quarantine",
        help="list or clear quarantined runs and fleet nodes",
    )
    quarantine.add_argument(
        "action", choices=("list", "clear"),
        help="list the quarantine, or clear it (journalled)",
    )
    quarantine.add_argument(
        "--digest", default=None, metavar="DIGEST",
        help="with clear: lift only this digest (default: all)",
    )
    quarantine.add_argument(
        "--journal", default=None, metavar="PATH",
        help="operate on an explicit journal file (e.g. a fleet "
             "journal) instead of the campaign's",
    )
    sub.add_parser(
        "plugins",
        help="list the registered detectors, responses, and backends",
    )
    sub.add_parser(
        "repeatability", help="seed-stability study"
    )
    report = sub.add_parser(
        "report", help="write the full evaluation to results/report.md"
    )
    report.add_argument(
        "--output", default="results/report.md",
        help="where to write the markdown report",
    )
    trace = sub.add_parser(
        "trace",
        help="simulate one run and dump its JSONL decision trace",
    )
    trace.add_argument("bench", help="benchmark name (e.g. mcf)")
    trace.add_argument(
        "config",
        help="solo, a paper tag (raw/shutter/rule/random), any "
             "registered detector name, or '<detector>+<response>'",
    )
    trace.add_argument(
        "--output",
        default=None,
        help="trace path (default results/traces/trace_<bench>__<config>.jsonl)",
    )
    stats = sub.add_parser(
        "stats", help="summarize cached campaign telemetry"
    )
    stats.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
        help=(
            "output format: human table, machine JSON, or the same "
            "Prometheus exposition the live /metrics endpoint serves"
        ),
    )
    watch = sub.add_parser(
        "watch",
        help="render in-flight campaign health from heartbeat beacons",
    )
    watch.add_argument(
        "--dir",
        default=None,
        help="beacon directory (default REPRO_BEACON_DIR or "
             "results/beacons)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (0 iff beacons were found) "
             "instead of looping until the campaign finishes",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=None,
        help="redraw cadence in seconds (default 1.0)",
    )
    timeline = sub.add_parser(
        "timeline",
        help="replay a JSONL trace as a per-period detect/respond "
             "timeline",
    )
    timeline.add_argument("path", help="JSONL trace file to replay")
    timeline.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="event kind to include (repeatable; default every kind "
             "except pmu_sample)",
    )
    timeline.add_argument(
        "--start", type=int, default=None,
        help="first period to include (inclusive)",
    )
    timeline.add_argument(
        "--end", type=int, default=None,
        help="last period to include (inclusive)",
    )
    timeline.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of periods printed",
    )
    spec = sub.add_parser(
        "spec",
        help="print (or execute) the declarative JSON spec of one run",
    )
    spec.add_argument(
        "bench", nargs="?", default=None,
        help="benchmark name (e.g. mcf); omit when using --file",
    )
    spec.add_argument(
        "config", nargs="?", default="solo",
        help="solo, a paper tag (raw/shutter/rule/random), any "
             "registered detector name, or '<detector>+<response>' "
             "(default solo)",
    )
    spec.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="read the spec as JSON from PATH ('-' = stdin) instead "
             "of building it from bench/config",
    )
    spec.add_argument(
        "--execute",
        action="store_true",
        help="execute the spec on its backend and print the outcome",
    )
    sub.add_parser("calibrate", help="workload calibration table")
    sub.add_parser("list", help="list available artefacts")
    return parser


def _settings(args: argparse.Namespace) -> CampaignSettings:
    settings = CampaignSettings.from_env()
    if args.length is not None:
        settings = dataclasses.replace(settings, length=args.length)
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    if args.backend is not None:
        settings = dataclasses.replace(settings, backend=args.backend)
    return settings


def _load_spec(args: argparse.Namespace,
               settings: CampaignSettings) -> RunSpec:
    """Resolve the ``spec`` subcommand's input to a :class:`RunSpec`."""
    if args.file is not None:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            try:
                text = Path(args.file).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read spec file: {exc}")
        return RunSpec.from_json(text)
    if args.bench is None:
        raise ConfigError(
            "spec needs a benchmark name (or --file PATH / --file -)"
        )
    from .workloads import resolve_benchmark_name

    return settings.run_spec(
        resolve_benchmark_name(args.bench), args.config
    )


def _emit(table, args: argparse.Namespace) -> None:
    if args.csv:
        sys.stdout.write(table.to_csv())
    else:
        sys.stdout.write(table.render())


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-caer`` console script.

    Library errors (unknown benchmark or configuration names, campaign
    failures) are reported as a one-line message on stderr with a
    nonzero exit — never a raw traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.jobs is not None:
        from .experiments import resolve_jobs

        resolve_jobs(args.jobs, source="--jobs")
    if args.trace or args.trace_dir:
        trace_dir = args.trace_dir or "results/traces"
        os.makedirs(trace_dir, exist_ok=True)
        os.environ["REPRO_TRACE_DIR"] = trace_dir

    # Beacon-reading commands never build (or need) a Campaign.
    if args.command == "watch":
        from .experiments.watch import WATCH_INTERVAL, watch_loop, watch_once

        if args.once:
            return watch_once(args.dir)
        return watch_loop(
            args.dir,
            interval=(
                args.interval if args.interval is not None
                else WATCH_INTERVAL
            ),
        )

    if args.command == "timeline":
        from .experiments.telemetry import render_timeline
        from .obs import read_jsonl

        try:
            records = read_jsonl(args.path)
        except OSError as exc:
            raise ConfigError(f"cannot read trace file: {exc}")
        sys.stdout.write(
            render_timeline(
                records,
                kinds=tuple(args.kind) if args.kind else None,
                start=args.start,
                end=args.end,
                limit=args.limit,
            )
        )
        return 0

    campaign = Campaign(
        settings, use_disk_cache=not args.no_cache, jobs=args.jobs
    )

    # Live telemetry is opt-in via REPRO_METRICS_PORT: serve the
    # campaign's merged registry over HTTP for the whole invocation,
    # and default the beacon directory so warm-pool workers report in
    # (and `repro-caer watch` has something to read).
    from .obs import exporter_port

    port = exporter_port()
    if port is not None:
        from .experiments.watch import DEFAULT_BEACON_DIR
        from .obs import BEACON_DIR_ENV, start_exporter

        os.environ.setdefault(BEACON_DIR_ENV, DEFAULT_BEACON_DIR)
        exporter = start_exporter(campaign.export_snapshot, port=port)
        print(
            f"serving campaign metrics on {exporter.url} "
            f"(beacons under {os.environ[BEACON_DIR_ENV]})",
            file=sys.stderr,
        )
        try:
            return _run_command(args, settings, campaign)
        finally:
            exporter.close()
    return _run_command(args, settings, campaign)


def _run_command(
    args: argparse.Namespace,
    settings: CampaignSettings,
    campaign: Campaign,
) -> int:

    if args.command == "list":
        from .caer import registry

        print("figures: 1 2 3 6 7 8 9 10")
        print("ablations:", " ".join(sorted(ABLATIONS)))
        print("extensions: scaling crossval contenders faults "
              "shootout fleet quarantine repeatability report trace "
              "stats spec plugins")
        print("backends:", " ".join(backend_names()))
        print("detectors:", " ".join(registry.detector_names()))
        print("responses:", " ".join(registry.response_names()))
        return 0

    if args.command == "plugins":
        from .caer import registry

        print("detectors:", " ".join(registry.detector_names()))
        print("responses:", " ".join(registry.response_names()))
        print("backends:", " ".join(backend_names()))
        print(
            "config tags: solo raw shutter rule random, any detector "
            "name, or '<detector>+<response>'"
        )
        return 0

    if args.command == "spec":
        spec = _load_spec(args, settings)
        if not args.execute:
            print(spec.to_json())
            return 0
        outcome = execute_run(spec)
        print(f"spec {spec.digest}")
        print(f"backend: {outcome.backend}")
        print(f"run: {spec.describe()}")
        print(f"completion_periods: {outcome.completion_periods}")
        print(f"total_periods: {outcome.total_periods}")
        print(f"ls_total_llc_misses: {outcome.ls_total_llc_misses}")
        print(f"utilization_gained: {outcome.utilization_gained:.4f}")
        print(f"wall_seconds: {outcome.wall_seconds}")
        return 0

    if args.command == "trace":
        from .experiments.telemetry import render_trace_report, trace_run

        output = args.output
        if output is None:
            safe = args.bench.replace(".", "_")
            os.makedirs("results/traces", exist_ok=True)
            output = f"results/traces/trace_{safe}__{args.config}.jsonl"
        report = trace_run(settings, args.bench, args.config, output)
        sys.stdout.write(render_trace_report(report))
        return 0

    if args.command == "stats":
        from .experiments.telemetry import campaign_stats

        sys.stdout.write(campaign_stats(campaign, fmt=args.format))
        return 0

    if args.command == "calibrate":
        from .experiments.calibrate import main as calibrate_main

        calibrate_main([str(settings.length)])
        return 0

    if args.command == "headline":
        print(headline_numbers(campaign).render())
        return 0

    if args.command == "ablation":
        _emit(run_ablation(args.name, campaign), args)
        return 0

    if args.command == "scaling":
        from .experiments.scaling import scaling_study

        _emit(scaling_study(campaign), args)
        return 0

    if args.command == "crossval":
        from .experiments.crossval import analytic_figure1, backend_crossval

        if args.analytic:
            _emit(analytic_figure1(campaign), args)
        else:
            _emit(backend_crossval(campaign), args)
        return 0

    if args.command == "contenders":
        from .experiments.contenders import contender_study

        _emit(contender_study(campaign), args)
        return 0

    if args.command == "faults":
        from .experiments.faults import DEFAULT_INTENSITIES, fault_sweep
        from .workloads import resolve_benchmark_name

        intensities = (
            tuple(args.intensity)
            if args.intensity
            else DEFAULT_INTENSITIES
        )
        _emit(
            fault_sweep(
                campaign,
                victim=resolve_benchmark_name(args.victim),
                intensities=intensities,
                fault_seed=args.fault_seed,
            ),
            args,
        )
        return 0

    if args.command == "shootout":
        from .experiments.shootout import (
            DEFAULT_INTENSITIES,
            detector_shootout,
        )
        from .workloads import resolve_benchmark_name

        intensities = (
            tuple(args.intensity)
            if args.intensity
            else DEFAULT_INTENSITIES
        )
        _emit(
            detector_shootout(
                campaign,
                victim=resolve_benchmark_name(args.victim),
                intensities=intensities,
                detectors=(
                    tuple(args.detector) if args.detector else None
                ),
                fault_seed=args.fault_seed,
            ),
            args,
        )
        return 0

    if args.command == "fleet":
        return _run_fleet(args, campaign)

    if args.command == "quarantine":
        return _run_quarantine(args, campaign)

    if args.command == "repeatability":
        from .experiments.repeatability import repeatability_study

        _emit(repeatability_study(campaign), args)
        return 0

    if args.command == "report":
        from .experiments.report import write_report

        path = write_report(campaign, args.output)
        print(f"report written to {path}")
        return 0

    if args.command == "fig":
        if args.number == "3":
            for chart in figure3(campaign).values():
                print(chart)
            _emit(figure3_correlations(campaign), args)
        else:
            _emit(_FIGURES[args.number](campaign), args)
        return 0

    if args.command == "all":
        for number in ("1", "2"):
            _emit(_FIGURES[number](campaign), args)
            print()
        for chart in figure3(campaign).values():
            print(chart)
        _emit(figure3_correlations(campaign), args)
        print()
        for number in ("6", "7", "8", "9", "10"):
            _emit(_FIGURES[number](campaign), args)
            print()
        print(headline_numbers(campaign).render())
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _run_fleet(args: argparse.Namespace, campaign: Campaign) -> int:
    """The ``fleet`` subcommand: chaos frontier, or one episode."""
    from .experiments.fleetchaos import (
        DEFAULT_INTENSITIES,
        DEFAULT_REPEATS,
        chaos_frontier,
    )
    from .faults.nodes import NodeFaultPlan
    from .fleet import (
        FleetEpisode,
        FleetJournal,
        FleetSpec,
        build_profiles,
        render_fleet_report,
    )
    from .workloads import resolve_benchmark_name

    spec = FleetSpec(
        config=args.config,
        victims=(resolve_benchmark_name(args.victim),),
        **{
            key: value
            for key, value in (
                ("nodes", args.nodes),
                ("ticks", args.ticks),
            )
            if value is not None
        },
    )
    # Calibration runs ride the campaign cache, shared with the paper
    # figures; prefetch fans any missing ones across workers.
    campaign.prefetch(spec.victims, ["solo", spec.config], jobs=args.jobs)
    if not args.episode:
        intensities = (
            tuple(args.intensity)
            if args.intensity
            else DEFAULT_INTENSITIES
        )
        table = chaos_frontier(
            campaign,
            spec=spec,
            intensities=intensities,
            fault_seed=args.fault_seed,
            repeats=(
                args.repeats if args.repeats is not None
                else DEFAULT_REPEATS
            ),
        )
        _emit(table, args)
        return 0
    intensity = args.intensity[0] if args.intensity else 0.0
    if intensity:
        spec = dataclasses.replace(
            spec,
            node_faults=NodeFaultPlan.scaled(
                intensity, seed=args.fault_seed
            ),
        )
    journal = (
        FleetJournal(args.journal, spec.digest)
        if args.journal
        else None
    )
    from .obs.heartbeat import beacon_dir

    beacons = args.beacon_dir or beacon_dir()
    profiles = build_profiles(campaign, spec)
    episode = FleetEpisode(
        spec, profiles, journal=journal, beacon_dir=beacons
    )
    result = episode.run()
    sys.stdout.write(render_fleet_report(result))
    return 0


def _run_quarantine(args: argparse.Namespace, campaign: Campaign) -> int:
    """The ``quarantine`` subcommand: list/clear runs and fleet nodes."""
    if args.journal:
        from .experiments.resilience import CampaignJournal

        journal = CampaignJournal(args.journal)
        records = [
            {
                "digest": digest,
                "label": CampaignJournal.label_of(record),
                "attempts": record.get("attempts", 0),
                "error": record.get("error", "unknown failure"),
            }
            for digest, record in sorted(journal.quarantined.items())
        ]
        if args.action == "list":
            if not records:
                print("quarantine is empty")
                return 0
            for record in records:
                print(
                    f"{record['digest']}  {record['label']}  "
                    f"attempts={record['attempts']}  {record['error']}"
                )
            return 0
        cleared = 0
        for record in records:
            if args.digest and record["digest"] != args.digest:
                continue
            journal.record_cleared(record["digest"])
            cleared += 1
        if args.digest and not cleared:
            print(f"digest {args.digest} is not quarantined")
            return 1
        print(f"cleared {cleared} quarantine record(s)")
        return 0
    if args.action == "list":
        records = campaign.quarantine_report()
        if not records:
            print("quarantine is empty")
            return 0
        for record in records:
            print(
                f"{record.digest}  {record.label}  "
                f"attempts={record.attempts}  {record.error}"
            )
        return 0
    if args.digest:
        record = campaign.quarantined.pop(args.digest, None)
        if record is None:
            print(f"digest {args.digest} is not quarantined")
            return 1
        if campaign.journal is not None:
            campaign.journal.record_cleared(args.digest)
        print("cleared 1 quarantine record(s)")
        return 0
    cleared = campaign.clear_quarantine()
    print(f"cleared {cleared} quarantine record(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

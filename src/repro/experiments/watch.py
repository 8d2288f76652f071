"""``repro-caer watch``: in-flight campaign health from beacons.

A campaign run with ``REPRO_BEACON_DIR`` set (the CLI defaults it when
the live exporter is enabled) drops a ``campaign`` beacon at every
checkpoint and per-worker beacons at every task edge.  ``watch`` reads
those files from *any* process — it never touches the task queues or
the campaign cache — and renders a one-screen status: run progress,
per-worker state, detector counters, staleness.

Two modes: ``--once`` prints a single snapshot and exits (0 when
beacons were found, 1 when not — scriptable for CI smoke jobs), while
the default loop redraws until the campaign beacon reports ``done`` or
every beacon goes stale.
"""

from __future__ import annotations

import io
import os
import time

from ..obs.heartbeat import (
    BEACON_DIR_ENV,
    STALE_SECONDS,
    beacon_age,
    beacon_field,
    scan_beacons,
)

#: Where ``watch`` looks when ``REPRO_BEACON_DIR`` is unset: the same
#: default the CLI exporter wiring uses.
DEFAULT_BEACON_DIR = "results/beacons"

#: Redraw cadence of the live loop, seconds.
WATCH_INTERVAL = 1.0


def resolve_beacon_dir(directory: str | None = None) -> str:
    """The directory ``watch`` should read, explicit > env > default."""
    if directory:
        return directory
    return os.environ.get(BEACON_DIR_ENV) or DEFAULT_BEACON_DIR


def _kind(payload: dict) -> str:
    kind = payload.get("beacon", "")
    return kind if isinstance(kind, str) else ""


def collect_status(directory: str, now: float | None = None) -> dict:
    """Read beacons and classify them into a status dict.

    Corrupt or torn beacon files are skipped and surfaced as
    ``invalid`` — a sick writer degrades the display, never crashes
    the watcher.
    """
    beacons, invalid = scan_beacons(directory)
    now = now if now is not None else time.time()
    campaign = beacons.get("campaign")
    fleet = beacons.get("fleet")
    workers = {
        name: payload
        for name, payload in sorted(beacons.items())
        if _kind(payload).startswith("worker")
    }
    nodes = {
        name: payload
        for name, payload in sorted(beacons.items())
        if _kind(payload).startswith("node-")
    }
    stale = all(
        beacon_age(p, now) > STALE_SECONDS for p in beacons.values()
    ) if beacons else False
    done_beacon = campaign if campaign is not None else fleet
    return {
        "directory": directory,
        "now": now,
        "campaign": campaign,
        "fleet": fleet,
        "workers": workers,
        "nodes": nodes,
        "invalid": invalid,
        "any": bool(beacons),
        "all_stale": stale,
        "done": bool(done_beacon) and done_beacon.get("state") == "done",
    }


def _age_text(payload: dict, now: float) -> str:
    age = beacon_age(payload, now)
    if age == float("inf"):
        return "age n/a"
    marker = " STALE" if age > STALE_SECONDS else ""
    return f"{age:.0f}s ago{marker}"


def render_watch(status: dict) -> str:
    """One screenful of campaign health from a status dict."""
    out = io.StringIO()
    now = status["now"]
    if not status["any"]:
        out.write(
            f"no beacons under {status['directory']} — start a campaign "
            f"with {BEACON_DIR_ENV} set (or REPRO_METRICS_PORT, which "
            f"defaults it)\n"
        )
        if status["invalid"]:
            out.write(
                f"{status['invalid']} corrupt beacon file(s) skipped\n"
            )
        return out.getvalue()
    campaign = status["campaign"]
    if campaign is not None:
        total = beacon_field(campaign, "runs_total")
        completed = beacon_field(campaign, "runs_completed")
        bar = ""
        if total:
            filled = int(round(20 * min(1.0, completed / total)))
            bar = f" [{'#' * filled}{'.' * (20 - filled)}]"
        out.write(
            f"campaign {campaign.get('cache_tag', '?')} "
            f"{campaign.get('state', '?')}: "
            f"{completed:.0f}/{total:.0f} runs this prefetch{bar} "
            f"({beacon_field(campaign, 'runs_cached'):.0f} cached, "
            f"{beacon_field(campaign, 'quarantined'):.0f} quarantined) "
            f"— {_age_text(campaign, now)}\n"
        )
    elif not status["fleet"]:
        out.write("campaign beacon absent (workers only)\n")
    fleet = status["fleet"]
    if fleet is not None:
        out.write(
            f"fleet {fleet.get('state', '?')}: "
            f"tick {beacon_field(fleet, 'tick'):.0f}, "
            f"{beacon_field(fleet, 'jobs_done'):.0f}"
            f"/{beacon_field(fleet, 'jobs_total'):.0f} jobs done "
            f"({beacon_field(fleet, 'jobs_waiting'):.0f} waiting, "
            f"{beacon_field(fleet, 'migrations'):.0f} migrations, "
            f"{beacon_field(fleet, 'nodes_dead'):.0f} dead, "
            f"{beacon_field(fleet, 'nodes_quarantined'):.0f} "
            f"quarantined) — {_age_text(fleet, now)}\n"
        )
    nodes = status["nodes"]
    if nodes:
        out.write(f"nodes: {len(nodes)} reporting\n")
        for name, payload in nodes.items():
            flags = []
            if beacon_field(payload, "contended"):
                flags.append("CONTENDED")
            if beacon_field(payload, "straggler"):
                flags.append("straggler")
            out.write(
                f"  {name:<10} "
                f"jobs={beacon_field(payload, 'jobs_running'):.0f} "
                f"tick={beacon_field(payload, 'tick'):.0f} "
                f"{' '.join(flags):<20} "
                f"— {_age_text(payload, now)}\n"
            )
    workers = status["workers"]
    if workers:
        running = sum(
            1 for p in workers.values() if p.get("state") == "running"
        )
        out.write(f"workers: {len(workers)} alive, {running} running\n")
        for name, payload in workers.items():
            digest = payload.get("digest")
            doing = (
                f"running {str(digest)[:12]}"
                if payload.get("state") == "running"
                and digest is not None
                else "idle"
            )
            out.write(
                f"  {name:<10} {doing:<21} "
                f"done={beacon_field(payload, 'tasks_completed'):.0f} "
                f"failed={beacon_field(payload, 'tasks_failed'):.0f} "
                f"verdicts={beacon_field(payload, 'detector_verdicts'):.0f} "
                f"(+{beacon_field(payload, 'detector_positives'):.0f}) "
                f"— {_age_text(payload, now)}\n"
            )
    if status["invalid"]:
        out.write(
            f"{status['invalid']} corrupt beacon file(s) skipped\n"
        )
    if status["all_stale"]:
        out.write(
            f"all beacons older than {STALE_SECONDS:.0f}s — the "
            f"campaign has likely exited\n"
        )
    return out.getvalue()


def watch_once(directory: str | None = None) -> int:
    """Print one status snapshot; exit code 0 iff beacons were found."""
    status = collect_status(resolve_beacon_dir(directory))
    print(render_watch(status), end="")
    return 0 if status["any"] else 1


def watch_loop(
    directory: str | None = None,
    interval: float = WATCH_INTERVAL,
    max_iterations: int | None = None,
) -> int:
    """Redraw status until the campaign finishes or beacons go stale.

    Exits 0 on a clean ``done`` beacon, 1 when beacons never appeared
    or everything went stale.  ``max_iterations`` bounds the loop for
    tests; interactive use runs until done/stale/Ctrl-C.
    """
    resolved = resolve_beacon_dir(directory)
    iterations = 0
    misses = 0
    try:
        while True:
            status = collect_status(resolved)
            text = render_watch(status)
            # Clear + home when a TTY, plain append otherwise (logs).
            if os.isatty(1):
                print("\x1b[2J\x1b[H" + text, end="", flush=True)
            else:
                print(text, end="", flush=True)
            iterations += 1
            if status["done"]:
                return 0
            if status["any"]:
                misses = 0
            else:
                misses += 1
                if misses * interval > STALE_SECONDS:
                    return 1
            if status["all_stale"]:
                return 1
            if max_iterations is not None and iterations >= max_iterations:
                return 0 if status["any"] else 1
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0

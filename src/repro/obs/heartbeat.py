"""Campaign heartbeats: progress beacons from workers and the parent.

The worker pool's pipes carry *outcomes*; beacons carry *status*.
When ``REPRO_BEACON_DIR`` is set, every pool worker writes a small
JSON beacon file as it picks up and finishes each task, and the parent
campaign writes a ``campaign`` beacon as runs checkpoint — so any other
process (``repro-caer watch``, the Prometheus endpoint's provider) can
reconstruct in-flight campaign health without touching those pipes.

Beacons are plain JSON files, written atomically (unique temp name +
rename, the campaign cache's pattern) so a reader never observes a torn
payload; a corrupt or vanished beacon reads as absent, never as a
crash.  Writers swallow every error: heartbeats are best-effort
telemetry and must never fail a run.

Each beacon payload carries ``beacon`` (its name), ``pid``, ``seq`` (a
per-writer monotone counter, so watchers can detect progress without
trusting clocks) and ``ts`` (wall-clock, for staleness display only —
beacons never feed back into simulation, so the no-wall-clock trace
contract is untouched).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

#: When set, workers and campaigns drop beacon files in this directory.
BEACON_DIR_ENV = "REPRO_BEACON_DIR"

#: Bump when the beacon payload schema changes shape.
BEACON_VERSION = 1

#: Beacons older than this many seconds render as stale in ``watch``.
STALE_SECONDS = 30.0

_seq = 0


def beacon_dir() -> Path | None:
    """The configured beacon directory, or ``None`` when disabled."""
    value = os.environ.get(BEACON_DIR_ENV)
    if not value or not value.strip():
        return None
    return Path(value)


def write_beacon(
    directory: str | os.PathLike, name: str, payload: dict
) -> Path | None:
    """Atomically write ``<name>.json`` under ``directory``.

    Returns the written path, or ``None`` when anything went wrong —
    beacons are best-effort and never raise.
    """
    global _seq
    _seq += 1
    record = {
        "beacon": name,
        "version": BEACON_VERSION,
        "pid": os.getpid(),
        "seq": _seq,
        "ts": time.time(),
        **payload,
    }
    try:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.json"
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
    except Exception:
        return None


def scan_beacons(
    directory: str | os.PathLike,
) -> tuple[dict[str, dict], int]:
    """``(readable beacons, skipped count)`` under ``directory``.

    Corrupt, torn, or non-object beacon files are *skipped and
    counted* — the cache layer's corrupt-entry-equals-miss policy
    applied to telemetry, with the count surfaced so a sick writer is
    visible instead of silently absent.  Concurrently-deleted files
    and a missing directory read as no beacons (not as corruption).
    """
    beacons: dict[str, dict] = {}
    skipped = 0
    try:
        entries = sorted(Path(directory).glob("*.json"))
    except OSError:
        return beacons, skipped
    for path in entries:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            continue  # writer renamed/cleaned it mid-scan
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            skipped += 1
            continue
        if isinstance(payload, dict):
            beacons[path.stem] = payload
        else:
            skipped += 1
    return beacons, skipped


def read_beacons(directory: str | os.PathLike) -> dict[str, dict]:
    """Every readable beacon under ``directory``, keyed by name."""
    return scan_beacons(directory)[0]


def beacon_age(payload: dict, now: float | None = None) -> float:
    """Seconds since the beacon was written (``inf`` when unstamped)."""
    ts = payload.get("ts")
    if not isinstance(ts, (int, float)):
        return float("inf")
    return max(0.0, (now if now is not None else time.time()) - ts)


def beacon_field(payload: dict, key: str, default: float = 0.0) -> float:
    """A numeric beacon field, defensively coerced.

    Beacon payloads cross a filesystem boundary from arbitrary writer
    versions; a field that should be a number can arrive as a string,
    null, or garbage.  Anything non-coercible reads as ``default`` —
    ingestion must degrade, never crash.
    """
    value = payload.get(key, default)
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return default
    return default


def _beacon_kind(payload) -> str:
    if not isinstance(payload, dict):
        return ""
    kind = payload.get("beacon", "")
    return kind if isinstance(kind, str) else ""


def merge_beacon_metrics(
    beacons: dict[str, dict], invalid: int = 0
) -> dict[str, dict]:
    """Fold beacons into a metrics-snapshot fragment for the exporter.

    Worker beacons aggregate into pool-level instruments (completed /
    failed / reuse totals, workers alive and running right now);
    campaign beacons surface scheduled/completed/quarantined run
    gauges; fleet and per-node beacons surface fleet-wide placement
    health.  The fragment merges like any registry snapshot, so the
    endpoint serves one coherent namespace.  Every numeric field is
    defensively coerced (:func:`beacon_field`) and ``invalid`` — the
    skipped-file count from :func:`scan_beacons` — is exported as
    ``beacons.invalid``, so corrupt telemetry is visible, not fatal.
    """
    snapshot: dict[str, dict] = {}

    def gauge(name: str, value: float) -> None:
        snapshot[name] = {"type": "gauge", "value": float(value)}

    def counter(name: str, value: float) -> None:
        snapshot[name] = {"type": "counter", "value": float(value)}

    if invalid:
        counter("beacons.invalid", invalid)
    workers = [
        p for p in beacons.values()
        if _beacon_kind(p).startswith("worker")
    ]
    if workers:
        gauge("workerpool.workers", len(workers))
        gauge(
            "workerpool.workers_running",
            sum(1 for p in workers if p.get("state") == "running"),
        )
        counter(
            "workerpool.tasks_completed",
            sum(beacon_field(p, "tasks_completed") for p in workers),
        )
        counter(
            "workerpool.tasks_failed",
            sum(beacon_field(p, "tasks_failed") for p in workers),
        )
        counter(
            "workerpool.detector_verdicts",
            sum(beacon_field(p, "detector_verdicts") for p in workers),
        )
        counter(
            "workerpool.detector_positives",
            sum(beacon_field(p, "detector_positives") for p in workers),
        )
    campaign = beacons.get("campaign")
    if isinstance(campaign, dict):
        for key, name in (
            ("runs_total", "campaign.beacon_runs_total"),
            ("runs_completed", "campaign.beacon_runs_completed"),
            ("runs_cached", "campaign.beacon_runs_cached"),
            ("quarantined", "campaign.beacon_quarantined"),
        ):
            value = campaign.get(key)
            if isinstance(value, (int, float)):
                gauge(name, value)
        gauge(
            "campaign.beacon_running",
            1.0 if campaign.get("state") == "running" else 0.0,
        )
    nodes = [
        p for p in beacons.values()
        if _beacon_kind(p).startswith("node-")
    ]
    if nodes:
        gauge("fleet.nodes_reporting", len(nodes))
        gauge(
            "fleet.nodes_contended",
            sum(1 for p in nodes if beacon_field(p, "contended")),
        )
        gauge(
            "fleet.nodes_straggling",
            sum(1 for p in nodes if beacon_field(p, "straggler")),
        )
        gauge(
            "fleet.jobs_running",
            sum(beacon_field(p, "jobs_running") for p in nodes),
        )
    fleet = beacons.get("fleet")
    if isinstance(fleet, dict):
        for key, name in (
            ("tick", "fleet.tick"),
            ("nodes", "fleet.nodes"),
            ("nodes_dead", "fleet.nodes_dead"),
            ("nodes_quarantined", "fleet.nodes_quarantined"),
            ("jobs_total", "fleet.jobs_total"),
            ("jobs_done", "fleet.jobs_done"),
            ("jobs_waiting", "fleet.jobs_waiting"),
            ("migrations", "fleet.migrations"),
        ):
            value = fleet.get(key)
            if isinstance(value, (int, float)):
                gauge(name, value)
        gauge(
            "fleet.running",
            1.0 if fleet.get("state") == "running" else 0.0,
        )
    return snapshot

"""Run orchestration with memoisation.

A *campaign* owns one machine configuration and run length and produces
the simulation runs the figures need: each SPEC benchmark alone, and
co-located with lbm under no runtime / CAER-shutter / CAER-rule-based /
CAER-random.  Figures 6, 7, and 8 analyse the same runs three ways, and
the ablation, scaling, contender, repeatability and cross-validation
drivers overlap with them, so every run is kept once: its
:class:`~repro.runspec.RunOutcome` is memoised in memory and
(optionally) persisted as JSON so repeated invocations do not
re-simulate.

Every run is described by a declarative :class:`~repro.runspec.RunSpec`,
and the store is keyed by the spec's content-addressed digest: two
drivers asking for the same physical run — whatever words they use for
it — hit the same entry, and any knob that can change a result (machine
geometry, CAER policy, seed, length, backend) is in the key by
construction.  :meth:`Campaign.outcomes` is the one way in: hits come
from memory, then disk, and misses run through
:func:`~repro.experiments.resilience.run_specs_resilient` — retried,
journalled, quarantined when they keep failing.  :meth:`Campaign.prefetch`,
:meth:`Campaign.solo` and :meth:`Campaign.colocated` translate the
campaign's (bench, config) tags into specs on top of it.
:func:`audit_cache_key` enforces the key invariant at campaign
construction for every :class:`CampaignSettings` field.  Bump
:data:`CACHE_EPOCH` when simulation semantics or the entry format
change without a spec-visible knob moving.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..config import MachineConfig
from ..errors import ConfigError, ExperimentError
from ..obs import MetricsRegistry, merge_snapshots
from ..obs.heartbeat import (
    beacon_dir,
    merge_beacon_metrics,
    scan_beacons,
    write_beacon,
)
from ..runspec import (
    BATCH_BENCHMARK,
    CONFIGS,
    RunOutcome,
    RunSpec,
    derive_telemetry,
    paper_run_spec,
    resolve_caer_config,
)
from .executor import TRACE_DIR_ENV
from .resilience import (
    CampaignJournal,
    QuarantineRecord,
    RetryPolicy,
    run_specs_resilient,
)

__all__ = [
    "CACHE_EPOCH",
    "CONFIGS",
    "BATCH_BENCHMARK",
    "TRACE_DIR_ENV",
    "RETRY_QUARANTINED_ENV",
    "CampaignSettings",
    "Campaign",
    "audit_cache_key",
    "resolve_caer_config",
    "derive_telemetry",
]

#: Bump when simulation semantics change so cached results invalidate.
#: (7: spec version 2 — the fault plan joined the digest — and
#: statistical-backend telemetry became CAER-aware.  8: spec version 3
#: — the CAER plugin-parameter mappings joined the digest.  9: entries
#: hold the whole ``RunOutcome``, digest and backend included.  10:
#: entries carry the per-period CAER ``verdicts``.  11: a trace
#: workload's footprint counts its distinct lines, which moves its
#: statistical runs.)
CACHE_EPOCH = 11

#: When set (to anything truthy), a campaign ignores quarantine records
#: inherited from its journal and gives previously failing specs a
#: fresh chance; the journal itself is left intact until they complete.
RETRY_QUARANTINED_ENV = "REPRO_RETRY_QUARANTINED"


def _failed_attempts(n: int) -> str:
    """``"1 failed attempt"``, ``"3 failed attempts"``."""
    return f"{n} failed attempt{'' if n == 1 else 's'}"


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ExperimentError(f"{name} must be a float, got {value!r}")


@dataclass(frozen=True)
class CampaignSettings:
    """Machine and run-length settings shared by a whole campaign.

    ``length`` scales every benchmark's instruction budget; 1.0 gives
    ~1000 probe periods per solo run (the most faithful but slowest
    setting), and the default of 0.2 gives ~200 periods — enough for
    every heuristic to settle while keeping the full campaign to a few
    minutes.  Override per shell with ``REPRO_LENGTH``.  ``backend``
    names the execution engine every run uses (``REPRO_BACKEND``, or
    the CLI's ``--backend``).

    Every field here must flow into :meth:`run_spec` — and therefore
    into the cache key — or :func:`audit_cache_key` refuses to build a
    campaign on top of it.
    """

    length: float = 0.2
    seed: int = 0
    cache_scale: int = 16
    period_cycles: int = 40_000
    slices_per_period: int = 8
    backend: str = "sim"

    @classmethod
    def from_env(cls) -> "CampaignSettings":
        """Settings with ``REPRO_LENGTH``/``REPRO_SEED``/``REPRO_BACKEND``
        applied."""
        return cls(
            length=_env_float("REPRO_LENGTH", 0.2),
            seed=int(_env_float("REPRO_SEED", 0)),
            backend=os.environ.get("REPRO_BACKEND", "sim"),
        )

    def machine(self) -> MachineConfig:
        """Build the machine these settings describe."""
        return MachineConfig.scaled_nehalem(
            cache_scale=self.cache_scale,
            period_cycles=self.period_cycles,
        )

    def run_spec(self, bench: str, config: str) -> RunSpec:
        """The declarative spec of one (bench, config) campaign run."""
        return paper_run_spec(
            bench,
            config,
            self.machine(),
            seed=self.seed,
            length=self.length,
            slices_per_period=self.slices_per_period,
            backend=self.backend,
        )

    def cache_tag(self) -> str:
        """Filesystem-safe identity of these settings (for reports)."""
        return (
            f"e{CACHE_EPOCH}_s{self.cache_scale}_p{self.period_cycles}"
            f"_l{self.length}_r{self.seed}_{self.backend}"
        )


#: How :func:`audit_cache_key` perturbs each settings field.  A new
#: field on :class:`CampaignSettings` must add a perturbation here (one
#: that yields a *valid* settings object differing only in that field).
_AUDIT_PERTURBATIONS = {
    "length": lambda s: dataclasses.replace(s, length=s.length * 2),
    "seed": lambda s: dataclasses.replace(s, seed=s.seed + 1),
    "cache_scale": lambda s: dataclasses.replace(
        s, cache_scale=s.cache_scale * 2
    ),
    "period_cycles": lambda s: dataclasses.replace(
        s, period_cycles=s.period_cycles * 2
    ),
    "slices_per_period": lambda s: dataclasses.replace(
        s, slices_per_period=s.slices_per_period + 1
    ),
    "backend": lambda s: dataclasses.replace(
        s, backend="statistical" if s.backend != "statistical" else "sim"
    ),
}

#: The coordinates the audit probes (a co-located CAER run exercises
#: every spec field, contenders and policy included).
_AUDIT_RUN = ("429.mcf", "rule")


def audit_cache_key(settings: CampaignSettings) -> None:
    """Assert every settings field participates in the cache key.

    For each field of :class:`CampaignSettings`, perturb it and check
    the spec digest moves.  Raises :class:`ConfigError` if a field has
    no registered perturbation (someone added a knob without auditing
    it) or if perturbing it leaves the digest unchanged (the knob would
    silently alias cache entries).  Runs at :class:`Campaign`
    construction — digest checks are cheap; stale-cache bugs are not.
    """
    unaudited = [
        f.name
        for f in dataclasses.fields(settings)
        if f.name not in _AUDIT_PERTURBATIONS
    ]
    if unaudited:
        raise ConfigError(
            f"CampaignSettings field(s) {unaudited} have no cache-key "
            f"audit perturbation — add one to _AUDIT_PERTURBATIONS so "
            f"the field provably reaches the cache key"
        )
    base = settings.run_spec(*_AUDIT_RUN).digest
    for name, perturb in _AUDIT_PERTURBATIONS.items():
        if perturb(settings).run_spec(*_AUDIT_RUN).digest == base:
            raise ConfigError(
                f"CampaignSettings.{name} does not affect the run-spec "
                f"digest: changing it would silently reuse stale cache "
                f"entries"
            )


class Campaign:
    """Produces and memoises the runs behind every figure and driver."""

    def __init__(
        self,
        settings: CampaignSettings | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_disk_cache: bool = True,
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.settings = settings or CampaignSettings.from_env()
        audit_cache_key(self.settings)
        #: the store: spec digest -> outcome
        self._memory: dict[str, RunOutcome] = {}
        self._specs: dict[tuple[str, str], RunSpec] = {}
        #: digest -> the (bench, config) tags a campaign call named it by
        self._tags: dict[str, tuple[str, str]] = {}
        if cache_dir is None:
            cache_dir = os.environ.get(
                "REPRO_CACHE_DIR", Path.home() / ".cache" / "repro-caer"
            )
        self.cache_dir = Path(cache_dir) if use_disk_cache else None
        #: default worker count for :meth:`outcomes` (None = resolve
        #: from ``REPRO_JOBS`` / cpu count at fan-out time)
        self.jobs = jobs
        #: retry/timeout posture of :meth:`outcomes` (None = defaults
        #: with ``REPRO_RETRIES``/``REPRO_RUN_TIMEOUT`` applied)
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        #: campaign-level telemetry: cache hit/miss counters and the
        #: resilient executor's attempt/retry/quarantine counts
        self.metrics = MetricsRegistry()
        #: specs given up on, by digest (persisted through the journal)
        self.quarantined: dict[str, QuarantineRecord] = {}
        #: crash-safe record of completed/quarantined digests; lives
        #: next to the cache entries it describes
        self.journal: CampaignJournal | None = None
        if self.cache_dir is not None:
            self.journal = CampaignJournal(
                self.cache_dir / f"e{CACHE_EPOCH}" / "journal.jsonl"
            )
            if not os.environ.get(RETRY_QUARANTINED_ENV):
                for digest, record in self.journal.quarantined.items():
                    self.quarantined[digest] = QuarantineRecord(
                        digest=digest,
                        label=CampaignJournal.label_of(record),
                        attempts=int(record.get("attempts", 0)),
                        error=str(record.get("error", "unknown failure")),
                    )

    # -- configuration -> runtime factory --------------------------------

    caer_config = staticmethod(resolve_caer_config)

    # -- run identity -----------------------------------------------------

    def spec_for(self, bench: str, config: str) -> RunSpec:
        """The declarative spec this campaign runs for (bench, config)."""
        key = (bench, config)
        spec = self._specs.get(key)
        if spec is None:
            spec = self.settings.run_spec(bench, config)
            self._specs[key] = spec
        return spec

    def _tagged(self, bench: str, config: str) -> RunSpec:
        """:meth:`spec_for`, remembering the tags for labels and the
        journal."""
        spec = self.spec_for(bench, config)
        self._tags[spec.digest] = (bench, config)
        return spec

    def _names(self, spec: RunSpec) -> tuple[str, str]:
        """(bench, config) of a spec: its campaign tags when a campaign
        call named it, else its victim and config tag."""
        return self._tags.get(spec.digest, (spec.victim, spec.config_tag))

    def _label(self, spec: RunSpec) -> str:
        """Failure identity: the campaign tags, else the spec's own."""
        if spec.digest in self._tags:
            return "({}, {})".format(*self._tags[spec.digest])
        return spec.describe()

    # -- the store --------------------------------------------------------

    def _cache_path(self, digest: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"e{CACHE_EPOCH}" / f"{digest}.json"

    def cached(self, spec: RunSpec) -> RunOutcome | None:
        """The stored outcome of ``spec`` (memory, then disk), or None.

        Never simulates.  A disk hit the journal lists as completed
        counts as ``campaign.journal_resumed``: a run finished by an
        earlier, possibly interrupted, invocation.
        """
        digest = spec.digest
        if digest in self._memory:
            self.metrics.counter("campaign.cache_memory_hits").inc()
            return self._memory[digest]
        path = self._cache_path(digest)
        if path is None or not path.exists():
            self.metrics.counter("campaign.cache_misses").inc()
            return None
        try:
            with open(path) as handle:
                outcome = RunOutcome(**json.load(handle))
        except OSError:
            # The entry vanished between exists() and open(): a miss.
            self.metrics.counter("campaign.cache_misses").inc()
            return None
        except (json.JSONDecodeError, TypeError):
            # A corrupt or truncated entry is a cache miss, never a
            # crash: rename it aside (preserving the evidence) so the
            # slot is free for the re-simulated result.
            self.metrics.counter("campaign.cache_invalid").inc()
            try:
                path.rename(path.with_name(path.name + ".corrupt"))
            except OSError:
                pass
            return None
        self.metrics.counter("campaign.cache_disk_hits").inc()
        if self.journal is not None and digest in self.journal.completed:
            self.metrics.counter("campaign.journal_resumed").inc()
        self._memory[digest] = outcome
        return outcome

    def _store(self, outcome: RunOutcome) -> None:
        self._memory[outcome.digest] = outcome
        path = self._cache_path(outcome.digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name + atomic rename: concurrent campaign
        # processes sharing a cache dir never observe a torn file, and
        # a crash mid-write leaves the previous entry intact.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        # A shallow field dict (asdict would deep-copy the telemetry)
        # through json.dumps, which takes the C encoder where
        # json.dump never does: the same bytes at a tenth of the cost.
        entry = {
            f.name: getattr(outcome, f.name)
            for f in dataclasses.fields(outcome)
        }
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- run production ---------------------------------------------------

    def outcomes(self, specs: Iterable[RunSpec]) -> list[RunOutcome]:
        """The outcome of every spec, in ``specs`` order.

        The store's one way in, for every driver: hits come from memory,
        then disk (:meth:`cached`); the misses fan across the campaign's
        ``jobs`` workers (``REPRO_JOBS``/cpu count when unset), and each
        distinct spec runs once.

        Execution is *resilient*: each run is checkpointed — stored,
        journalled, counted in ``campaign.runs_simulated`` — the moment
        it completes, so interrupting a campaign and re-running resumes
        with zero re-execution; failing runs are retried per the
        campaign's :class:`RetryPolicy` and quarantined when
        persistent.  Raises :class:`ExperimentError` naming every
        quarantined spec — after all the others are stored.
        """
        specs = list(specs)
        self._serve(specs)
        failed = {
            spec.digest: spec for spec in specs
            if spec.digest in self.quarantined
        }
        if failed:
            runs = "; ".join(
                f"run {self._label(spec)} is quarantined after "
                f"{_failed_attempts(self.quarantined[digest].attempts)}: "
                f"{self.quarantined[digest].error}"
                for digest, spec in failed.items()
            )
            raise ExperimentError(
                f"{runs} — clear with Campaign.clear_quarantine() or set "
                f"{RETRY_QUARANTINED_ENV}=1 to retry it"
            )
        return [self._memory[spec.digest] for spec in specs]

    def _serve(self, specs: list[RunSpec], jobs: int | None = None) -> int:
        """Load or run every spec; returns the number simulated."""
        distinct = {spec.digest: spec for spec in specs}
        misses: list[RunSpec] = []
        for digest, spec in distinct.items():
            if self.cached(spec) is not None:
                continue
            if digest in self.quarantined:
                self.metrics.counter("campaign.quarantine_skipped").inc()
                continue
            misses.append(spec)
        if not misses:
            return 0
        runs_total = len(distinct)
        completed = 0
        self._emit_beacon("running", runs_total, runs_completed=0)

        def _checkpoint(
            spec: RunSpec, outcome: RunOutcome, attempt: int
        ) -> None:
            nonlocal completed
            self._store(outcome)
            if self.journal is not None:
                self.journal.record_done(
                    spec.digest, *self._names(spec), attempts=attempt
                )
            self.metrics.counter("campaign.runs_simulated").inc()
            completed += 1
            self._emit_beacon("running", runs_total, completed)

        # Called through this module's global, never a bound copy, so a
        # wrapper installed on ``campaign.run_specs_resilient`` sees
        # every batch.
        outcomes, quarantined = run_specs_resilient(
            misses,
            jobs=self.jobs if jobs is None else jobs,
            metrics=self.metrics,
            policy=self.retry,
            describe=self._label,
            on_complete=_checkpoint,
        )
        for digest, record in quarantined.items():
            self.quarantined[digest] = record
            self.metrics.counter("campaign.quarantined").inc()
            if self.journal is not None:
                self.journal.record_quarantined(
                    digest, *self._names(distinct[digest]),
                    attempts=record.attempts, error=record.error,
                    label=distinct[digest].describe(),
                )
        self._emit_beacon("done", runs_total, completed)
        return len(outcomes)

    def prefetch(
        self,
        benches: Iterable[str],
        configs: Iterable[str],
        jobs: int | None = None,
    ) -> int:
        """Materialise every missing (bench, config) run in bulk.

        The figure drivers call this before their serial analysis
        loops: the ``benches`` × ``configs`` product goes through the
        store in one batch of ``jobs`` workers (see :meth:`outcomes`;
        default the campaign's), and subsequent
        :meth:`solo`/:meth:`colocated` calls are pure lookups.  Returns
        the number of runs simulated.  Unlike :meth:`outcomes` it never
        raises for a quarantined run: it skips it (the report marks
        what depends on it), and :meth:`solo`/:meth:`colocated` raise.
        """
        configs = list(configs)
        specs = [
            self._tagged(bench, config)
            for bench in benches
            for config in configs
        ]
        return self._serve(specs, jobs)

    def solo(self, bench: str) -> RunOutcome:
        """The benchmark running alone on the chip."""
        return self.outcomes([self._tagged(bench, "solo")])[0]

    def colocated(self, bench: str, config: str) -> RunOutcome:
        """The benchmark co-located with lbm under ``config``.

        ``config`` is any co-located tag :meth:`CampaignSettings.run_spec`
        accepts — a paper config or a registry tag such as
        ``proactive-analytic`` — so every run :meth:`prefetch` cached
        reads back here.
        """
        if config == "solo":
            raise ExperimentError(
                "colocated() takes a co-located config; use "
                f"solo({bench!r}) for the benchmark alone"
            )
        return self.outcomes([self._tagged(bench, config)])[0]

    # -- derived metrics --------------------------------------------------

    def slowdown(self, bench: str, config: str) -> float:
        """Completion-time ratio of ``config`` vs. solo."""
        solo = self.solo(bench)
        colo = self.colocated(bench, config)
        return colo.completion_periods / solo.completion_periods

    def penalty(self, bench: str, config: str) -> float:
        """Cross-core interference penalty of ``config`` vs. solo."""
        return self.slowdown(bench, config) - 1.0

    def quarantine_report(self) -> list[QuarantineRecord]:
        """Every quarantined spec, sorted by label (for the report)."""
        return sorted(
            self.quarantined.values(), key=lambda r: (r.label, r.digest)
        )

    def clear_quarantine(self) -> int:
        """Lift every quarantine (journalled); returns how many."""
        count = len(self.quarantined)
        if self.journal is not None:
            for digest in list(self.quarantined):
                self.journal.record_cleared(digest)
        self.quarantined.clear()
        return count

    def memoised_runs(self) -> int:
        """Number of run outcomes currently memoised in this process."""
        return len(self._memory)

    def total_wall_seconds(self) -> float:
        """Wall-clock simulation time across every memoised run.

        Runs served from a pre-timing disk cache contribute 0.0.
        """
        return sum(s.wall_seconds for s in self._memory.values())

    def timing_coverage(self) -> tuple[int, int]:
        """``(timed, total)`` memoised runs.

        ``timed`` counts outcomes carrying a real ``wall_seconds``
        measurement; cached entries written before run timing existed
        (same cache epoch, older code) deserialise as 0.0 and are *not*
        timed — reports must render those as "n/a", never as 0.0 s.
        """
        timed = sum(
            1 for s in self._memory.values() if s.wall_seconds > 0.0
        )
        return timed, len(self._memory)

    def telemetry_snapshots(self) -> list[dict]:
        """Per-run telemetry of every memoised run that carries one.

        Iterates over a point-in-time copy of the memo table, so the
        exporter's serving thread can call this while :meth:`outcomes`
        is checkpointing new runs into it.
        """
        return [
            s.telemetry for s in list(self._memory.values())
            if s.telemetry is not None
        ]

    # -- live telemetry ---------------------------------------------------

    def _emit_beacon(
        self, state: str, runs_total: int, runs_completed: int
    ) -> None:
        """Drop the ``campaign`` beacon (no-op without a beacon dir)."""
        directory = beacon_dir()
        if directory is None:
            return
        write_beacon(
            directory,
            "campaign",
            {
                "state": state,
                "runs_total": runs_total,
                "runs_completed": runs_completed,
                "runs_cached": len(self._memory),
                "quarantined": len(self.quarantined),
                "cache_tag": self.settings.cache_tag(),
            },
        )

    def export_snapshot(self) -> dict[str, dict]:
        """One merged metrics snapshot for the live ``/metrics`` endpoint.

        Folds together, in merge order: the campaign-level registry
        (cache counters, ``campaign.runs_simulated``, executor spans),
        every memoised run's telemetry registry (detector verdicts,
        tier gauges, profiling spans — counters and histograms add
        across runs), and the beacon fragment from any live workers.
        Thread-safe to call from the exporter's serving thread: it only
        reads snapshots and beacon files.
        """
        snapshots: list[dict[str, dict]] = [self.metrics.snapshot()]
        for telemetry in self.telemetry_snapshots():
            metrics = telemetry.get("metrics")
            if isinstance(metrics, dict):
                snapshots.append(metrics)
        directory = beacon_dir()
        if directory is not None:
            beacons, invalid = scan_beacons(directory)
            snapshots.append(
                merge_beacon_metrics(beacons, invalid=invalid)
            )
        return merge_snapshots(snapshots)

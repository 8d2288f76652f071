"""Run orchestration with memoisation.

A *campaign* owns one machine configuration and run length and produces
the simulation runs the figures need: each SPEC benchmark alone, and
co-located with lbm under no runtime / CAER-shutter / CAER-rule-based /
CAER-random.  Figures 6, 7, and 8 analyse the same runs three ways, so
runs are summarised once into :class:`RunSummary` records, memoised in
memory, and (optionally) persisted as JSON so repeated bench invocations
do not re-simulate.

Every run the campaign produces is described by a declarative
:class:`~repro.runspec.RunSpec`, and the cache is keyed by the spec's
content-addressed digest: two drivers asking for the same physical run
— whatever words they use for it — hit the same entry, and any knob
that can change a result (machine geometry, CAER policy, seed, length,
backend) is in the key by construction.  :func:`audit_cache_key`
enforces that invariant at campaign construction for every
:class:`CampaignSettings` field.  Bump :data:`CACHE_EPOCH` when
simulation semantics change without a spec-visible knob moving.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
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
from .executor import TRACE_DIR_ENV, _execute_spec
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
    "RunSummary",
    "Campaign",
    "audit_cache_key",
    "produce_summary",
    "resolve_caer_config",
    "derive_telemetry",
]

#: Bump when simulation semantics change so cached results invalidate.
#: (7: spec version 2 — the fault plan joined the digest — and
#: statistical-backend telemetry became CAER-aware.  8: spec version 3
#: — the CAER plugin-parameter mappings joined the digest.)
CACHE_EPOCH = 8

#: When set (to anything truthy), a campaign ignores quarantine records
#: inherited from its journal and gives previously failing specs a
#: fresh chance; the journal itself is left intact until they complete.
RETRY_QUARANTINED_ENV = "REPRO_RETRY_QUARANTINED"


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


@dataclass
class RunSummary:
    """The per-run quantities the figures consume (JSON-serialisable)."""

    bench: str
    config: str  # "solo" or a co-located config tag
    completion_periods: int
    total_periods: int
    ls_total_llc_misses: int
    utilization_gained: float
    #: per-period LLC misses of the latency-sensitive app
    miss_series: list[int] = field(default_factory=list)
    #: per-period instructions retired by the latency-sensitive app
    instruction_series: list[float] = field(default_factory=list)
    #: wall-clock seconds the simulation took (excluded from equality:
    #: parallel and serial campaigns must compare identical).  0.0
    #: marks cached entries that predate timing ("n/a" in reports).
    wall_seconds: float = field(default=0.0, compare=False)
    #: telemetry snapshot of the run (metrics registry snapshot plus
    #: derived scalars and the spec digest); ``None`` for entries cached
    #: before the observability layer existed.  Excluded from equality:
    #: tracing and telemetry must never make two runs compare different.
    telemetry: dict | None = field(default=None, compare=False)

    @classmethod
    def from_outcome(
        cls, bench: str, config: str, outcome: RunOutcome
    ) -> "RunSummary":
        """Relabel a backend :class:`RunOutcome` into the campaign's
        (bench, config) vocabulary."""
        return cls(
            bench=bench,
            config=config,
            completion_periods=outcome.completion_periods,
            total_periods=outcome.total_periods,
            ls_total_llc_misses=outcome.ls_total_llc_misses,
            utilization_gained=outcome.utilization_gained,
            miss_series=outcome.miss_series,
            instruction_series=outcome.instruction_series,
            wall_seconds=outcome.wall_seconds,
            telemetry=outcome.telemetry,
        )


def produce_summary(
    settings: CampaignSettings, bench: str, config: str
) -> RunSummary:
    """Execute one (bench, config) run and condense it to a summary.

    Builds the run's :class:`RunSpec` and executes it on the settings'
    backend — the same path the parallel executor fans out, so serial
    and parallel campaigns are bit-identical.  ``config`` is ``"solo"``
    or any co-located tag :meth:`CampaignSettings.run_spec` accepts.
    """
    spec = settings.run_spec(bench, config)
    return RunSummary.from_outcome(bench, config, _execute_spec(spec))


class Campaign:
    """Produces and memoises the runs behind every figure."""

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
        self._memory: dict[str, RunSummary] = {}
        self._specs: dict[tuple[str, str], RunSpec] = {}
        if cache_dir is None:
            cache_dir = os.environ.get(
                "REPRO_CACHE_DIR", Path.home() / ".cache" / "repro-caer"
            )
        self.cache_dir = Path(cache_dir) if use_disk_cache else None
        #: default worker count for :meth:`prefetch` (None = resolve
        #: from ``REPRO_JOBS`` / cpu count at fan-out time)
        self.jobs = jobs
        #: retry/timeout posture of :meth:`prefetch` (None = defaults
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
                        label=(
                            f"({record.get('bench', '?')}, "
                            f"{record.get('config', '?')})"
                        ),
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

    # -- cache plumbing ---------------------------------------------------

    def _cache_path(self, bench: str, config: str) -> Path | None:
        if self.cache_dir is None:
            return None
        digest = self.spec_for(bench, config).digest
        return self.cache_dir / f"e{CACHE_EPOCH}" / f"{digest}.json"

    def _load(self, bench: str, config: str) -> RunSummary | None:
        digest = self.spec_for(bench, config).digest
        if digest in self._memory:
            self.metrics.counter("campaign.cache_memory_hits").inc()
            return self._memory[digest]
        path = self._cache_path(bench, config)
        if path is None or not path.exists():
            self.metrics.counter("campaign.cache_misses").inc()
            return None
        try:
            with open(path) as handle:
                data = json.load(handle)
            summary = RunSummary(**data)
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
        self._memory[digest] = summary
        return summary

    def _store(self, summary: RunSummary) -> None:
        digest = self.spec_for(summary.bench, summary.config).digest
        self._memory[digest] = summary
        path = self._cache_path(summary.bench, summary.config)
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
            f.name: getattr(summary, f.name)
            for f in dataclasses.fields(summary)
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

    def prefetch(
        self,
        benches: Iterable[str],
        configs: Iterable[str],
        jobs: int | None = None,
    ) -> int:
        """Materialise every missing (bench, config) summary in bulk.

        The figure drivers call this before their serial analysis
        loops: missing runs from the ``benches`` × ``configs`` product
        are fanned across worker processes (``jobs`` workers, falling
        back to the campaign's default, then ``REPRO_JOBS``/cpu count),
        cached, and subsequent :meth:`solo`/:meth:`colocated` calls are
        pure lookups.  Returns the number of runs simulated.

        Execution is *resilient*: each run is checkpointed — stored,
        journalled, counted — the moment it completes, so interrupting
        a campaign and re-running resumes with zero re-execution
        (``campaign.journal_resumed`` counts the runs the journal
        vouched for); failing runs are retried per the campaign's
        :class:`RetryPolicy` and quarantined when persistent, leaving
        the rest of the campaign intact.
        """
        benches = list(benches)
        configs = list(configs)
        pairs: list[tuple[str, str]] = []
        for bench in benches:
            for config in configs:
                if self._load(bench, config) is not None:
                    if (
                        self.journal is not None
                        and self.spec_for(bench, config).digest
                        in self.journal.completed
                    ):
                        self.metrics.counter(
                            "campaign.journal_resumed"
                        ).inc()
                    continue
                digest = self.spec_for(bench, config).digest
                if digest in self.quarantined:
                    self.metrics.counter(
                        "campaign.quarantine_skipped"
                    ).inc()
                    continue
                pairs.append((bench, config))
        runs_total = len(benches) * len(configs)
        if not pairs:
            self._emit_beacon(
                "done", runs_total=runs_total, runs_completed=0
            )
            return 0
        if jobs is None:
            jobs = self.jobs
        by_digest: dict[str, tuple[str, str]] = {}
        specs: list[RunSpec] = []
        for bench, config in pairs:
            spec = self.spec_for(bench, config)
            by_digest[spec.digest] = (bench, config)
            specs.append(spec)
        completed = 0
        self._emit_beacon(
            "running", runs_total=runs_total, runs_completed=0
        )

        def _checkpoint(
            spec: RunSpec, outcome: RunOutcome, attempt: int
        ) -> None:
            nonlocal completed
            bench, config = by_digest[spec.digest]
            self._store(RunSummary.from_outcome(bench, config, outcome))
            if self.journal is not None:
                self.journal.record_done(
                    spec.digest, bench, config, attempts=attempt
                )
            self.metrics.counter("campaign.runs_simulated").inc()
            completed += 1
            self._emit_beacon(
                "running",
                runs_total=runs_total,
                runs_completed=completed,
            )

        def _label(spec: RunSpec) -> str:
            pair = by_digest.get(spec.digest)
            if pair is None:
                return spec.describe()
            return f"({pair[0]}, {pair[1]})"

        outcomes, quarantined = run_specs_resilient(
            specs,
            jobs=jobs,
            metrics=self.metrics,
            policy=self.retry,
            describe=_label,
            on_complete=_checkpoint,
        )
        for digest, record in quarantined.items():
            self.quarantined[digest] = record
            self.metrics.counter("campaign.quarantined").inc()
            if self.journal is not None:
                bench, config = by_digest[digest]
                self.journal.record_quarantined(
                    digest, bench, config,
                    attempts=record.attempts, error=record.error,
                )
        self._emit_beacon(
            "done", runs_total=runs_total, runs_completed=completed
        )
        return len(outcomes)

    def _check_quarantine(self, bench: str, config: str) -> None:
        record = self.quarantined.get(self.spec_for(bench, config).digest)
        if record is not None:
            raise ExperimentError(
                f"run ({bench}, {config}) is quarantined after "
                f"{record.attempts} failed attempts: {record.error} — "
                f"clear with Campaign.clear_quarantine() or set "
                f"{RETRY_QUARANTINED_ENV}=1 to retry it"
            )

    def solo(self, bench: str) -> RunSummary:
        """The benchmark running alone on the chip."""
        cached = self._load(bench, "solo")
        if cached is not None:
            return cached
        self._check_quarantine(bench, "solo")
        summary = produce_summary(self.settings, bench, "solo")
        self._store(summary)
        self.metrics.counter("campaign.runs_simulated").inc()
        return summary

    def colocated(self, bench: str, config: str) -> RunSummary:
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
        cached = self._load(bench, config)
        if cached is not None:
            return cached
        self._check_quarantine(bench, config)
        summary = produce_summary(self.settings, bench, config)
        self._store(summary)
        self.metrics.counter("campaign.runs_simulated").inc()
        return summary

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
        """Number of run summaries currently memoised in this process."""
        return len(self._memory)

    def total_wall_seconds(self) -> float:
        """Wall-clock simulation time across every memoised run.

        Runs served from a pre-timing disk cache contribute 0.0.
        """
        return sum(s.wall_seconds for s in self._memory.values())

    def timing_coverage(self) -> tuple[int, int]:
        """``(timed, total)`` memoised runs.

        ``timed`` counts summaries carrying a real ``wall_seconds``
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
        exporter's serving thread can call this while ``prefetch`` is
        checkpointing new summaries into it.
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

"""Pinned run outcomes: what the answer is, not only that paths agree.

``outcomes.json`` is the one table of what the pinned runs answer: the
sha256 of each ``RunOutcome``'s compare-fields (canonical JSON, hashed
exactly as ``bench/rep.py`` does), at length 0.01 unless a label says
otherwise.  The matrix covers:

* six paper victims under seven campaign configurations, on the
  ``sim`` and the ``statistical`` backend;
* ``raw`` runs on machines that enable the prefetcher, writeback
  modelling, a non-inclusive L3, or a non-LRU replacement policy —
  the hierarchy paths ``bench/expected/seed0.json`` never exercises;
* a run under every built-in detector and response the paper
  configurations leave out;
* faulted runs, wherever the fault plan moves the answer;
* two longer statistical runs in which a phase rotates while the cold
  budget is still being paid.

Every axis that must not matter reads the same table: the fast path
and the generic reference (``REPRO_FAST_LANE`` 1 and 0, ``sim`` pins),
``--jobs 2`` on the persistent worker pool through the resilient
executor and through the campaign store that fronts it (every pin),
and, for a subset of pins, a tracer, live export, a retry after a
crash, and a journal resume after an interrupt.

A deliberate result change rewrites ``outcomes.json`` (run this module
as a script) and bumps ``CACHE_EPOCH`` in ``repro.experiments.campaign``
in the same change.  The file records the epoch its pins were made at;
the script refuses to move a pin without a bump, while adding pins
needs none.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import urllib.request
from pathlib import Path

import pytest

from repro.caer.runtime import CaerConfig
from repro.experiments.campaign import CACHE_EPOCH, Campaign, CampaignSettings
from repro.experiments.resilience import RetryPolicy, run_specs_resilient
from repro.faults import FaultPlan
from repro.faults.chaos import CHAOS_ENV
from repro.obs import MetricsRegistry, RingBufferSink, Tracer, start_exporter
from repro.obs.heartbeat import BEACON_DIR_ENV
from repro.runspec import RunOutcome, execute_run

GOLDEN = Path(__file__).with_name("outcomes.json")

LENGTH = 0.01
VICTIMS = (
    "462.libquantum",
    "470.lbm",
    "429.mcf",
    "401.bzip2",
    "400.perlbench",
    "456.hmmer",
)
CONFIGS = (
    "solo", "raw", "shutter", "rule", "shutter+partition",
    "random", "rule-based+partition",
)
BACKENDS = ("sim", "statistical")
#: Machine variants run ``raw`` on a streaming and a pointer-chasing
#: victim: each turns on one hierarchy feature the paper machine lacks.
VARIANT_VICTIMS = ("462.libquantum", "429.mcf")
VARIANTS = (
    ("prefetch_degree", 2),
    ("model_writebacks", True),
    ("l3_inclusive", False),
)
#: Non-LRU policies run ``raw`` on the pointer chaser only: on
#: 462.libquantum's stream, fifo and plru give LRU's answer.
POLICY_VICTIM = "429.mcf"
POLICIES = ("fifo", "plru", "random")
#: The detectors and responses no paper configuration reaches, set up
#: so that each detector fires within the run's ~14 periods.
ZOO_VICTIM = "429.mcf"
ZOO = {
    "cdf-quantile": CaerConfig(
        detector="cdf-quantile",
        detector_params={"min_samples": 4, "quantile": 0.5},
    ),
    "gmm-fence": CaerConfig(
        detector="gmm-fence", detector_params={"train_periods": 4}
    ),
    "proactive-analytic": CaerConfig(detector="proactive-analytic"),
    "profile": CaerConfig.profile_oracle(290.0),
    "shutter+dvfs": CaerConfig.dvfs(),
}
#: Statistical runs longer than ``LENGTH``, as (victim, config, length):
#: in each, a phase rotates while a process still has first touches to
#: pay, so the cold budget drains at the new phase's rate.
ROTATIONS = (("403.gcc", "raw", 0.05), ("429.mcf", "solo", 1.0))
#: The runs this plan moves at this length, as (victim, config,
#: backend); it leaves every other sim victim x {shutter, rule} as is.
FAULTS = FaultPlan.scaled(0.8, seed=0)
FAULTED = (
    ("462.libquantum", "rule", "sim"),
    ("462.libquantum", "rule", "statistical"),
    ("400.perlbench", "shutter", "statistical"),
)


def outcome_sha256(outcome: object) -> str:
    """sha256 of a RunOutcome's compare-fields as canonical JSON."""
    fields = {
        f.name: getattr(outcome, f.name)
        for f in dataclasses.fields(outcome)
        if f.compare
    }
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_label(victim: str, config: str, backend: str = "sim") -> str:
    """The label of a campaign run: ``<victim>-<config>[-backend=...]``."""
    suffix = "" if backend == "sim" else f"-backend={backend}"
    return f"{victim}-{config}{suffix}"


def golden_specs() -> tuple[dict, dict]:
    """Label -> RunSpec for the whole pinned matrix, and, for every
    faulted or non-LRU pin, label -> the label of its clean or LRU
    twin."""
    specs = {
        paper_label(victim, config, backend):
            CampaignSettings(length=LENGTH, backend=backend)
            .run_spec(victim, config)
        for backend in BACKENDS
        for victim in VICTIMS
        for config in CONFIGS
    }
    twins = {}

    def on_machine(label: str, **changes: object):
        spec = specs[label]
        machine = dataclasses.replace(spec.machine, **changes)
        return dataclasses.replace(spec, machine=machine)

    for field, value in VARIANTS:
        for victim in VARIANT_VICTIMS:
            raw = paper_label(victim, "raw")
            specs[f"{raw}-{field}={value}"] = on_machine(raw, **{field: value})
    lru = paper_label(POLICY_VICTIM, "raw")
    for policy in POLICIES:
        label = f"{lru}-replacement={policy}"
        specs[label] = on_machine(lru, replacement=policy)
        twins[label] = lru
    for name, caer in ZOO.items():
        specs[paper_label(ZOO_VICTIM, name)] = dataclasses.replace(
            specs[paper_label(ZOO_VICTIM, "raw")], caer=caer
        )
    for victim, config, length in ROTATIONS:
        label = paper_label(victim, config, "statistical")
        specs[f"{label}-length={length}"] = CampaignSettings(
            length=length, backend="statistical"
        ).run_spec(victim, config)
    for victim, config, backend in FAULTED:
        twin = paper_label(victim, config, backend)
        specs[f"{twin}-faults=0.8"] = specs[twin].with_faults(FAULTS)
        twins[f"{twin}-faults=0.8"] = twin
    return specs, twins


SPECS, TWINS = golden_specs()

#: The campaign runs the journal axis resumes, as (backend, victim,
#: config), in prefetch order: the interrupt hits the last.
JOURNAL_RUNS = (
    ("sim", "429.mcf", "rule"),
    ("sim", "429.mcf", "proactive-analytic"),
    ("statistical", "429.mcf", "shutter"),
    ("sim", "470.lbm", "shutter"),
)
#: The pins checked on every other axis: the stream path (470.lbm), a
#: pointer chaser, a zoo detector, the statistical backend, a faulted
#: run and a non-LRU policy.
AXIS_PINS = tuple(
    paper_label(victim, config, backend)
    for backend, victim, config in JOURNAL_RUNS
) + ("462.libquantum-rule-faults=0.8", "429.mcf-raw-replacement=plru")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def pinned() -> dict:
    return load_golden()["pins"]


def moved(pinned: dict, labels, outcomes) -> list[str]:
    """The labels whose outcome no longer hashes to its pin."""
    return [
        label for label, outcome in zip(labels, outcomes)
        if outcome_sha256(outcome) != pinned[label]
    ]


def test_matrix_matches_pinned_file(pinned):
    assert sorted(pinned) == sorted(SPECS)


def test_pins_recorded_at_current_cache_epoch():
    recorded = load_golden()["cache_epoch"]
    assert recorded == CACHE_EPOCH, (
        f"{GOLDEN.name} was pinned at cache epoch {recorded}, but "
        f"CACHE_EPOCH is {CACHE_EPOCH}: rewrite the pins with "
        f"`PYTHONPATH=src python -m tests.golden.test_outcomes` in the "
        f"change that bumps CACHE_EPOCH"
    )


#: (label, REPRO_FAST_LANE) cases; a fast-path case's id is its bare
#: label, a reference case's id names the flag.  The flag only steers
#: the sim backend.
CASES = [
    pytest.param(label, lane,
                 id=label if lane == "1" else f"{label}-REPRO_FAST_LANE=0")
    for lane in ("1", "0")
    for label, spec in SPECS.items()
    if lane == "1" or spec.backend == "sim"
]


@pytest.mark.parametrize("label, lane", CASES)
def test_outcome_pinned(label, lane, pinned, monkeypatch):
    monkeypatch.setenv("REPRO_FAST_LANE", lane)
    got = outcome_sha256(execute_run(SPECS[label]))
    assert got == pinned[label], (
        f"the outcome of {label} changed (sha256 {got}). If the change "
        f"is deliberate, bump CACHE_EPOCH in repro.experiments.campaign "
        f"and rewrite {GOLDEN.name} by running "
        f"`PYTHONPATH=src python -m tests.golden.test_outcomes` in the "
        f"same change."
    )


def _on_pool(executor: str, specs: list) -> list:
    """Outcomes of ``specs`` at ``--jobs 2``, in ``specs`` order."""
    if executor == "campaign":
        campaign = Campaign(
            CampaignSettings(length=LENGTH), use_disk_cache=False, jobs=2,
            retry=RetryPolicy(max_attempts=1),
        )
        return campaign.outcomes(specs)
    outcomes, quarantined = run_specs_resilient(
        specs, jobs=2, policy=RetryPolicy(max_attempts=1)
    )
    assert not quarantined, quarantined
    return [outcomes[spec.digest] for spec in specs]


@pytest.mark.parametrize("executor", ["campaign", "run_specs_resilient"])
def test_outcomes_pinned_on_pool(executor, pinned):
    labels = list(SPECS)
    outcomes = _on_pool(executor, [SPECS[label] for label in labels])
    changed = moved(pinned, labels, outcomes)
    assert not changed, (
        f"at --jobs 2 through {executor}, the outcomes of {changed} "
        f"differ from their pins in {GOLDEN.name}"
    )


# -- guards: every pin pins something, and every built-in is pinned ----

@pytest.mark.parametrize("label", sorted(TWINS))
def test_faults_and_policies_change_the_outcome(label):
    """A faulted or non-LRU pin equal to its twin would pin nothing."""
    def blank(outcome: RunOutcome) -> RunOutcome:
        return dataclasses.replace(outcome, digest="")

    twin = TWINS[label]
    assert blank(execute_run(SPECS[label])) != blank(
        execute_run(SPECS[twin])
    ), f"{label} answers exactly what its twin {twin} answers"


def test_every_builtin_reaches_a_pin():
    # Built-ins are the entries their own module registered at import,
    # so a plugin a test registers cannot break this guard.
    from repro.arch import replacement
    from repro.caer import registry
    from repro.sim import scenario

    def registered_by(module: object, table: dict) -> set:
        return {
            name for name, entry in table.items()
            if entry.__module__ == module.__name__
        }

    caers = [spec.caer for spec in SPECS.values() if spec.caer]
    reached = {
        "detector": {caer.detector for caer in caers},
        "response": {caer.response for caer in caers},
        "backend": {spec.backend for spec in SPECS.values()},
        "policy": {spec.machine.replacement for spec in SPECS.values()},
    }
    builtin = {
        "detector": registered_by(registry, registry._DETECTORS),
        "response": registered_by(registry, registry._RESPONSES),
        "backend": registered_by(scenario, scenario._BACKENDS),
        "policy": registered_by(replacement, replacement._POLICIES),
    }
    assert all(builtin.values()), builtin
    missing = {
        kind: sorted(names - reached[kind])
        for kind, names in builtin.items()
        if names - reached[kind]
    }
    assert not missing, f"no pin reaches the built-in {missing}"


def repin(recorded: dict | None, digests: dict, epoch: int) -> dict:
    """The pin file holding ``digests`` at ``epoch``.

    Refuses to move a pin of ``recorded`` unless ``epoch`` is newer than
    the epoch it was made at; new pins need no bump.
    """
    if recorded is not None and recorded["cache_epoch"] >= epoch:
        changed = sorted(
            label for label, digest in recorded["pins"].items()
            if digests.get(label, digest) != digest
        )
        if changed:
            raise SystemExit(
                f"the outcomes of {changed} changed, but CACHE_EPOCH is "
                f"still {epoch}, the epoch of their pins. If the change "
                f"is deliberate, bump CACHE_EPOCH in "
                f"repro.experiments.campaign and run this again."
            )
    return {"cache_epoch": epoch, "pins": digests}


def test_moving_a_pin_needs_a_cache_epoch_bump():
    recorded = {"cache_epoch": 8, "pins": {"a": "1", "b": "2"}}
    grown = repin(recorded, {"a": "1", "b": "2", "c": "3"}, 8)
    assert grown == {"cache_epoch": 8, "pins": {"a": "1", "b": "2", "c": "3"}}
    with pytest.raises(SystemExit, match="CACHE_EPOCH"):
        repin(recorded, {"a": "1", "b": "moved"}, 8)
    bumped = repin(recorded, {"a": "1", "b": "moved"}, 9)
    assert bumped == {"cache_epoch": 9, "pins": {"a": "1", "b": "moved"}}


# -- axes that must not matter, on AXIS_PINS ---------------------------

@pytest.mark.parametrize("label", AXIS_PINS)
def test_pinned_when_traced(label, pinned):
    spec = SPECS[label]
    ring = RingBufferSink(1 << 20)
    outcome = execute_run(spec, tracer=Tracer([ring]))
    assert outcome_sha256(outcome) == pinned[label], (
        f"traced, the outcome of {label} differs from its pin"
    )
    # Both backends record every process in every period.
    processes = 1 + len(spec.contenders)
    assert len(ring.by_kind("pmu_sample")) == (
        outcome.total_periods * processes
    )
    if spec.faults is not None:
        assert ring.by_kind("fault")
    if spec.caer is not None:
        # Detection events carry the registry name, not the class name.
        detectors = {event.detector for event in ring.by_kind("detection")}
        assert detectors == {spec.caer.detector}


def test_pinned_under_live_export(tmp_path, monkeypatch, pinned):
    """Served and scraped ``/metrics`` and worker beacons change no run."""
    monkeypatch.setenv(BEACON_DIR_ENV, str(tmp_path))
    registry = MetricsRegistry()
    exporter = start_exporter(registry.snapshot, port=0)
    try:
        registry.counter("campaign.runs_simulated").inc()
        body = urllib.request.urlopen(exporter.url, timeout=5).read()
        assert b"repro_campaign_runs_simulated_total 1" in body
        outcomes = _on_pool("campaign", [SPECS[label] for label in AXIS_PINS])
    finally:
        exporter.close()
    changed = moved(pinned, AXIS_PINS, outcomes)
    assert not changed, f"under live export, {changed} differ from their pins"
    assert any(tmp_path.iterdir()), "no worker wrote a beacon"
    # Every run armed span profiling, so the armed world was exercised.
    for outcome in outcomes:
        assert any(
            name.startswith("profile.")
            for name in outcome.telemetry["metrics"]
        )


def test_pinned_after_retry(monkeypatch, pinned):
    monkeypatch.setenv(CHAOS_ENV, "crash:1")
    specs = [SPECS[label] for label in AXIS_PINS]
    metrics = MetricsRegistry()
    outcomes, quarantined = run_specs_resilient(
        specs, jobs=2, metrics=metrics,
        policy=RetryPolicy(max_attempts=2, backoff=(0.0,)),
    )
    assert not quarantined, quarantined
    assert metrics.snapshot()["executor.retries"]["value"] == len(specs)
    changed = moved(pinned, AXIS_PINS, [outcomes[s.digest] for s in specs])
    assert not changed, f"after a retry, {changed} differ from their pins"


def test_pinned_after_journal_resume(tmp_path, monkeypatch, pinned):
    """An interrupted campaign resumes to the pinned answers.

    The runs finished before the interrupt come back from the journal
    and the cache; a fresh campaign then reads every outcome back from
    disk through ``Campaign.colocated``, and each one hashes to its pin.
    """
    def campaigns() -> list:
        return [
            Campaign(
                CampaignSettings(length=LENGTH, backend=backend),
                cache_dir=tmp_path, jobs=1,
            )
            for backend, _, _ in JOURNAL_RUNS
        ]

    def prefetch() -> list:
        runs = campaigns()
        for campaign, (_, victim, config) in zip(runs, JOURNAL_RUNS):
            campaign.prefetch([victim], [config])
        return runs

    interrupted = JOURNAL_RUNS[-1][1]
    monkeypatch.setenv(CHAOS_ENV, f"interrupt:99:{interrupted}")
    with pytest.raises(KeyboardInterrupt):
        prefetch()
    monkeypatch.delenv(CHAOS_ENV)
    resumed = prefetch()

    def count(name: str) -> float:
        return sum(
            campaign.metrics.snapshot().get(name, {}).get("value", 0)
            for campaign in resumed
        )

    assert count("campaign.journal_resumed") == len(JOURNAL_RUNS) - 1
    assert count("campaign.runs_simulated") == 1
    outcomes = []
    for campaign, (_, victim, config) in zip(campaigns(), JOURNAL_RUNS):
        outcomes.append(campaign.colocated(victim, config))
        hits = campaign.metrics.snapshot()["campaign.cache_disk_hits"]
        assert hits["value"] == 1
    labels = [paper_label(v, c, b) for b, v, c in JOURNAL_RUNS]
    changed = moved(pinned, labels, outcomes)
    assert not changed, f"after a resume, {changed} differ from their pins"


def write_golden() -> None:
    recorded = load_golden() if GOLDEN.exists() else None
    digests = {
        label: outcome_sha256(execute_run(spec))
        for label, spec in SPECS.items()
    }
    document = repin(recorded, digests, CACHE_EPOCH)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()

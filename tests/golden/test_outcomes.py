"""Pinned run outcomes: what the answer is, not only that paths agree.

Every differential suite proves that two execution paths agree; none of
them would notice a change that moves every path the same way.  This
module pins the sha256 of each ``RunOutcome``'s compare-fields
(canonical JSON, hashed exactly as ``bench/rep.py`` does) for a fixed
``sim`` matrix at length 0.01: six paper victims under every campaign
configuration, plus ``raw`` runs on machines that enable the
prefetcher, writeback modelling and a non-inclusive L3 — the hierarchy
paths ``bench/expected/seed0.json`` never exercises.  Every pin must
hold on the fast path and on the generic reference
(``REPRO_FAST_LANE=0``) alike, and at ``--jobs 2`` on the persistent
worker pool, through both the plain and the resilient executor.

A deliberate result change rewrites ``outcomes.json`` (run this module
as a script) and bumps ``CACHE_EPOCH`` in
``repro.experiments.campaign`` in the same change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.campaign import CampaignSettings
from repro.experiments.executor import run_specs
from repro.experiments.resilience import RetryPolicy, run_specs_resilient
from repro.runspec import execute_run
from repro.runspec.spec import paper_run_spec

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
CONFIGS = ("solo", "raw", "shutter", "rule", "shutter+partition")
#: Machine variants run ``raw`` on a streaming and a pointer-chasing
#: victim: each turns on one hierarchy feature the paper machine lacks.
VARIANT_VICTIMS = ("462.libquantum", "429.mcf")
VARIANTS = (
    ("prefetch_degree", 2),
    ("model_writebacks", True),
    ("l3_inclusive", False),
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


def golden_specs() -> dict:
    """Label -> RunSpec for the whole pinned matrix."""
    settings = CampaignSettings(length=LENGTH)
    specs = {
        f"{victim}-{config}": settings.run_spec(victim, config)
        for victim in VICTIMS
        for config in CONFIGS
    }
    base = settings.machine()
    for field, value in VARIANTS:
        machine = dataclasses.replace(base, **{field: value})
        for victim in VARIANT_VICTIMS:
            specs[f"{victim}-raw-{field}={value}"] = paper_run_spec(
                victim, "raw", machine, seed=settings.seed, length=LENGTH,
                slices_per_period=settings.slices_per_period,
            )
    return specs


SPECS = golden_specs()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def test_matrix_matches_pinned_file(pinned):
    assert sorted(pinned) == sorted(SPECS)


#: (label, REPRO_FAST_LANE) cases; a fast-path case's id is its bare
#: label, a reference case's id names the flag.
CASES = [
    pytest.param(label, lane,
                 id=label if lane == "1" else f"{label}-REPRO_FAST_LANE=0")
    for lane in ("1", "0")
    for label in SPECS
]


@pytest.mark.parametrize("label, lane", CASES)
def test_outcome_pinned(label, lane, pinned, monkeypatch):
    monkeypatch.setenv("REPRO_FAST_LANE", lane)
    got = outcome_sha256(execute_run(SPECS[label]))
    assert got == pinned[label], (
        f"the outcome of {label} changed (sha256 {got}). If the change "
        f"is deliberate, rewrite {GOLDEN.name} by running "
        f"`PYTHONPATH=src python -m tests.golden.test_outcomes` and bump "
        f"CACHE_EPOCH in repro.experiments.campaign in the same change."
    )


def _on_pool(executor: str, specs: list) -> list:
    """Outcomes of ``specs`` at ``--jobs 2``, in ``specs`` order."""
    if executor == "run_specs":
        return run_specs(specs, jobs=2)
    outcomes, quarantined = run_specs_resilient(
        specs, jobs=2, policy=RetryPolicy(max_attempts=1)
    )
    assert not quarantined, quarantined
    return [outcomes[spec.digest] for spec in specs]


@pytest.mark.parametrize("executor", ["run_specs", "run_specs_resilient"])
def test_outcomes_pinned_on_pool(executor, pinned):
    labels = list(SPECS)
    outcomes = _on_pool(executor, [SPECS[label] for label in labels])
    changed = [
        label for label, outcome in zip(labels, outcomes)
        if outcome_sha256(outcome) != pinned[label]
    ]
    assert not changed, (
        f"at --jobs 2 through {executor}, the outcomes of {changed} "
        f"differ from their pins in {GOLDEN.name}"
    )


def write_golden() -> None:
    digests = {
        label: outcome_sha256(execute_run(spec))
        for label, spec in SPECS.items()
    }
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()

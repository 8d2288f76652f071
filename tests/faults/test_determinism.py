"""Determinism contract under faults.

A faulted run is a pure function of its spec.  ``tests/golden`` pins
faulted outcomes on both backends, and checks them across repeats,
``--jobs``, tracing and retry.  This module checks the plan itself: a
zero-intensity plan is bit-identical to running with no plan at all
(only the digest moves), the fault seed moves the result, and a raw
run ignores any plan.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import FaultPlan
from repro.runspec import execute_run, paper_run_spec

LENGTH = 0.02


def faulted_spec(machine, intensity=0.8, config="rule",
                 backend="sim", fault_seed=0):
    return paper_run_spec(
        "429.mcf", config, machine, length=LENGTH, backend=backend
    ).with_faults(FaultPlan.scaled(intensity, seed=fault_seed))


def comparable(outcome):
    """Strip identity so faulted/clean outcomes can compare equal."""
    return dataclasses.replace(outcome, digest="")


@pytest.mark.parametrize("backend", ["sim", "statistical"])
class TestRepeatability:
    def test_zero_intensity_equals_no_faults(self, scaled_machine,
                                             backend):
        clean = paper_run_spec(
            "429.mcf", "rule", scaled_machine, length=LENGTH,
            backend=backend,
        )
        nulled = clean.with_faults(FaultPlan.scaled(0.0))
        assert nulled.digest != clean.digest
        assert comparable(execute_run(nulled)) == comparable(
            execute_run(clean)
        )

    def test_fault_seed_changes_results(self, scaled_machine, backend):
        a = execute_run(faulted_spec(scaled_machine, backend=backend,
                                     fault_seed=0))
        b = execute_run(faulted_spec(scaled_machine, backend=backend,
                                     fault_seed=1))
        assert comparable(a) != comparable(b)


class TestTracingNeutrality:
    """Faults only move what reads the PMU.

    That a tracer leaves a faulted run unchanged is pinned in
    ``tests/golden``.
    """

    def test_raw_run_ignores_faults_bit_identically(self, scaled_machine):
        """No hook consumes observations in a raw run, so even an
        aggressive plan cannot change its physical results."""
        clean = paper_run_spec(
            "429.mcf", "raw", scaled_machine, length=LENGTH
        )
        faulted = clean.with_faults(FaultPlan.scaled(1.0))
        assert comparable(execute_run(faulted)) == comparable(
            execute_run(clean)
        )

#!/usr/bin/env python3
"""Capacity planning: screen statistically, verify with the simulator.

An operator question the paper's introduction implies: *which* batch
jobs can safely share a chip with a given latency-sensitive service
under a penalty budget?  Answering by trace simulation for every
candidate pair is slow; this example shows the two-resolution workflow
this library supports:

1. screen every candidate contender against the service on the
   **statistical engine** (closed form, full run lengths, milliseconds
   per pair) — a cheap optimistic filter;
2. gate every pairing the screen did not clear outright through the
   **trace engine** under CAER (per-access fidelity).

The output also shows *why* the gate matters: the closed-form screen
underestimates raw cache contention for heavy pairs (it has no
inclusion victims or set conflicts), but the CAER-managed penalty it
predicts holds up — the runtime, not the estimate, is what makes
co-location safe.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

from repro import CaerConfig, MachineConfig, benchmark, caer_factory
from repro.caer.metrics import slowdown, utilization_gained
from repro.sim import run_colocated, run_solo

MACHINE = MachineConfig.scaled_nehalem()
L3 = MACHINE.l3.capacity_lines

SERVICE = "483.xalancbmk"  # the latency-sensitive tenant
CANDIDATES = (
    "470.lbm",
    "462.libquantum",
    "433.milc",
    "456.hmmer",
    "444.namd",
    "453.povray",
    "401.bzip2",
    "454.calculix",
)
PENALTY_BUDGET = 0.05  # the service may lose at most 5%


def screen() -> list[tuple[str, float, float, float]]:
    """Statistical pass over every candidate (full run length)."""
    service = benchmark(SERVICE, L3, length=1.0)
    solo = run_solo(service, MACHINE, backend="statistical")
    base = solo.latency_sensitive().completion_periods
    rows = []
    for name in CANDIDATES:
        contender = benchmark(name, L3, length=1.0)
        raw = run_colocated(
            service, contender, MACHINE, backend="statistical"
        )
        managed = run_colocated(
            service, contender, MACHINE,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            backend="statistical",
        )
        raw_penalty = (
            raw.latency_sensitive().completion_periods / base - 1.0
        )
        managed_penalty = (
            managed.latency_sensitive().completion_periods / base - 1.0
        )
        rows.append(
            (name, raw_penalty, managed_penalty,
             utilization_gained(managed))
        )
    return rows


def verify(name: str, solo_cache: dict) -> tuple[float, float, float]:
    """Trace-engine gate: raw and CAER-managed penalty (reduced length)."""
    service = benchmark(SERVICE, L3, length=0.1)
    contender = benchmark(name, L3, length=0.1)
    if "solo" not in solo_cache:
        solo_cache["solo"] = run_solo(service, MACHINE)
    solo = solo_cache["solo"]
    raw = run_colocated(service, contender, MACHINE)
    managed = run_colocated(
        service, contender, MACHINE,
        caer_factory=caer_factory(CaerConfig.rule_based()),
    )
    return (
        slowdown(raw, solo) - 1.0,
        slowdown(managed, solo) - 1.0,
        utilization_gained(managed),
    )


def main() -> None:
    print(f"service: {SERVICE}   penalty budget: {PENALTY_BUDGET:.0%}\n")
    print("== Statistical screen (full length, seconds) ==")
    print(f"{'candidate':<16} {'raw':>7} {'w/ CAER':>8} {'util':>6} "
          f"{'screen verdict':>18}")
    gate_list = []
    for name, raw, managed, util in screen():
        if raw <= 0.02:
            verdict = "co-locate freely"
        elif managed <= PENALTY_BUDGET:
            verdict = "gate w/ CAER"
            gate_list.append(name)
        else:
            verdict = "keep separate"
        print(f"{name:<16} {raw:>7.1%} {managed:>8.1%} {util:>6.1%} "
              f"{verdict:>18}")

    print("\n== Trace-engine gate (per-access fidelity) ==")
    print(f"{'candidate':<16} {'raw':>7} {'w/ CAER':>8} {'util':>6} "
          f"{'decision':>18}")
    solo_cache: dict = {}
    for name in gate_list:
        raw, managed, util = verify(name, solo_cache)
        decision = (
            "co-locate w/ CAER"
            if managed <= PENALTY_BUDGET + 0.02
            else "keep separate"
        )
        print(f"{name:<16} {raw:>7.1%} {managed:>8.1%} {util:>6.1%} "
              f"{decision:>18}")
    print(
        "\nNote how much larger the trace-engine raw penalties are "
        "than the screen's —\nthe closed-form filter is optimistic "
        "about cache contention, but the CAER-managed\npenalty it "
        "predicts survives per-access simulation: the runtime is what "
        "makes\nthe co-location safe, and the gate confirms it."
    )


if __name__ == "__main__":
    main()

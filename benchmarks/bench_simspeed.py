"""Simulator throughput and observability-overhead gates.

The throughput suite measures raw access throughput (simulated memory
accesses per wall second) of one core driving the scaled-Nehalem
hierarchy under each execution tier:

* **generic** (``REPRO_FAST_LANE=0``) — the reference path: list sets,
  virtual policy dispatch and exception-based probing, one
  ``CacheHierarchy.access`` call per access;
* **kernel** (``REPRO_FAST_LANE=1``, the default) — the private
  levels' LRU sets plain lists and the L3's ordered dicts (owner masks
  as their values), whole batches served by the bulk kernel
  (``access_many``) or, for cold ascending streams, by the stream path
  (``vector_classify`` / ``vector_commit``).

Both tiers produce bit-identical results (the differential suites in
``tests/arch/test_bulk_kernel.py`` and ``tests/arch/test_owner_store.py``
and the pinned outcomes in ``tests/golden`` prove it); only wall-clock
differs.

The **vector gate** pits the kernel tier's two batched paths against
each other on ``stream-llc`` (the 4-repeat stream shape of ``lbm``):
fresh chips serve the same address batches through the stream path
and through ``access_many``, at the batch size one default budget buys
on that workload.  It is an ordering check — the stream path must beat
the bulk kernel it bypasses — in smoke and full runs alike.

The two **overhead gates** time an "off" and an "on" unit of work in
interleaved pairs and judge the median of the pair ratios by its
distribution-free 95% confidence interval (:func:`judge`): the gate
passes when the whole interval lies below the bound, fails when it
lies at or above it, and otherwise reports ``UNRESOLVED`` and exits
non-zero, because a spread too wide to decide proves nothing.

Run::

    PYTHONPATH=src python benchmarks/bench_simspeed.py                   # full
    PYTHONPATH=src python benchmarks/bench_simspeed.py --smoke           # CI
    PYTHONPATH=src python benchmarks/bench_simspeed.py --trace-overhead
    PYTHONPATH=src python benchmarks/bench_simspeed.py --export-overhead
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from math import comb, inf
from pathlib import Path
from statistics import median
from typing import Callable, NamedTuple, Sequence

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import MachineConfig
from repro.sim.process import line_base
from repro.workloads import synthetic

#: Kernel gate, applied to the streaming benchmark (``stream-llc``).
KERNEL_OVER_GENERIC_TARGET = 3.0

#: Maximum allowed slowdown of a fully traced engine run (ring-buffer
#: sink) over an untraced one.
TRACE_OVERHEAD_TARGET = 0.02

#: Maximum allowed slowdown of stream-llc ``core.run`` calls with span
#: profiling armed over the same calls unarmed, both under a served
#: ``/metrics`` endpoint and a scraper hitting it.
EXPORT_OVERHEAD_TARGET = 0.02

#: Cycle budget of one ``core.run`` call.
DEFAULT_BUDGET = 40_000.0

#: Every workload runs on core 0, at the line addresses the simulator
#: gives a process there.
CORE0_BASE = line_base(0)

#: (warm-up calls, timed calls, best-of reps) of one throughput
#: measurement, per mode.
SMOKE_RUNS = (3, 10, 1)
FULL_RUNS = (10, 40, 3)

#: Off/on pairs an overhead gate times.  Host noise shifts whole units,
#: so a pair's spread hardly shrinks with a longer unit: many short
#: pairs narrow the interval more than a few long ones in the same
#: time.  At 161 pairs the median's distribution-free interval runs
#: from the 68th smallest to the 68th largest pair ratio.
OVERHEAD_PAIRS = 161

#: Confidence of the interval an overhead verdict is read from.
CONFIDENCE = 0.95

#: Run length of the mcf/shutter engine run the tracing gate times.
TRACE_RUN_LENGTH = 0.05

#: ``core.run`` calls in one timed unit of the export gate.
EXPORT_RUN_CALLS = 150

#: tier -> REPRO_FAST_LANE.
TIERS = {"generic": "0", "kernel": "1"}

#: name -> (factory, kernel gate applies, vector gate applies).
#: ``stream-llc`` is *the* streaming benchmark of the acceptance
#: criteria: a cyclic sweep well past the L3, every fourth access a
#: fresh line.  ``stream-l2`` stresses the L3-hit walk (informational
#: for the kernel gate: the walk is a handful of C-level operations
#: either way, so the batched win is structurally smaller there).
#: ``pointer-chase`` is informational: its batches are never
#: ascending, so the bulk kernel serves them all.
WORKLOADS = {
    "stream-llc": (
        lambda: synthetic.streamer(lines=70_000, instructions=1e9),
        True,
        True,
    ),
    "stream-l2": (
        lambda: synthetic.streamer(lines=512, instructions=1e9),
        False,
        False,
    ),
    "pointer-chase": (
        lambda: synthetic.pointer_chaser(lines=70_000, instructions=1e9),
        False,
        False,
    ),
}


def _set_tier(tier: str) -> None:
    os.environ["REPRO_FAST_LANE"] = TIERS[tier]


def _clear_tier() -> None:
    os.environ.pop("REPRO_FAST_LANE", None)


def measure(tier: str, factory, warm: int, timed: int, reps: int) -> float:
    """Best-of-``reps`` accesses/second for one execution tier.

    The tier flag is read at object construction, so the chip is built
    after setting the environment; the workload restarts when it
    finishes so the measured stream is steady-state.  Best-of-N is the
    standard defence against interpreter and scheduler noise (only
    slowdowns are spurious).
    """
    best = 0.0
    for _ in range(reps):
        best = max(best, _measure_once(tier, factory, warm, timed))
    return best


def _measure_once(tier: str, factory, warm: int, timed: int) -> float:
    """One warm-up + timed measurement of one tier (accesses/second)."""
    _set_tier(tier)
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        spec = factory()
        workload = spec.instantiate(seed=3, base=CORE0_BASE)
        core = chip.core(0)
        for _ in range(warm):
            core.run(workload, DEFAULT_BUDGET)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=CORE0_BASE)
        start = time.perf_counter()
        accesses_before = core.accesses_issued
        for _ in range(timed):
            core.run(workload, DEFAULT_BUDGET)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=CORE0_BASE)
        elapsed = time.perf_counter() - start
        return (core.accesses_issued - accesses_before) / elapsed
    finally:
        _clear_tier()


def budget_batch(factory) -> int:
    """Accesses one default budget buys on a warm kernel-tier core."""
    _set_tier("kernel")
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        workload = factory().instantiate(seed=3, base=CORE0_BASE)
        core = chip.core(0)
        for _ in range(3):
            before = core.accesses_issued
            core.run(workload, DEFAULT_BUDGET)
        return core.accesses_issued - before
    finally:
        _clear_tier()


def _serve_once(path: str, factory, warm: int, timed: int,
                batch: int) -> float:
    """Accesses/second of one batched path serving ``batch``-sized
    batches of the workload's stream on a fresh kernel-tier chip.

    ``"vector"`` classifies each batch for the stream path and commits
    it, re-routing a declined batch (the stream's wrap-around) through
    ``access_many``; ``"kernel"`` hands every batch to ``access_many``.
    """
    _set_tier("kernel")
    try:
        from repro.arch.chip import MulticoreChip

        hierarchy = MulticoreChip(
            MachineConfig.scaled_nehalem(), seed=7
        ).hierarchy
        phase = factory().instantiate(seed=3, base=CORE0_BASE).current_phase()

        def serve() -> None:
            if path == "vector":
                addrs = phase.take_addresses_array(batch)
                plan = hierarchy.vector_classify(0, addrs)
                if plan is not None and \
                        hierarchy.vector_commit(0, plan, batch):
                    return
                addrs = addrs.tolist()
            else:
                addrs = phase.take_addresses(batch)
            hierarchy.access_many(0, addrs)

        for _ in range(warm):
            serve()
        start = time.perf_counter()
        for _ in range(timed):
            serve()
        return timed * batch / (time.perf_counter() - start)
    finally:
        _clear_tier()


def measure_vector_gate(factory, warm: int, timed: int, reps: int) -> dict:
    """The stream path against the bulk kernel on the same batches.

    Reps alternate between the two paths, so scheduler drift hits both
    sides of the ratio alike; each side keeps its best rep.
    """
    batch = budget_batch(factory)
    best = {"kernel": 0.0, "vector": 0.0}
    for _ in range(reps):
        for path in best:
            best[path] = max(
                best[path], _serve_once(path, factory, warm, timed, batch)
            )
    return {
        "batch": batch,
        "kernel": best["kernel"],
        "vector": best["vector"],
        "vector_over_kernel": best["vector"] / best["kernel"],
    }


def run_suite(warm: int, timed: int, reps: int) -> list[dict]:
    """One row per workload: tier throughputs, ratios, gate data."""
    rows = []
    for name, (factory, kernel_gated, vector_gated) in WORKLOADS.items():
        tiers = {
            tier: measure(tier, factory, warm, timed, reps)
            for tier in TIERS
        }
        rows.append({
            "workload": name,
            "kernel_gated": kernel_gated,
            "tiers": tiers,
            "ratios": {
                "kernel_over_generic":
                    tiers["kernel"] / tiers["generic"],
            },
            "vector_gate": (
                measure_vector_gate(factory, warm, timed, reps)
                if vector_gated else None
            ),
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'generic/s':>10} {'kernel/s':>10} {'k/g':>6}"
    ]
    for row in rows:
        t, r = row["tiers"], row["ratios"]
        lines.append(
            f"{row['workload']:<14} {t['generic']:>10.0f} "
            f"{t['kernel']:>10.0f} "
            f"{r['kernel_over_generic']:>5.2f}x"
        )
        gate = row.get("vector_gate")
        if gate is not None:
            lines.append(
                f"{'':<14} vector gate @ {gate['batch']}-access "
                f"batches: bulk kernel {gate['kernel']:.0f}/s, stream "
                f"path {gate['vector']:.0f}/s "
                f"({gate['vector_over_kernel']:.2f}x)"
            )
    return "\n".join(lines)


def check_gates(rows: list[dict], smoke: bool) -> list[str]:
    """Gate failures for the suite; empty when everything passes."""
    failures = []
    for row in rows:
        name, r = row["workload"], row["ratios"]
        gate = row.get("vector_gate")
        if gate is not None and gate["vector_over_kernel"] <= 1.0:
            failures.append(
                f"{name}: vector slower than kernel "
                f"({gate['vector_over_kernel']:.2f}x on "
                f"{gate['batch']}-access batches)"
            )
        if smoke:
            # CI machines are noisy: sanity ordering only, using the
            # ratio with structural (>= 2x) margin.
            if r["kernel_over_generic"] <= 1.0:
                failures.append(
                    f"{name}: kernel slower than generic "
                    f"({r['kernel_over_generic']:.2f}x)"
                )
            continue
        if row["kernel_gated"] and \
                r["kernel_over_generic"] < KERNEL_OVER_GENERIC_TARGET:
            failures.append(
                f"{name}: kernel {r['kernel_over_generic']:.2f}x "
                f"below the {KERNEL_OVER_GENERIC_TARGET}x "
                f"over-generic target"
            )
    return failures


class Verdict(NamedTuple):
    """An overhead gate's decision and the numbers behind it."""

    outcome: str  # "pass", "fail" or "UNRESOLVED"
    n: int
    median: float
    low: float
    high: float


def median_interval(values: Sequence[float]) -> tuple[float, float]:
    """The median's distribution-free :data:`CONFIDENCE` interval.

    With ``B ~ Binomial(n, 1/2)`` counting the values below the true
    median, the k-th smallest to the k-th largest value cover it with
    probability ``1 - 2 P(B < k)``; the interval uses the largest k
    that keeps this at or above :data:`CONFIDENCE`.  Fewer than six
    values admit no such k, and the interval is unbounded.
    """
    ordered = sorted(values)
    n = len(ordered)
    below = 0.0  # P(B < k)
    k = 0
    while below + comb(n, k) / 2 ** n <= (1.0 - CONFIDENCE) / 2:
        below += comb(n, k) / 2 ** n
        k += 1
    if k == 0:
        return -inf, inf
    return ordered[k - 1], ordered[n - k]


def judge(overheads: Sequence[float], bound: float) -> Verdict:
    """Judge per-pair overheads (on/off - 1) against ``bound``.

    Pass when the median's interval lies below the bound, fail when it
    lies at or above it, and ``UNRESOLVED`` when it straddles the
    bound — an interval whose upper end equals the bound never passes.
    """
    low, high = median_interval(overheads)
    if high < bound:
        outcome = "pass"
    elif low >= bound:
        outcome = "fail"
    else:
        outcome = "UNRESOLVED"
    return Verdict(outcome, len(overheads), median(overheads), low, high)


def _cpu_seconds(work: Callable[[], object]) -> float:
    """Process CPU seconds of ``work()``, from a collected heap."""
    gc.collect()
    start = time.process_time()
    work()
    return time.process_time() - start


def paired_overheads(
    off: Callable[[], float], on: Callable[[], float], pairs: int
) -> list[float]:
    """``on``/``off`` - 1 over ``pairs`` interleaved pairs of units.

    Each unit returns its own CPU seconds.  Pairs alternate which side
    runs first, so warm-up and drift within a pair favour neither.
    """
    overheads = []
    for pair in range(pairs):
        seconds = {}
        for unit in ((off, on) if pair % 2 == 0 else (on, off)):
            seconds[unit] = unit()
        overheads.append(seconds[on] / seconds[off] - 1.0)
    return overheads


def _engine_unit(traced: bool, length: float) -> float:
    """CPU seconds of one mcf/shutter co-located engine run."""
    from repro.caer.runtime import CaerConfig, caer_factory
    from repro.obs import RingBufferSink, Tracer
    from repro.sim import run_colocated
    from repro.workloads import benchmark

    machine = MachineConfig.scaled_nehalem()
    l3 = machine.l3.capacity_lines
    ls = benchmark("429.mcf", l3, length=length)
    batch = benchmark("470.lbm", l3, length=length)
    tracer = Tracer([RingBufferSink(1 << 20)]) if traced else None
    return _cpu_seconds(lambda: run_colocated(
        ls, batch, machine,
        caer_factory=caer_factory(CaerConfig.shutter()),
        tracer=tracer,
    ))


def measure_trace_overhead() -> list[float]:
    """Per-pair overhead of a fully traced engine run.

    Tracing emits a handful of events per probe period against ~40 K
    simulated cycles of simulation work: about 1% on a 2-vCPU VM, under
    the 2% budget.  The pairs and the median's interval keep the host's
    jitter from deciding the gate either way.
    """
    _engine_unit(False, TRACE_RUN_LENGTH)  # warm caches and imports
    return paired_overheads(
        lambda: _engine_unit(False, TRACE_RUN_LENGTH),
        lambda: _engine_unit(True, TRACE_RUN_LENGTH),
        OVERHEAD_PAIRS,
    )


def _stream_unit(registry=None) -> float:
    """CPU seconds of kernel-tier stream-llc ``core.run`` calls.

    With ``registry`` the calls execute inside ``activate_profiling``,
    so the stream path's classify/commit spans are live — the
    per-batch cost the export gate must bound.
    """
    from contextlib import nullcontext

    from repro.arch.chip import MulticoreChip
    from repro.obs import activate_profiling

    chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
    spec = WORKLOADS["stream-llc"][0]()
    workload = spec.instantiate(seed=3, base=CORE0_BASE)
    core = chip.core(0)

    def calls(count: int) -> None:
        nonlocal workload
        for _ in range(count):
            core.run(workload, DEFAULT_BUDGET)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=CORE0_BASE)

    calls(3)
    scope = (
        activate_profiling(registry) if registry is not None
        else nullcontext()
    )
    with scope:
        return _cpu_seconds(lambda: calls(EXPORT_RUN_CALLS))


def measure_export_overhead() -> list[float]:
    """Per-pair overhead of span profiling under live export.

    Both sides run on the kernel tier while a ``/metrics`` endpoint
    serves the registry and a background scraper polls it every 50 ms;
    the "on" side also arms span profiling, so classify/commit spans
    fire on every stream-path batch.  CPU time counts every thread of
    the process, the endpoint's and the scraper's included.
    """
    import threading
    import urllib.request

    from repro.obs import MetricsExporter, MetricsRegistry

    _set_tier("kernel")
    try:
        _stream_unit()  # warm caches and imports
        registry = MetricsRegistry()
        stop = threading.Event()
        with MetricsExporter(registry.snapshot, port=0) as exporter:

            def scraper() -> None:
                while not stop.is_set():
                    try:
                        urllib.request.urlopen(
                            exporter.url, timeout=2
                        ).read()
                    except OSError:
                        pass
                    stop.wait(0.05)

            thread = threading.Thread(target=scraper, daemon=True)
            thread.start()
            try:
                return paired_overheads(
                    _stream_unit, lambda: _stream_unit(registry),
                    OVERHEAD_PAIRS,
                )
            finally:
                stop.set()
                thread.join(timeout=2.0)
    finally:
        _clear_tier()


def report_overhead(what: str, overheads: list[float],
                    bound: float) -> int:
    """Print an overhead gate's verdict; the exit status is 0 on pass."""
    verdict = judge(overheads, bound)
    print(
        f"{what} overhead: {verdict.outcome} — n={verdict.n} pairs, "
        f"median {verdict.median:+.2%}, "
        f"{CONFIDENCE:.0%} interval [{verdict.low:+.2%}, "
        f"{verdict.high:+.2%}], bound {bound:.0%}"
    )
    return 0 if verdict.outcome == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator throughput and observability-overhead "
                    "gates"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="short run: tier-ordering sanity only, no absolute gates",
    )
    mode.add_argument(
        "--trace-overhead",
        action="store_true",
        help=(
            "instead of the throughput suite, judge the tracing "
            f"overhead of a full engine run (must be < "
            f"{TRACE_OVERHEAD_TARGET * 100:.0f}%%)"
        ),
    )
    mode.add_argument(
        "--export-overhead",
        action="store_true",
        help=(
            "instead of the throughput suite, judge the overhead of "
            "span profiling under a served and scraped /metrics "
            f"endpoint on stream-llc (must be < "
            f"{EXPORT_OVERHEAD_TARGET * 100:.0f}%%)"
        ),
    )
    args = parser.parse_args(argv)

    if args.trace_overhead:
        return report_overhead(
            "tracing", measure_trace_overhead(), TRACE_OVERHEAD_TARGET
        )
    if args.export_overhead:
        return report_overhead(
            "live-export", measure_export_overhead(),
            EXPORT_OVERHEAD_TARGET,
        )

    rows = run_suite(*(SMOKE_RUNS if args.smoke else FULL_RUNS))
    print(render(rows))
    failures = check_gates(rows, smoke=args.smoke)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(
        "OK"
        if args.smoke
        else (
            f"OK: kernel >= {KERNEL_OVER_GENERIC_TARGET}x generic, "
            f"stream path ahead of the bulk kernel"
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

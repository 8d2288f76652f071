"""Simulator throughput across the execution tiers.

Measures raw access throughput (simulated memory accesses per wall
second) of one core driving the scaled-Nehalem hierarchy for each
execution tier:

* **generic** (``REPRO_FAST_LANE=0``) — the reference path: virtual
  policy dispatch and exception-based probing on every access;
* **fastlane** (``REPRO_FAST_LANE=1 REPRO_BULK_KERNEL=0``) — the
  first-generation fast lane: batched address generation, inlined
  list-based LRU verbs, scalar hierarchy walks;
* **kernel** (``REPRO_FAST_LANE=1 REPRO_BULK_KERNEL=1``, the default)
  — every LRU set an ordered dict (owner masks as the L3's values),
  whole batches served by the bulk kernel (``access_many``) or, for
  cold ascending streams, by the stream path (``vector_classify`` /
  ``vector_commit``).

All tiers produce bit-identical results (the differential suites in
``tests/arch/test_bulk_kernel.py`` and ``tests/arch/test_owner_store.py``
and the pinned outcomes in ``tests/golden`` prove it); only wall-clock
differs.

The **vector gate** pits the kernel tier's two batched paths against
each other on ``stream-llc`` (the 4-repeat stream shape of ``lbm``):
fresh chips serve the same address batches through the stream path
and through ``access_many``, at the batch size one default budget buys
on that workload.  It is an ordering check — the stream path must beat
the dict kernel it bypasses — in smoke and full runs alike.

Run standalone for the acceptance check::

    PYTHONPATH=src python benchmarks/bench_simspeed.py
    PYTHONPATH=src python benchmarks/bench_simspeed.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_simspeed.py \
        --json BENCH_simspeed.json --append
    PYTHONPATH=src python benchmarks/bench_simspeed.py --profile

``--append`` accumulates a perf trajectory: the JSON file holds a
``points`` list and every run appends one comparable point (a
schema-1 single-point file is migrated in place).

or through pytest (smoke-sized, sanity ordering only)::

    pytest benchmarks/bench_simspeed.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import MachineConfig
from repro.workloads import synthetic

#: Version of the ``--json`` schema; bump when fields change meaning.
#: Schema 2 turned the file into a trajectory: a ``points`` list of
#: comparable measurement snapshots (schema 1 was one bare snapshot).
SCHEMA_VERSION = 2

#: PR1 gate, kept: fast lane vs. generic on streaming workloads.
STREAMING_TARGET = 1.8

#: Kernel gates, applied to the streaming benchmark (``stream-llc``).
KERNEL_OVER_FASTLANE_TARGET = 1.7
KERNEL_OVER_GENERIC_TARGET = 3.0

#: Maximum allowed slowdown of a fully traced engine run (ring-buffer
#: sink) over an untraced one.
TRACE_OVERHEAD_TARGET = 0.02

#: Maximum allowed slowdown of the full live-export stack — span
#: profiling armed, ``/metrics`` endpoint serving, a scraper hitting
#: it — over a bare run of the same workload.
EXPORT_OVERHEAD_TARGET = 0.02

#: Cycle budget of one ``core.run`` call in the main table.
DEFAULT_BUDGET = 40_000.0

#: Environment variables a tier tuple maps onto, in order.
_ENV_KEYS = ("REPRO_FAST_LANE", "REPRO_BULK_KERNEL")

#: tier -> (REPRO_FAST_LANE, REPRO_BULK_KERNEL).
TIERS = {
    "generic": ("0", "0"),
    "fastlane": ("1", "0"),
    "kernel": ("1", "1"),
}

#: name -> (factory, streaming gate applies, kernel gates apply,
#: vector gate applies).  ``stream-llc`` is *the* streaming benchmark
#: of the acceptance criteria: a cyclic sweep well past the L3, every
#: fourth access a fresh line.  ``stream-l2`` stresses the L3-hit walk
#: (informational for the kernel gates: the walk is a handful of
#: C-level operations either way, so the batched win is structurally
#: smaller there).  ``pointer-chase`` is informational: its batches
#: are never ascending, so the dict kernel serves them all.
WORKLOADS = {
    "stream-llc": (
        lambda: synthetic.streamer(lines=70_000, instructions=1e9),
        True,
        True,
        True,
    ),
    "stream-l2": (
        lambda: synthetic.streamer(lines=512, instructions=1e9),
        True,
        False,
        False,
    ),
    "pointer-chase": (
        lambda: synthetic.pointer_chaser(lines=70_000, instructions=1e9),
        False,
        False,
        False,
    ),
}


def _set_tier(tier: str) -> None:
    for key, value in zip(_ENV_KEYS, TIERS[tier]):
        os.environ[key] = value


def _clear_tier() -> None:
    for key in _ENV_KEYS:
        os.environ.pop(key, None)


def measure(
    tier: str,
    factory,
    warm: int,
    timed: int,
    budget: float = DEFAULT_BUDGET,
    reps: int = 3,
) -> float:
    """Best-of-``reps`` accesses/second for one execution tier.

    The gates are read at object construction, so the chip is built
    after setting the environment; the workload restarts when it
    finishes so the measured stream is steady-state.  Best-of-N is the
    standard defence against interpreter and scheduler noise (only
    slowdowns are spurious).
    """
    best = 0.0
    for _ in range(max(1, reps)):
        best = max(best, _measure_once(tier, factory, warm, timed, budget))
    return best


def _measure_once(
    tier: str, factory, warm: int, timed: int, budget: float
) -> float:
    """One warm-up + timed measurement of one tier (accesses/second)."""
    _set_tier(tier)
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        spec = factory()
        workload = spec.instantiate(seed=3, base=1 << 34)
        core = chip.core(0)
        for _ in range(warm):
            core.run(workload, budget)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        start = time.perf_counter()
        accesses_before = core.accesses_issued
        for _ in range(timed):
            core.run(workload, budget)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        elapsed = time.perf_counter() - start
        return (core.accesses_issued - accesses_before) / elapsed
    finally:
        _clear_tier()


def budget_batch(factory, budget: float = DEFAULT_BUDGET) -> int:
    """Accesses one ``budget`` buys on a warm kernel-tier core."""
    _set_tier("kernel")
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        workload = factory().instantiate(seed=3, base=1 << 34)
        core = chip.core(0)
        for _ in range(3):
            before = core.accesses_issued
            core.run(workload, budget)
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
        phase = factory().instantiate(seed=3, base=1 << 34).current_phase()

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


def measure_vector_gate(factory, warm: int, timed: int,
                        reps: int = 3) -> dict:
    """The stream path against the dict kernel on the same batches.

    Reps alternate between the two paths, so scheduler drift hits both
    sides of the ratio alike; each side keeps its best rep.
    """
    batch = budget_batch(factory)
    best = {"kernel": 0.0, "vector": 0.0}
    for _ in range(max(1, reps)):
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


def run_suite(warm: int, timed: int, reps: int = 3) -> list[dict]:
    """One row per workload: tier throughputs, ratios, gate data."""
    rows = []
    for name, (factory, is_streaming, kernel_gated,
               vector_gated) in WORKLOADS.items():
        tiers = {
            tier: measure(tier, factory, warm, timed, reps=reps)
            for tier in TIERS
        }
        rows.append({
            "workload": name,
            "streaming": is_streaming,
            "kernel_gated": kernel_gated,
            "tiers": tiers,
            "ratios": {
                "fastlane_over_generic":
                    tiers["fastlane"] / tiers["generic"],
                "kernel_over_fastlane":
                    tiers["kernel"] / tiers["fastlane"],
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
        f"{'workload':<14} {'generic/s':>10} {'fastlane/s':>10} "
        f"{'kernel/s':>10} {'f/g':>6} {'k/f':>6} {'k/g':>6}"
    ]
    for row in rows:
        t, r = row["tiers"], row["ratios"]
        lines.append(
            f"{row['workload']:<14} {t['generic']:>10.0f} "
            f"{t['fastlane']:>10.0f} {t['kernel']:>10.0f} "
            f"{r['fastlane_over_generic']:>5.2f}x "
            f"{r['kernel_over_fastlane']:>5.2f}x "
            f"{r['kernel_over_generic']:>5.2f}x"
        )
        gate = row.get("vector_gate")
        if gate is not None:
            lines.append(
                f"{'':<14} vector gate @ {gate['batch']}-access "
                f"batches: dict kernel {gate['kernel']:.0f}/s, stream "
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
            # ratios with structural (>= 2x) margin.
            if r["fastlane_over_generic"] <= 1.0:
                failures.append(
                    f"{name}: fastlane slower than generic "
                    f"({r['fastlane_over_generic']:.2f}x)"
                )
            if r["kernel_over_generic"] <= 1.0:
                failures.append(
                    f"{name}: kernel slower than generic "
                    f"({r['kernel_over_generic']:.2f}x)"
                )
            if row["kernel_gated"] and r["kernel_over_fastlane"] <= 1.0:
                failures.append(
                    f"{name}: kernel slower than fastlane "
                    f"({r['kernel_over_fastlane']:.2f}x)"
                )
            continue
        if row["streaming"] and \
                r["fastlane_over_generic"] < STREAMING_TARGET:
            failures.append(
                f"{name}: fastlane {r['fastlane_over_generic']:.2f}x "
                f"below the {STREAMING_TARGET}x streaming target"
            )
        if row["kernel_gated"]:
            if r["kernel_over_fastlane"] < KERNEL_OVER_FASTLANE_TARGET:
                failures.append(
                    f"{name}: kernel {r['kernel_over_fastlane']:.2f}x "
                    f"below the {KERNEL_OVER_FASTLANE_TARGET}x "
                    f"over-fastlane target"
                )
            if r["kernel_over_generic"] < KERNEL_OVER_GENERIC_TARGET:
                failures.append(
                    f"{name}: kernel {r['kernel_over_generic']:.2f}x "
                    f"below the {KERNEL_OVER_GENERIC_TARGET}x "
                    f"over-generic target"
                )
    return failures


def build_point(rows: list[dict], warm: int, timed: int,
                reps: int) -> dict:
    """One comparable trajectory point (see docs/performance.md)."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "machine_config": "scaled_nehalem",
            "budget_cycles": int(DEFAULT_BUDGET),
            "warm": warm,
            "timed": timed,
            "reps": reps,
        },
        "targets": {
            "streaming_fastlane_over_generic": STREAMING_TARGET,
            "kernel_over_fastlane": KERNEL_OVER_FASTLANE_TARGET,
            "kernel_over_generic": KERNEL_OVER_GENERIC_TARGET,
        },
        # Which REPRO_* tier flags each measured column ran under —
        # without this, trajectory points from different builds are
        # not comparable (a "kernel" column meant flat arrays without
        # the numpy tier before the ordered-dict sets).
        "kernel_gates": {
            name: dict(zip(
                ("fast_lane", "bulk_kernel"),
                (value == "1" for value in env),
            ))
            for name, env in TIERS.items()
        },
        "workloads": {
            row["workload"]: {
                "streaming": row["streaming"],
                "kernel_gated": row["kernel_gated"],
                "tiers": row["tiers"],
                "ratios": row["ratios"],
                "vector_gate": row.get("vector_gate"),
            }
            for row in rows
        },
    }


def build_report(points: list[dict]) -> dict:
    """The ``--json`` payload: a trajectory of comparable points."""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "bench_simspeed",
        "points": points,
    }


def migrate_points(report: dict) -> list[dict]:
    """Existing-file contents -> its trajectory points.

    Schema 1 was a single bare snapshot: it becomes point zero of the
    trajectory, its fields carried over untouched (the tier and ratio
    keys it lacks simply stay absent — consumers key off what is
    present).  Schema 2 files return their ``points`` list as is.
    """
    if report.get("schema_version") == SCHEMA_VERSION:
        return list(report["points"])
    point = {
        key: value for key, value in report.items()
        if key not in ("schema_version", "benchmark")
    }
    return [point]


def write_report(path: Path, rows: list[dict], warm: int, timed: int,
                 reps: int, append: bool) -> int:
    """Write (or extend) the trajectory file; return its point count."""
    point = build_point(rows, warm, timed, reps)
    points = [point]
    if append and path.exists():
        points = migrate_points(json.loads(path.read_text())) + [point]
    path.write_text(json.dumps(build_report(points), indent=2) + "\n")
    return len(points)


def profile_streaming_run(top: int = 20) -> None:
    """cProfile one kernel-tier streaming run; print top ``top`` by
    cumulative time — the shopping list for future hot-path work."""
    import cProfile
    import pstats

    _set_tier("kernel")
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        spec = WORKLOADS["stream-llc"][0]()
        workload = spec.instantiate(seed=3, base=1 << 34)
        core = chip.core(0)
        for _ in range(5):  # warm imports and caches outside the profile
            core.run(workload, 40_000.0)
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(50):
            core.run(workload, 40_000.0)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)
    finally:
        _clear_tier()


def _timed_engine_run(tracer=None, length: float = 0.05) -> float:
    """Seconds for one traced or untraced mcf/shutter co-located run."""
    from repro.caer.runtime import CaerConfig, caer_factory
    from repro.sim import run_colocated
    from repro.workloads import benchmark

    machine = MachineConfig.scaled_nehalem()
    l3 = machine.l3.capacity_lines
    ls = benchmark("429.mcf", l3, length=length)
    batch = benchmark("470.lbm", l3, length=length)
    start = time.perf_counter()
    run_colocated(
        ls, batch, machine,
        caer_factory=caer_factory(CaerConfig.shutter()),
        tracer=tracer,
    )
    return time.perf_counter() - start


def measure_trace_overhead(
    repeats: int = 9, length: float = 0.05
) -> tuple[float, float, float]:
    """(untraced_s, traced_s, overhead_fraction), best-of-``repeats``.

    Tracing emits a handful of events per probe period against ~40 K
    simulated cycles of simulation work, so the true overhead is well
    under the 2% budget — but single-run wall times on a busy host
    jitter by far more than that.  Two noise defences: runs are
    interleaved (untraced, traced, untraced, ...) so scheduler and
    thermal drift hit both sides alike, and the reported overhead is
    the *lower* of two estimators — best-of-N ratio and median paired
    ratio.  Either alone can be inflated a few percent by one noisy
    window; a genuine emission-cost regression inflates both, so the
    gate still catches it.
    """
    from statistics import median

    from repro.obs import RingBufferSink, Tracer

    _timed_engine_run(None, length)  # warm caches and imports
    untraced_times = []
    traced_times = []
    for _ in range(repeats):
        untraced_times.append(_timed_engine_run(None, length))
        traced_times.append(
            _timed_engine_run(Tracer([RingBufferSink(1 << 20)]), length)
        )
    untraced = min(untraced_times)
    traced = min(traced_times)
    min_ratio = traced / untraced - 1.0
    median_pair = median(
        t / u for t, u in zip(traced_times, untraced_times)
    ) - 1.0
    return untraced, traced, min(min_ratio, median_pair)


def _timed_stream_run(
    registry=None, runs: int = 150, budget: float = DEFAULT_BUDGET
) -> float:
    """Seconds for ``runs`` kernel-tier stream-llc ``core.run`` calls.

    With ``registry`` the run executes inside ``activate_profiling``,
    so the stream path's classify/commit spans are live — the
    per-batch cost the export gate must bound.
    """
    from contextlib import nullcontext

    from repro.arch.chip import MulticoreChip
    from repro.obs import activate_profiling

    chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
    spec = WORKLOADS["stream-llc"][0]()
    workload = spec.instantiate(seed=3, base=1 << 34)
    core = chip.core(0)
    for _ in range(3):
        core.run(workload, budget)
        if workload.finished:
            workload = spec.instantiate(seed=3, base=1 << 34)
    scope = (
        activate_profiling(registry) if registry is not None
        else nullcontext()
    )
    with scope:
        start = time.perf_counter()
        for _ in range(runs):
            core.run(workload, budget)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        return time.perf_counter() - start


def measure_export_overhead(
    repeats: int = 9, runs: int = 150
) -> tuple[float, float, float]:
    """(off_s, on_s, overhead_fraction) for the live-export stack.

    The "on" world is the whole subsystem at once: span profiling
    armed over the kernel tier (classify/commit spans firing every
    batch), a ``/metrics`` endpoint serving the registry, and a
    background scraper polling it throughout — the worst realistic
    cost of watching a campaign live.  Noise defences as in
    :func:`measure_trace_overhead`: interleaved runs and the lower of
    the best-of-N and median-paired estimators.
    """
    import threading
    import urllib.request
    from statistics import median

    from repro.obs import MetricsExporter, MetricsRegistry

    _set_tier("kernel")
    try:
        _timed_stream_run(runs=runs)  # warm caches and imports
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
                off_times = []
                on_times = []
                for _ in range(repeats):
                    off_times.append(_timed_stream_run(runs=runs))
                    on_times.append(
                        _timed_stream_run(registry, runs=runs)
                    )
            finally:
                stop.set()
                thread.join(timeout=2.0)
        off = min(off_times)
        on = min(on_times)
        min_ratio = on / off - 1.0
        median_pair = median(
            t / u for t, u in zip(on_times, off_times)
        ) - 1.0
        return off, on, min(min_ratio, median_pair)
    finally:
        _clear_tier()


def record_export_overhead(path: Path, payload: dict) -> bool:
    """Attach the export-overhead result to the trajectory's last point.

    The measurement annotates the most recent throughput point (it
    describes the same build) rather than appending a tier-less point
    of its own.  Returns ``False`` when the file is absent or empty.
    """
    if not path.exists():
        return False
    report = json.loads(path.read_text())
    points = migrate_points(report)
    if not points:
        return False
    points[-1]["export_overhead"] = payload
    path.write_text(json.dumps(build_report(points), indent=2) + "\n")
    return True


def bench_simspeed_smoke():
    """Pytest entry: tier ordering must hold (no absolute thresholds)."""
    rows = run_suite(warm=3, timed=10, reps=1)
    print(render(rows))
    failures = check_gates(rows, smoke=True)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator hot-path throughput benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short run: tier-ordering sanity only, no absolute gates",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as JSON to PATH "
             "(format: docs/performance.md)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append this run as a new point to the --json trajectory "
             "instead of overwriting it (schema-1 files are migrated)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="instead of the suite, cProfile one kernel-tier streaming "
             "run and print the top-20 cumulative functions",
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help=(
            "instead of the throughput suite, measure the tracing "
            f"overhead of a full engine run (must be < "
            f"{TRACE_OVERHEAD_TARGET:.0%})"
        ),
    )
    parser.add_argument(
        "--export-overhead",
        action="store_true",
        help=(
            "instead of the throughput suite, measure the live-export "
            "overhead (span profiling + served + scraped /metrics) on "
            f"stream-llc (must be < {EXPORT_OVERHEAD_TARGET:.0%}); "
            "with --json, the result annotates the trajectory's last "
            "point"
        ),
    )
    parser.add_argument("--warm", type=int, default=None,
                        help="warm-up run() calls per measurement")
    parser.add_argument("--timed", type=int, default=None,
                        help="timed run() calls per measurement")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per measurement (best-of)")
    args = parser.parse_args(argv)

    if args.profile:
        profile_streaming_run()
        return 0

    if args.trace_overhead:
        untraced, traced, overhead = measure_trace_overhead()
        print(
            f"engine run: untraced {untraced * 1000:.1f} ms, traced "
            f"{traced * 1000:.1f} ms, overhead {overhead:+.2%}"
        )
        if overhead >= TRACE_OVERHEAD_TARGET:
            print(
                f"FAIL: tracing overhead {overhead:.2%} >= "
                f"{TRACE_OVERHEAD_TARGET:.0%} budget"
            )
            return 1
        print(f"OK: tracing overhead < {TRACE_OVERHEAD_TARGET:.0%}")
        return 0

    if args.export_overhead:
        off, on, overhead = measure_export_overhead()
        print(
            f"stream-llc kernel tier: bare {off * 1000:.1f} ms, "
            f"live-export {on * 1000:.1f} ms, overhead {overhead:+.2%}"
        )
        if args.json:
            recorded = record_export_overhead(Path(args.json), {
                "workload": "stream-llc",
                "tier": "kernel",
                "bare_seconds": off,
                "exported_seconds": on,
                "overhead_fraction": overhead,
                "target": EXPORT_OVERHEAD_TARGET,
            })
            print(
                f"annotated last point of {args.json}"
                if recorded
                else f"no trajectory at {args.json} to annotate"
            )
        if overhead >= EXPORT_OVERHEAD_TARGET:
            print(
                f"FAIL: live-export overhead {overhead:.2%} >= "
                f"{EXPORT_OVERHEAD_TARGET:.0%} budget"
            )
            return 1
        print(
            f"OK: live-export overhead < {EXPORT_OVERHEAD_TARGET:.0%}"
        )
        return 0

    warm = args.warm if args.warm is not None else (3 if args.smoke else 10)
    timed = (
        args.timed if args.timed is not None else (10 if args.smoke else 40)
    )
    reps = args.reps if args.reps is not None else (1 if args.smoke else 3)
    rows = run_suite(warm, timed, reps)
    print(render(rows))

    if args.json:
        count = write_report(
            Path(args.json), rows, warm, timed, reps, args.append
        )
        print(f"wrote {args.json} ({count} point(s))")

    failures = check_gates(rows, smoke=args.smoke)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(
        "OK"
        if args.smoke
        else (
            f"OK: streaming fastlane >= {STREAMING_TARGET}x, kernel >= "
            f"{KERNEL_OVER_FASTLANE_TARGET}x fastlane / "
            f"{KERNEL_OVER_GENERIC_TARGET}x generic, stream path ahead "
            f"of the dict kernel"
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

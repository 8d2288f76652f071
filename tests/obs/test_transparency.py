"""Trace and metrics shape: what observing a run records.

That observing a run never changes it is pinned in ``tests/golden``:
its pinned outcomes hold with a tracer attached and with live export
serving.  This module checks what the observers record — one
detection event per governed period, and period counters that match
the run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caer.runtime import caer_factory
from repro.config import MachineConfig
from repro.experiments.campaign import resolve_caer_config
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.sim import run_colocated
from repro.sim.scenario import colocation_processes
from repro.statistical import StatisticalEngine
from repro.workloads import benchmark

LENGTH = 0.02


def _run(bench: str, config: str, seed: int, tracer=None, metrics=None,
         backend: str = "sim"):
    machine = MachineConfig.tiny()
    l3 = machine.l3.capacity_lines
    ls = benchmark(bench, l3, length=LENGTH)
    batch = benchmark("470.lbm", l3, length=LENGTH)
    caer = resolve_caer_config(config)
    if backend == "sim":
        return run_colocated(
            ls, batch, machine,
            caer_factory=caer_factory(caer) if caer else None,
            seed=seed,
            tracer=tracer,
            metrics=metrics,
        )
    engine = StatisticalEngine(
        machine, colocation_processes(ls, [batch], seed=seed),
        tracer=tracer, metrics=metrics,
    )
    if caer:
        engine.period_hooks.append(caer_factory(caer)(engine))
    return engine.run()


@given(
    config=st.sampled_from(["shutter", "rule"]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=6, deadline=None)
def test_detection_event_per_governed_period(config, seed):
    """Every period the CAER hook runs emits exactly one DetectionEvent."""
    ring = RingBufferSink(1 << 20)
    result = _run(
        "429.mcf", config, seed, tracer=Tracer([ring])
    )
    detections = ring.by_kind("detection")
    assert len(detections) == result.total_periods
    assert [e.period for e in detections] == list(range(result.total_periods))


def test_metrics_count_every_period():
    # The period loop is shared, so its counters hold on both backends.
    for backend in ("sim", "statistical"):
        metrics = MetricsRegistry()
        result = _run(
            "429.mcf", "shutter", seed=1, metrics=metrics, backend=backend
        )
        snap = metrics.snapshot()
        assert snap["caer.periods"]["value"] == result.total_periods
        assert snap["sim.periods"]["value"] == result.total_periods

"""The statistical engine: API compatibility and behaviour."""

from __future__ import annotations

import pytest

from repro.analytic.mrc import profile_patterns
from repro.caer.metrics import slowdown, utilization_gained
from repro.caer.runtime import CaerConfig, caer_factory
from repro.config import MachineConfig
from repro.errors import SchedulingError
from repro.runspec import execute, execute_run, paper_run_spec
from repro.sim import run_colocated, run_multi_colocated, run_solo
from repro.sim.process import AppClass, ProcessState, SimProcess
from repro.statistical import StatisticalEngine
from repro.workloads import PhaseSpec, WorkloadSpec, benchmark, synthetic
from repro.workloads.patterns import TraceSpec

MACHINE = MachineConfig.scaled_nehalem()
L3 = MACHINE.l3.capacity_lines


class TestBasics:
    def test_solo_run_completes(self):
        result = run_solo(
            synthetic.zipf_worker(lines=2_000, instructions=400_000.0),
            MACHINE,
            backend="statistical",
        )
        ls = result.latency_sensitive()
        assert ls.first_completion_period is not None
        assert ls.instructions_retired == pytest.approx(
            400_000.0, rel=0.01
        )

    def test_series_recorded_per_period(self):
        result = run_solo(
            synthetic.streamer(lines=20_000, instructions=300_000.0),
            MACHINE,
            backend="statistical",
        )
        ls = result.latency_sensitive()
        assert len(ls.samples) == result.total_periods
        assert ls.total_llc_misses() > 0

    def test_heavier_workload_runs_longer(self):
        light = run_solo(
            synthetic.compute_bound(instructions=300_000.0), MACHINE,
            backend="statistical",
        )
        heavy = run_solo(
            synthetic.pointer_chaser(
                lines=3 * L3, instructions=300_000.0
            ),
            MACHINE,
            backend="statistical",
        )
        assert (
            heavy.latency_sensitive().completion_periods
            > 2 * light.latency_sensitive().completion_periods
        )

    def test_duplicate_core_rejected(self):
        with pytest.raises(SchedulingError):
            StatisticalEngine(
                MACHINE,
                [
                    SimProcess(synthetic.compute_bound(), 0, name="a"),
                    SimProcess(synthetic.compute_bound(), 0, name="b"),
                ],
            )


class TestContention:
    def test_streamer_slows_reuse_victim(self):
        victim = synthetic.zipf_worker(
            lines=int(0.8 * L3), alpha=0.5, instructions=400_000.0
        )
        contender = synthetic.streamer(
            lines=4 * L3, instructions=200_000.0
        )
        solo = run_solo(victim, MACHINE, backend="statistical")
        colo = run_colocated(victim, contender, MACHINE, backend="statistical")
        assert slowdown(colo, solo) > 1.1

    def test_compute_bound_victim_unharmed(self):
        victim = synthetic.compute_bound(instructions=400_000.0)
        contender = synthetic.streamer(
            lines=4 * L3, instructions=200_000.0
        )
        solo = run_solo(victim, MACHINE, backend="statistical")
        colo = run_colocated(victim, contender, MACHINE, backend="statistical")
        assert slowdown(colo, solo) < 1.05

    def test_paused_contender_footprint_decays(self):
        """The transient the shutter depends on exists here too."""
        victim = synthetic.zipf_worker(
            lines=int(0.8 * L3), alpha=0.5, instructions=500_000.0
        )
        contender = synthetic.streamer(
            lines=4 * L3, instructions=200_000.0
        )
        pauses = []

        def factory(engine):
            def hook(eng, period, samples):
                # Pause the batch for a long stretch mid-run.
                name = next(
                    n for n, p in eng.processes.items()
                    if p.app_class is AppClass.BATCH
                )
                eng.set_paused(name, 40 <= period < 90)
                pauses.append(samples)

            return hook

        result = run_colocated(
            victim, contender, MACHINE, caer_factory=factory,
            backend="statistical",
        )
        ls = result.latency_sensitive()
        series = ls.llc_miss_series()
        during_colo = sum(series[25:40]) / 15
        after_recovery = sum(series[70:90]) / 20
        # With the contender parked, the victim reclaims cache and its
        # misses fall substantially.
        assert after_recovery < 0.7 * during_colo


class TestCaerOnStatisticalEngine:
    def test_rule_based_protects(self):
        mcf = benchmark("429.mcf", L3, length=0.5)
        lbm = benchmark("470.lbm", L3, length=0.5)
        solo = run_solo(mcf, MACHINE, backend="statistical")
        raw = run_colocated(mcf, lbm, MACHINE, backend="statistical")
        managed = run_colocated(
            mcf, lbm, MACHINE,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            backend="statistical",
        )
        # The statistical model underestimates mcf's absolute penalty
        # (no inclusion victims, no set conflicts) but must keep the
        # ordinal story: a real raw penalty, removed by CAER.
        raw_penalty = slowdown(raw, solo) - 1.0
        managed_penalty = slowdown(managed, solo) - 1.0
        assert raw_penalty > 0.05
        assert managed_penalty < 0.6 * raw_penalty
        assert utilization_gained(managed) < 0.3

    def test_insensitive_victim_keeps_utilization(self):
        namd = benchmark("444.namd", L3, length=0.5)
        lbm = benchmark("470.lbm", L3, length=0.5)
        managed = run_colocated(
            namd, lbm, MACHINE,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            backend="statistical",
        )
        assert utilization_gained(managed) > 0.6

    def test_batch_actually_pauses(self):
        mcf = benchmark("429.mcf", L3, length=0.4)
        lbm = benchmark("470.lbm", L3, length=0.4)
        managed = run_colocated(
            mcf, lbm, MACHINE,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            batch_name="batch",
            backend="statistical",
        )
        assert ProcessState.PAUSED in managed.process("batch").states
        assert managed.caer_log

    def test_contender_group_obeys_one_directive(self):
        mcf = benchmark("429.mcf", L3, length=0.2)
        lbm = benchmark("470.lbm", L3, length=0.2)
        managed = run_multi_colocated(
            mcf, [lbm] * 3, MACHINE,
            caer_factory=caer_factory(CaerConfig.rule_based()),
            backend="statistical",
        )
        histories = [record.states for record in managed.batch_processes()]
        assert len(histories) == 3
        assert ProcessState.PAUSED in histories[0]
        assert histories[1] == histories[0]
        assert histories[2] == histories[0]


class TestCrossValidation:
    """The two engines must tell the same story."""

    @pytest.mark.parametrize(
        "name,band",
        [("429.mcf", (1.05, 2.0)), ("444.namd", (0.97, 1.08))],
    )
    def test_raw_slowdown_band_matches_trace_engine(self, name, band):
        spec = benchmark(name, L3, length=0.06)
        lbm = benchmark("470.lbm", L3, length=0.06)
        trace_solo = run_solo(spec, MACHINE)
        trace_colo = run_colocated(spec, lbm, MACHINE)
        trace = slowdown(trace_colo, trace_solo)
        fast_s = run_solo(spec, MACHINE, backend="statistical")
        fast_c = run_colocated(spec, lbm, MACHINE, backend="statistical")
        fast = slowdown(fast_c, fast_s)
        low, high = band
        assert low <= trace <= high or trace == pytest.approx(low, 0.1)
        assert low <= fast <= high

    def test_speedup_over_trace_engine(self):
        """The statistical engine must be far faster (typically ~30x;
        the bound is loose because wall-clock timing on a shared CI
        machine is noisy)."""
        import time

        spec = benchmark("429.mcf", L3, length=0.5)
        lbm = benchmark("470.lbm", L3, length=0.5)

        t0 = time.time()
        run_colocated(spec, lbm, MACHINE)
        trace_seconds = time.time() - t0
        # Time a cold build: profiles an earlier test left cached would
        # let the statistical run skip its only expensive step.
        profile_patterns.cache_clear()
        t0 = time.time()
        run_colocated(spec, lbm, MACHINE, backend="statistical")
        fast_seconds = time.time() - t0
        assert fast_seconds < trace_seconds / 4


class TestProfileCache:
    """Runs share cached phase profiles without changing any result."""

    @pytest.mark.parametrize(
        "victim", ["429.mcf", "403.gcc", "462.libquantum"]
    )
    def test_outcomes_equal_cold_and_warm(self, victim):
        specs = [
            paper_run_spec(
                victim, config, MACHINE, length=0.05, backend="statistical"
            )
            for config in ("solo", "raw", "rule")
        ]
        cold = []
        for spec in specs:
            profile_patterns.cache_clear()
            cold.append(execute_run(spec))
        warm = [execute_run(spec) for spec in specs]
        assert warm == cold

    def test_list_built_trace_spec_runs(self):
        def workload(trace):
            phase = PhaseSpec(
                pattern=TraceSpec(trace=trace),
                duration_instructions=20_000.0,
            )
            return WorkloadSpec(
                name="replay", phases=(phase,), total_instructions=20_000.0
            )

        trace = [i % 37 for i in range(0, 400, 3)]
        listed = run_solo(workload(trace), MACHINE, backend="statistical")
        tupled = run_solo(
            workload(tuple(trace)), MACHINE, backend="statistical"
        )
        assert listed.latency_sensitive().completion_periods == (
            tupled.latency_sensitive().completion_periods
        )
        assert listed.latency_sensitive().completion_periods > 0

    def test_trace_footprint_counts_distinct_lines(self):
        # Both traces touch two lines with the same reuse; one spans
        # 1,001 lines.  The engine charges the footprint as compulsory
        # misses and caps the victim's occupancy at it, so next to lbm
        # the span must not change the run.
        def run(trace):
            phase = PhaseSpec(
                pattern=TraceSpec(trace=trace),
                duration_instructions=400_000.0,
            )
            victim = WorkloadSpec(
                name="replay", phases=(phase,), total_instructions=400_000.0
            )
            return run_colocated(
                victim, benchmark("470.lbm", L3, length=0.05), MACHINE,
                backend="statistical",
            )

        assert run((0, 1000)) == run((0, 1))


def _pattern_classes(root: type) -> list[type]:
    """Every subclass of ``root`` that defines its own ``instantiate``."""
    found, stack = [], [root]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "instantiate" in vars(cls) and cls is not root:
            found.append(cls)
    return found


class TestLazyGenerators:
    def test_relaunching_run_builds_patterns_only_to_profile(
        self, monkeypatch
    ):
        """A statistical run, batch relaunches included, instantiates a
        pattern only inside ``profile_patterns``: its workload instances
        are accounted, never drawn from."""
        from repro.statistical import engine as statistical_engine
        from repro.workloads.base import PatternSpec

        inside = [False]
        built = {"profiling": 0, "elsewhere": 0}

        def counted(instantiate):
            def wrapper(self, rng, base):
                built["profiling" if inside[0] else "elsewhere"] += 1
                return instantiate(self, rng, base)
            return wrapper

        for cls in _pattern_classes(PatternSpec):
            monkeypatch.setattr(cls, "instantiate", counted(cls.instantiate))

        def profiling(*args):
            inside[0] = True
            try:
                return profile_patterns(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(statistical_engine, "profile_patterns", profiling)
        profile_patterns.cache_clear()
        spec = paper_run_spec(
            "429.mcf", "raw", MACHINE, length=0.2, backend="statistical"
        )
        result = execute(spec)
        (batch,) = result.batch_processes()
        assert batch.completions >= 1, "the batch never relaunched"
        assert built["profiling"] > 0
        assert built["elsewhere"] == 0


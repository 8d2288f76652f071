"""The cached profile builder is transparent: warm equals cold."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytic.mrc import (
    PROFILE_CACHE_SIZE,
    MissRateCurve,
    profile_patterns,
)
from repro.analytic.predictor import predict_colocation_phased
from repro.caer.proactive import predicted_miss_fence
from repro.config import MachineConfig
from repro.statistical.engine import PROFILE_SAMPLES
from repro.workloads import benchmark, benchmark_names
from repro.workloads.patterns import (
    MixtureSpec,
    SequentialStreamSpec,
    TraceSpec,
)

MACHINE = MachineConfig.scaled_nehalem()
L3 = MACHINE.l3.capacity_lines


class TestCachedEqualsFresh:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_spec_model_profile(self, name):
        """Every SPEC model's cached profile, at the statistical
        engine's key, equals an uncached build field by field."""
        patterns = tuple(
            phase.pattern for phase in benchmark(name, L3).phases
        )
        cached = profile_patterns(patterns, 0, PROFILE_SAMPLES)
        fresh = profile_patterns.__wrapped__(patterns, 0, PROFILE_SAMPLES)
        assert len(cached) == len(fresh) == len(patterns)
        for warm, cold in zip(cached, fresh):
            assert set(vars(warm)) == {
                "_total", "_cold", "_singletons", "_distances",
                "_cumulative",
            }
            assert vars(warm) == vars(cold)
        assert profile_patterns(patterns, 0, PROFILE_SAMPLES) is cached

    def test_phases_share_one_generator(self):
        """Phase i is instantiated from the generator phase i-1 left
        (mcf's second phase draws from it)."""
        specs = benchmark("429.mcf", L3).phases
        patterns = tuple(phase.pattern for phase in specs)
        assert len(patterns) > 1
        rng = np.random.default_rng(3)
        expected = []
        for spec in patterns:
            pattern = spec.instantiate(rng, base=0)
            expected.append(
                MissRateCurve.from_trace(
                    [pattern.next_address() for _ in range(6_000)]
                )
            )
        got = profile_patterns(patterns, 3, 6_000)
        assert [vars(c) for c in got] == [vars(c) for c in expected]

    def test_curves_are_immutable_sequences(self):
        (curve,) = profile_patterns(
            (SequentialStreamSpec(lines=50, line_repeats=2),), 0, 1_000
        )
        assert isinstance(curve._distances, tuple)
        assert isinstance(curve._cumulative, tuple)


class TestCacheKey:
    def test_list_built_trace_spec(self):
        listed = TraceSpec(trace=[3, 1, 4, 1, 5])
        tupled = TraceSpec(trace=(3, 1, 4, 1, 5))
        assert listed == tupled
        assert isinstance(listed.trace, tuple)
        first = profile_patterns((listed,), 0, 500)
        assert profile_patterns((tupled,), 0, 500) is first
        assert first[0].footprint() == 4

    def test_list_built_mixture_spec(self):
        parts = [
            [0.5, SequentialStreamSpec(lines=8)],
            [0.5, SequentialStreamSpec(lines=16)],
        ]
        listed = MixtureSpec(components=parts)
        tupled = MixtureSpec(components=tuple(tuple(p) for p in parts))
        assert listed == tupled
        assert profile_patterns((listed,), 0, 500) is (
            profile_patterns((tupled,), 0, 500)
        )

    def test_bound_holds(self):
        for seed in range(PROFILE_CACHE_SIZE + 8):
            profile_patterns(
                (SequentialStreamSpec(lines=4, line_repeats=1),), seed, 16
            )
        info = profile_patterns.cache_info()
        assert info.maxsize == PROFILE_CACHE_SIZE
        assert info.currsize <= PROFILE_CACHE_SIZE


class TestPredictorColdAndWarm:
    def test_phased_prediction(self):
        victim = benchmark("403.gcc", L3)
        contender = benchmark("470.lbm", L3)
        profile_patterns.cache_clear()
        cold = predict_colocation_phased(victim, contender, MACHINE)
        warm = predict_colocation_phased(victim, contender, MACHINE)
        assert warm == cold

    def test_proactive_fence(self):
        profile_patterns.cache_clear()
        cold = predicted_miss_fence("429.mcf", MACHINE)
        assert profile_patterns.cache_info().currsize > 0
        warm = predicted_miss_fence("429.mcf", MACHINE)
        assert warm == cold

"""Reuse-distance profiling, checked against a naive reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.stack_distance import (
    COLD,
    reuse_distance_histogram,
    reuse_distances,
)
from repro.errors import WorkloadError


def naive_reuse_distances(trace):
    """Textbook O(N^2) reference: distinct lines since previous use."""
    out = []
    last = {}
    for t, addr in enumerate(trace):
        if addr not in last:
            out.append(COLD)
        else:
            out.append(len(set(trace[last[addr] + 1:t])))
        last[addr] = t
    return out


class TestKnownTraces:
    def test_all_cold(self):
        assert reuse_distances([1, 2, 3]) == [COLD, COLD, COLD]

    def test_immediate_reuse_is_distance_zero(self):
        assert reuse_distances([1, 1]) == [COLD, 0]

    def test_one_intervening_line(self):
        assert reuse_distances([1, 2, 1]) == [COLD, COLD, 1]

    def test_repeats_do_not_double_count(self):
        # Between the two 1s: lines {2, 3} -> distance 2, not 3.
        assert reuse_distances([1, 2, 2, 3, 1]) == [
            COLD, COLD, 0, COLD, 2,
        ]

    def test_cyclic_scan_distance_is_footprint_minus_one(self):
        trace = [0, 1, 2, 3] * 3
        distances = reuse_distances(trace)
        assert distances[4:] == [3] * 8

    def test_histogram(self):
        histogram, cold = reuse_distance_histogram([1, 2, 1, 2, 1])
        assert cold == 2
        assert histogram == {1: 3}


class TestAgainstReference:
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_model(self, trace):
        assert reuse_distances(trace) == naive_reuse_distances(trace)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_trace_and_histogram_match_naive(self, seed):
        # Thousands of accesses with large line addresses: many merge
        # widths and a length that is not a power of two.
        import numpy as np

        rng = np.random.default_rng(seed)
        trace = (rng.integers(0, 300, size=3001) * 64 + 10**9).tolist()
        expected = naive_reuse_distances(trace)
        assert reuse_distances(trace) == expected
        histogram, cold = reuse_distance_histogram(trace)
        assert cold == expected.count(COLD)
        warm = [d for d in expected if d != COLD]
        assert histogram == {d: warm.count(d) for d in set(warm)}


class TestSampling:
    def test_sample_trace_length(self):
        import numpy as np

        from repro.analytic.stack_distance import sample_trace
        from repro.workloads.patterns import UniformRandomSpec

        pattern = UniformRandomSpec(lines=16).instantiate(
            np.random.default_rng(0), 0
        )
        assert len(sample_trace(pattern, 100)) == 100

    def test_sample_trace_validates_length(self):
        from repro.analytic.stack_distance import sample_trace

        with pytest.raises(WorkloadError):
            sample_trace(None, 0)

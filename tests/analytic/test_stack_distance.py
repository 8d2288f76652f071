"""Reuse-distance profiling, checked against a naive reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import stack_distance
from repro.analytic.stack_distance import (
    COLD,
    reuse_distance_histogram,
    reuse_distances,
    sample_trace,
    singleton_count,
)
from repro.errors import WorkloadError
from repro.statistical.engine import PROFILE_SAMPLES
from repro.workloads.patterns import (
    HotColdSpec,
    MixtureSpec,
    PointerChaseSpec,
    SequentialStreamSpec,
    StridedScanSpec,
    TraceSpec,
    UniformRandomSpec,
    ZipfSpec,
)


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


def fenwick_reuse_distances(trace):
    """Independent O(N log N) reference: a Fenwick tree marks each
    line's last access so far, and the distance of a re-access is the
    number of marks strictly between the line's last access and now."""
    size = len(trace)
    tree = [0] * (size + 1)
    last = {}
    out = []
    for t, line in enumerate(trace):
        p = last.get(line)
        if p is None:
            out.append(COLD)
        else:
            # Marks in (p, t): prefix(t) - prefix(p + 1).
            count = 0
            i = t
            while i > 0:
                count += tree[i]
                i &= i - 1
            i = p + 1
            while i > 0:
                count -= tree[i]
                i &= i - 1
            out.append(count)
            i = p + 1
            while i <= size:
                tree[i] -= 1
                i += i & -i
        i = t + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
        last[line] = t
    return out


def histogram_of(distances, trace):
    """(histogram, cold, singletons) as :func:`reuse_distance_histogram`
    gives them, from per-access distances and the trace."""
    histogram = {}
    for d in distances:
        if d != COLD:
            histogram[d] = histogram.get(d, 0) + 1
    return histogram, distances.count(COLD), dict_singleton_count(trace)


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
        histogram, cold, singletons = reuse_distance_histogram(
            [1, 2, 1, 2, 1, 3]
        )
        assert cold == 3
        assert histogram == {1: 3}
        assert singletons == 1


class TestAgainstReference:
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_model(self, trace):
        assert reuse_distances(trace) == naive_reuse_distances(trace)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_trace_and_histogram_match_naive(self, seed):
        # Thousands of accesses with large line addresses: many merge
        # widths and a length that is not a power of two.
        rng = np.random.default_rng(seed)
        trace = (rng.integers(0, 300, size=3001) * 64 + 10**9).tolist()
        expected = naive_reuse_distances(trace)
        assert reuse_distances(trace) == expected
        histogram, cold, singletons = reuse_distance_histogram(trace)
        assert cold == expected.count(COLD)
        warm = [d for d in expected if d != COLD]
        assert histogram == {d: warm.count(d) for d in set(warm)}
        assert singletons == dict_singleton_count(trace)

    @pytest.mark.parametrize("span", [2**8, 2**21, 2**22])
    def test_earlier_greater_at_every_packing_width(self, span):
        """About 1,500 keys need 11 credit bits, so keys and credits
        pack into 32 bits up to a 2**21 span and into 64 bits beyond;
        the count is the pairwise one either way."""
        rng = np.random.default_rng(span)
        keys = np.unique(rng.integers(0, span, size=1_500))
        rng.shuffle(keys)
        earlier_larger = np.tril(keys[None, :] > keys[:, None], -1)
        assert stack_distance._earlier_greater(keys).tolist() == (
            earlier_larger.sum(axis=1).tolist()
        )


#: One spec per pattern family the profiler samples.  The mixture's
#: 40K draws span ten choice batches, and its buffered parts refill
#: several times each, often inside one choice batch.
SAMPLED_SPECS = [
    SequentialStreamSpec(lines=300, line_repeats=8),
    StridedScanSpec(lines=900, stride=3, line_repeats=2),
    PointerChaseSpec(lines=700),
    UniformRandomSpec(lines=500, line_repeats=3),
    ZipfSpec(lines=800, alpha=1.2),
    HotColdSpec(hot_lines=16, cold_lines=2000, hot_fraction=0.8),
    TraceSpec(trace=(5, 0, 9, 9, 2, 7, 5, 1, 3)),
    MixtureSpec(
        components=(
            (0.4, UniformRandomSpec(lines=200, line_repeats=2)),
            (0.3, ZipfSpec(lines=300, alpha=1.1)),
            (0.2, HotColdSpec(hot_lines=8, cold_lines=400)),
            (0.1, SequentialStreamSpec(lines=64, line_repeats=4)),
        )
    ),
]


class TestAgainstFenwick:
    """The bitwise kernel against the Fenwick-tree reference, at the
    statistical engine's sample size on every sampled family."""

    @pytest.mark.parametrize(
        "spec", SAMPLED_SPECS, ids=lambda s: type(s).__name__
    )
    def test_profile_sized_sample(self, spec):
        sample = sample_trace(
            spec.instantiate(np.random.default_rng(3), 0), PROFILE_SAMPLES
        )
        expected = fenwick_reuse_distances(sample.tolist())
        assert reuse_distances(sample) == expected
        assert reuse_distance_histogram(sample) == histogram_of(
            expected, sample.tolist()
        )

    @pytest.mark.parametrize(
        "trace",
        [[], [7], [3] * 40, [-5, 3, -5, 9, 3], [0, 2**60] * 20 + [5, 0]],
        ids=["empty", "one-access", "one-line", "negative", "wide-span"],
    )
    def test_edge_traces(self, trace):
        expected = fenwick_reuse_distances(trace)
        assert reuse_distances(trace) == expected
        assert reuse_distance_histogram(trace) == histogram_of(
            expected, trace
        )

    @pytest.mark.parametrize(
        "span, argsorts", [(2**58 - 1, 0), (2**58, 1), (2**60, 1)]
    )
    def test_argsort_only_when_packing_overflows(
        self, span, argsorts, monkeypatch
    ):
        """32 accesses need 5 position bits, so a line span of 58 bits
        packs into int64 exactly and one more bit takes the argsort."""
        calls = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(stack_distance.np, "argsort", counting)
        trace = [0, span, 0, 1] * 8
        expected = fenwick_reuse_distances(trace)
        assert reuse_distances(trace) == expected
        assert len(calls) == argsorts


def dict_singleton_count(trace):
    """Reference: count per line in a dict, then the lines seen once."""
    counts = {}
    for addr in trace:
        counts[addr] = counts.get(addr, 0) + 1
    return sum(1 for c in counts.values() if c == 1)


class TestSampling:
    def test_sample_trace_length(self):
        pattern = UniformRandomSpec(lines=16).instantiate(
            np.random.default_rng(0), 0
        )
        assert len(sample_trace(pattern, 100)) == 100

    def test_sample_trace_validates_length(self):
        with pytest.raises(WorkloadError):
            sample_trace(None, 0)

    @pytest.mark.parametrize(
        "spec", SAMPLED_SPECS, ids=lambda s: type(s).__name__
    )
    def test_sample_equals_per_address_walk(self, spec):
        """One array batch is the per-address stream, and leaves the
        shared generator where the walk does (a process's next phase
        is instantiated from it)."""
        walk_rng = np.random.default_rng(5)
        sample_rng = np.random.default_rng(5)
        walker = spec.instantiate(walk_rng, 0)
        expected = [walker.next_address() for _ in range(40_000)]
        sample = sample_trace(spec.instantiate(sample_rng, 0), 40_000)
        assert isinstance(sample, np.ndarray)
        assert sample.dtype == np.int64
        assert sample.tolist() == expected
        assert (
            sample_rng.bit_generator.state
            == walk_rng.bit_generator.state
        )

    def test_array_and_list_profile_alike(self):
        pattern = ZipfSpec(lines=400).instantiate(
            np.random.default_rng(2), 0
        )
        sample = sample_trace(pattern, 5_000)
        assert reuse_distance_histogram(sample) == (
            reuse_distance_histogram(sample.tolist())
        )


class TestSingletonCount:
    @pytest.mark.parametrize(
        "spec", SAMPLED_SPECS, ids=lambda s: type(s).__name__
    )
    def test_reuse_pass_counts_what_singleton_count_does(self, spec):
        """The histogram's count, read off the reuse pass's (line,
        position) order, equals the sort-based one on a profile-sized
        sample of every family."""
        sample = sample_trace(
            spec.instantiate(np.random.default_rng(4), 0), PROFILE_SAMPLES
        )
        counted = reuse_distance_histogram(sample).singletons
        assert counted == singleton_count(sample)

    @given(st.lists(st.integers(-3, 40), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_reuse_pass_count_matches_dict_count(self, trace):
        counted = reuse_distance_histogram(trace).singletons
        assert counted == dict_singleton_count(trace)

    def test_reuse_pass_count_on_wide_spans(self):
        """The argsort order (a line span too wide to pack) counts the
        same lines."""
        trace = [0, 2**60, 0, 5, -(2**61), 7, 7]
        counted = reuse_distance_histogram(trace).singletons
        assert counted == dict_singleton_count(trace) == 3

    @pytest.mark.parametrize(
        "trace", [[], [4], [7, 7, 7, 7], [1, 2, 1, 3], [9, 8, 7]]
    )
    def test_edge_traces(self, trace):
        assert singleton_count(trace) == dict_singleton_count(trace)

    @given(st.lists(st.integers(-3, 40), max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_count(self, trace):
        assert singleton_count(trace) == dict_singleton_count(trace)
        assert singleton_count(np.array(trace, dtype=np.int64)) == (
            dict_singleton_count(trace)
        )

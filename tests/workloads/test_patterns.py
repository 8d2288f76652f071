"""Access-pattern generators: ranges, footprints, distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.patterns import (
    _BATCH,
    _ZIPF_BUCKETS,
    HotColdSpec,
    MixtureSpec,
    PointerChaseSpec,
    SequentialStreamSpec,
    StridedScanSpec,
    TraceSpec,
    UniformRandomSpec,
    ZipfSpec,
)


def sample(spec, n=2000, base=0, seed=0):
    pattern = spec.instantiate(np.random.default_rng(seed), base)
    return [pattern.next_address() for _ in range(n)]


class _FixedDraws:
    """A stand-in Generator whose one ``random`` call returns ``keys``."""

    def __init__(self, keys: np.ndarray):
        self._keys = keys

    def random(self, n: int) -> np.ndarray:
        assert n == self._keys.shape[0]
        return self._keys


class TestSequentialStream:
    def test_walks_lines_in_order(self):
        addrs = sample(SequentialStreamSpec(lines=4, line_repeats=1), 8)
        assert addrs == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_line_repeats(self):
        addrs = sample(SequentialStreamSpec(lines=3, line_repeats=2), 6)
        assert addrs == [0, 0, 1, 1, 2, 2]

    def test_base_offset(self):
        addrs = sample(
            SequentialStreamSpec(lines=2, line_repeats=1), 2, base=100
        )
        assert addrs == [100, 101]

    def test_footprint(self):
        assert SequentialStreamSpec(lines=7).footprint_lines() == 7

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SequentialStreamSpec(lines=0)


class TestUniformRandom:
    def test_stays_in_range(self):
        addrs = sample(UniformRandomSpec(lines=50), 5000, base=1000)
        assert min(addrs) >= 1000
        assert max(addrs) < 1050

    def test_covers_working_set(self):
        addrs = sample(UniformRandomSpec(lines=20), 2000)
        assert len(set(addrs)) == 20

    def test_roughly_uniform(self):
        addrs = sample(UniformRandomSpec(lines=10), 10_000)
        counts = np.bincount(addrs, minlength=10)
        assert counts.min() > 0.5 * counts.mean()
        assert counts.max() < 1.5 * counts.mean()

    def test_deterministic_under_seed(self):
        a = sample(UniformRandomSpec(lines=100), 500, seed=3)
        b = sample(UniformRandomSpec(lines=100), 500, seed=3)
        assert a == b

    def test_line_repeats(self):
        addrs = sample(UniformRandomSpec(lines=100, line_repeats=3), 30)
        for i in range(0, 30, 3):
            assert addrs[i] == addrs[i + 1] == addrs[i + 2]


class TestPointerChase:
    def test_visits_every_line_exactly_once_per_cycle(self):
        spec = PointerChaseSpec(lines=64)
        addrs = sample(spec, 64)
        assert sorted(addrs) == list(range(64))

    def test_cycle_repeats(self):
        addrs = sample(PointerChaseSpec(lines=16), 32)
        assert addrs[:16] == addrs[16:]

    def test_base_offset(self):
        addrs = sample(PointerChaseSpec(lines=8), 8, base=500)
        assert sorted(addrs) == list(range(500, 508))

    def test_chase_is_not_sequential(self):
        addrs = sample(PointerChaseSpec(lines=256), 256, seed=1)
        strides = {b - a for a, b in zip(addrs, addrs[1:])}
        assert len(strides) > 10  # genuinely scrambled


class TestZipf:
    def test_skew_increases_with_alpha(self):
        flat = sample(ZipfSpec(lines=100, alpha=0.5), 20_000)
        steep = sample(ZipfSpec(lines=100, alpha=2.0), 20_000)

        def top_share(addrs):
            counts = sorted(
                np.bincount(addrs, minlength=100), reverse=True
            )
            return sum(counts[:5]) / len(addrs)

        assert top_share(steep) > top_share(flat) + 0.2

    def test_stays_in_range(self):
        addrs = sample(ZipfSpec(lines=64, alpha=1.0), 5000, base=64)
        assert min(addrs) >= 64
        assert max(addrs) < 128

    def test_hot_lines_are_scattered(self):
        """Placement decouples popularity from address order."""
        addrs = sample(ZipfSpec(lines=1000, alpha=1.5), 20_000, seed=5)
        counts = np.bincount(addrs, minlength=1000)
        hottest = int(np.argmax(counts))
        # With random placement the hottest line is almost surely not 0.
        assert counts[hottest] > counts[0] or hottest != 0

    @pytest.mark.parametrize(
        "lines, alpha",
        [(1, 1.0), (163, 1.3), (819, 1.0), (2293, 1.1), (20_000, 0.5)],
    )
    def test_bucket_table_ranks_like_searchsorted(self, lines, alpha):
        """Every key ranks as ``cdf.searchsorted`` ranks it: the bucket
        edges, the CDF values, and the doubles either side of each."""
        pattern = ZipfSpec(lines=lines, alpha=alpha).instantiate(
            np.random.default_rng(0), 64
        )
        cdf = pattern._cdf
        edges = np.arange(_ZIPF_BUCKETS + 1) / _ZIPF_BUCKETS
        marks = np.concatenate((edges, cdf))
        keys = np.concatenate((
            marks,
            np.nextafter(marks, 0.0),
            np.nextafter(marks, 1.0),
            np.random.default_rng(1).random(_BATCH),
        ))
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        keys = np.resize(keys, -(-keys.shape[0] // _BATCH) * _BATCH)
        for chunk in keys.reshape(-1, _BATCH):
            pattern._rng = _FixedDraws(chunk)
            want = pattern._placement[cdf.searchsorted(chunk)] + 64
            assert np.array_equal(pattern._refill(), want)


class TestHotCold:
    def test_hot_region_dominates(self):
        spec = HotColdSpec(hot_lines=10, cold_lines=1000, hot_fraction=0.9)
        addrs = sample(spec, 10_000)
        hot_hits = sum(1 for a in addrs if a < 10)
        assert hot_hits / len(addrs) == pytest.approx(0.9, abs=0.03)

    def test_footprint(self):
        spec = HotColdSpec(hot_lines=10, cold_lines=90)
        assert spec.footprint_lines() == 100

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HotColdSpec(hot_lines=1, cold_lines=1, hot_fraction=1.0)


class TestStridedScan:
    def test_stride(self):
        addrs = sample(StridedScanSpec(lines=8, stride=2), 4)
        assert addrs == [0, 2, 4, 6]

    def test_wraps(self):
        addrs = sample(StridedScanSpec(lines=4, stride=2), 4)
        assert addrs == [0, 2, 0, 2]

    def test_footprint_counts_touched_lines(self):
        assert StridedScanSpec(lines=10, stride=3).footprint_lines() == 4

    def test_span_counts_skipped_lines(self):
        assert StridedScanSpec(lines=10, stride=3).span_lines() == 10


class TestMixture:
    def test_components_get_disjoint_ranges(self):
        spec = MixtureSpec(
            components=(
                (1.0, SequentialStreamSpec(lines=10, line_repeats=1)),
                (1.0, UniformRandomSpec(lines=10)),
            )
        )
        addrs = sample(spec, 4000, base=0)
        assert min(addrs) >= 0
        assert max(addrs) < 20

    def test_weights_respected(self):
        spec = MixtureSpec(
            components=(
                (3.0, SequentialStreamSpec(lines=10, line_repeats=1)),
                (1.0, UniformRandomSpec(lines=10)),
            )
        )
        addrs = sample(spec, 20_000)
        first = sum(1 for a in addrs if a < 10)
        assert first / len(addrs) == pytest.approx(0.75, abs=0.03)

    def test_needs_two_components(self):
        with pytest.raises(WorkloadError):
            MixtureSpec(
                components=((1.0, UniformRandomSpec(lines=4)),)
            )

    def test_footprint_sums_components(self):
        spec = MixtureSpec(
            components=(
                (1.0, SequentialStreamSpec(lines=5, line_repeats=1)),
                (1.0, UniformRandomSpec(lines=7)),
            )
        )
        assert spec.footprint_lines() == 12

    def test_strided_part_shares_no_line_with_the_next(self):
        """A strided scan touches 128 of the 1024 lines it spans, so
        the part after it starts past its span, not its footprint."""
        spec = MixtureSpec(
            components=(
                (1.0, StridedScanSpec(lines=1024, stride=8)),
                (1.0, UniformRandomSpec(lines=128)),
            )
        )
        assert spec.span_lines() == 1024 + 128
        addrs = sample(spec, 20_000)
        assert len(set(addrs)) == 128 + 128
        assert max(addrs) < spec.span_lines()


@st.composite
def any_pattern_spec(draw):
    lines = draw(st.integers(1, 200))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return SequentialStreamSpec(
            lines=lines, line_repeats=draw(st.integers(1, 4))
        )
    if kind == 1:
        return UniformRandomSpec(lines=lines)
    if kind == 2:
        return PointerChaseSpec(lines=lines)
    if kind == 3:
        return ZipfSpec(lines=lines, alpha=draw(st.floats(0.2, 3.0)))
    return HotColdSpec(
        hot_lines=lines,
        cold_lines=draw(st.integers(1, 200)),
        hot_fraction=draw(st.floats(0.1, 0.9)),
    )


@st.composite
def spanned_pattern_spec(draw):
    """Any pattern, a strided scan, or a mixture of two of them."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(any_pattern_spec())
    if kind == 1:
        return StridedScanSpec(
            lines=draw(st.integers(1, 200)),
            stride=draw(st.integers(1, 9)),
        )
    return MixtureSpec(
        components=(
            (1.0, draw(spanned_pattern_spec())),
            (2.0, draw(spanned_pattern_spec())),
        )
    )


class TestPatternProperties:
    @given(any_pattern_spec(), st.integers(0, 2**20))
    @settings(max_examples=50, deadline=None)
    def test_addresses_within_declared_footprint(self, spec, base):
        pattern = spec.instantiate(np.random.default_rng(0), base)
        footprint = spec.footprint_lines()
        for _ in range(200):
            addr = pattern.next_address()
            assert base <= addr < base + max(footprint, spec.footprint_lines())

    @given(spanned_pattern_spec(), st.integers(0, 2**20))
    @settings(max_examples=50, deadline=None)
    def test_addresses_within_declared_span(self, spec, base):
        pattern = spec.instantiate(np.random.default_rng(0), base)
        addrs = pattern.next_addresses(400)
        assert base <= min(addrs)
        assert max(addrs) < base + spec.span_lines()

    @given(any_pattern_spec())
    @settings(max_examples=30, deadline=None)
    def test_distinct_lines_bounded_by_footprint(self, spec):
        pattern = spec.instantiate(np.random.default_rng(1), 0)
        seen = {pattern.next_address() for _ in range(500)}
        assert len(seen) <= spec.footprint_lines()


class TestTraceReplay:
    def test_replays_in_order_cyclically(self):
        from repro.workloads.patterns import TraceSpec

        addrs = sample(TraceSpec(trace=(3, 1, 4)), 6)
        assert addrs == [3, 1, 4, 3, 1, 4]

    def test_base_offset(self):
        from repro.workloads.patterns import TraceSpec

        addrs = sample(TraceSpec(trace=(0, 1)), 2, base=10)
        assert addrs == [10, 11]

    def test_footprint(self):
        from repro.workloads.patterns import TraceSpec

        # Distinct lines touched; the span is the range they lie in.
        spec = TraceSpec(trace=(0, 7, 3))
        assert spec.footprint_lines() == 3
        assert spec.span_lines() == 8
        replay = spec.instantiate(np.random.default_rng(0), 0)
        assert replay.footprint_lines() == 3

    def test_empty_trace_rejected(self):
        from repro.workloads.patterns import TraceSpec

        with pytest.raises(WorkloadError):
            TraceSpec(trace=())

    def test_negative_address_rejected(self):
        from repro.workloads.patterns import TraceSpec

        with pytest.raises(WorkloadError):
            TraceSpec(trace=(1, -2))

    def test_runs_through_the_simulator(self, tiny_machine=None):
        from repro.sim import run_solo
        from repro.workloads.base import PhaseSpec, WorkloadSpec
        from repro.workloads.patterns import TraceSpec
        from repro.config import MachineConfig

        spec = WorkloadSpec(
            name="traced",
            phases=(
                PhaseSpec(
                    pattern=TraceSpec(trace=tuple(range(64)) * 2),
                    duration_instructions=5_000.0,
                    mem_ratio=0.3,
                ),
            ),
            total_instructions=5_000.0,
        )
        result = run_solo(spec, MachineConfig.tiny())
        assert result.latency_sensitive().first_completion_period is not None


#: One spec per pattern family, for the batch-equality checks below.
BATCH_SPECS = [
    SequentialStreamSpec(lines=7, line_repeats=3),
    SequentialStreamSpec(lines=64, line_repeats=1),
    UniformRandomSpec(lines=50),
    PointerChaseSpec(lines=40),
    ZipfSpec(lines=30, alpha=1.1),
    HotColdSpec(hot_lines=4, cold_lines=60, hot_fraction=0.9),
    StridedScanSpec(lines=64, stride=5, line_repeats=2),
    MixtureSpec(
        components=(
            (0.7, SequentialStreamSpec(lines=16, line_repeats=2)),
            (0.3, UniformRandomSpec(lines=32)),
        )
    ),
    TraceSpec(trace=(0, 3, 3, 1, 7, 2, 2, 5)),
]


class TestBatchGeneration:
    """``next_addresses(n)`` must equal ``n`` ``next_address()`` calls.

    The simulator's core loop draws addresses in batches; any
    divergence from the scalar stream would silently change simulated
    results, so the equivalence is exact, per pattern family, across
    uneven batch boundaries.
    """

    @pytest.mark.parametrize(
        "spec", BATCH_SPECS, ids=lambda s: type(s).__name__
    )
    def test_matches_scalar_stream(self, spec):
        scalar = spec.instantiate(np.random.default_rng(7), 16)
        batched = spec.instantiate(np.random.default_rng(7), 16)
        expected = [scalar.next_address() for _ in range(500)]
        got: list[int] = []
        for n in (1, 2, 3, 5, 17, 64, 100, 308):
            got.extend(batched.next_addresses(n))
        assert got == expected

    @pytest.mark.parametrize(
        "spec", BATCH_SPECS, ids=lambda s: type(s).__name__
    )
    def test_scalar_and_batch_draws_interleave(self, spec):
        scalar = spec.instantiate(np.random.default_rng(3), 0)
        mixed = spec.instantiate(np.random.default_rng(3), 0)
        expected = [scalar.next_address() for _ in range(120)]
        got: list[int] = []
        while len(got) < 120:
            got.append(mixed.next_address())
            got.extend(mixed.next_addresses(9))
        assert got == expected[: len(got)]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mixture_part_refills_keep_stream_order(self, seed):
        # The parts share the mixture's Generator, so a batched draw
        # must make every RNG call (choice refills, part buffer
        # refills) at the stream position the per-address walk does.
        # Over 3 x 4096 draws every buffered part refills several
        # times, often two parts inside one batch.
        spec = MixtureSpec(
            components=(
                (0.35, UniformRandomSpec(lines=90, line_repeats=2)),
                (0.25, ZipfSpec(lines=70, alpha=1.1)),
                (0.25, HotColdSpec(hot_lines=6, cold_lines=80)),
                (0.15, PointerChaseSpec(lines=50)),
            )
        )
        scalar = spec.instantiate(np.random.default_rng(seed), 11)
        mixed = spec.instantiate(np.random.default_rng(seed), 11)
        total = 3 * 4096 + 2500
        expected = [scalar.next_address() for _ in range(total)]
        rng = np.random.default_rng(100 + seed)
        got: list[int] = []
        while len(got) < total:
            n = min(int(rng.integers(1, 1800)), total - len(got))
            way = int(rng.integers(0, 3))
            if way == 0:
                got.extend(mixed.next_address() for _ in range(n % 7 + 1))
            elif way == 1:
                got.extend(mixed.next_addresses(n))
            else:
                got.extend(mixed.next_addresses_array(n).tolist())
        assert got[:total] == expected

    @pytest.mark.parametrize(
        "spec, period",
        [
            (SequentialStreamSpec(lines=7, line_repeats=3), 21),
            (StridedScanSpec(lines=20, stride=3, line_repeats=2), 14),
        ],
        ids=["stream", "strided"],
    )
    def test_batches_ending_on_the_period_wrap(self, spec, period):
        # A batch that ends exactly at the end of the cycle leaves the
        # cursor at its start, where the next scalar draw reads it.
        scalar = spec.instantiate(np.random.default_rng(0), 5)
        batched = spec.instantiate(np.random.default_rng(0), 5)
        got: list[int] = []
        for n in (period, period - 1, 2 * period, 3, period - 3):
            got.extend(batched.next_addresses(n))
            got.append(batched.next_address())
            got.extend(batched.next_addresses_array(n).tolist())
            got.append(batched.next_address())
        assert got == [scalar.next_address() for _ in range(len(got))]

    @given(sizes=st.lists(st.integers(1, 50), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_batch_sizes(self, sizes):
        spec = SequentialStreamSpec(lines=13, line_repeats=2)
        scalar = spec.instantiate(np.random.default_rng(1), 5)
        batched = spec.instantiate(np.random.default_rng(1), 5)
        expected = [scalar.next_address() for _ in range(sum(sizes))]
        got: list[int] = []
        for n in sizes:
            got.extend(batched.next_addresses(n))
        assert got == expected


class _CountingGenerator:
    """A ``Generator`` stand-in that counts the draws made through it."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return draw(*args, **kwargs)
        return counted


#: Patterns that draw after instantiation, mixtures included.
DRAWING_SPECS = [
    UniformRandomSpec(lines=90, line_repeats=2),
    ZipfSpec(lines=70, alpha=1.1),
    HotColdSpec(hot_lines=6, cold_lines=80),
    MixtureSpec(
        components=(
            (0.35, UniformRandomSpec(lines=90, line_repeats=2)),
            (0.25, ZipfSpec(lines=70, alpha=1.1)),
            (0.25, HotColdSpec(hot_lines=6, cold_lines=80)),
            (0.15, PointerChaseSpec(lines=50)),
        )
    ),
    MixtureSpec(
        components=(
            (0.6, SequentialStreamSpec(lines=16, line_repeats=2)),
            (0.4, ZipfSpec(lines=30, alpha=1.0)),
        )
    ),
]


class TestDrawPoints:
    """Every RNG call waits for the address that needs it.

    A workload's phases share one ``Generator``, so a pattern that
    drew ahead — say, building its next batch as soon as a request
    drained the current one — would shift every other phase's stream.
    ``addresses_before_draw()`` addresses must come without a draw,
    however they are requested.
    """

    @pytest.mark.parametrize(
        "spec", DRAWING_SPECS, ids=lambda s: type(s).__name__
    )
    def test_draws_only_when_an_address_needs_one(self, spec):
        rng = _CountingGenerator(4)
        pattern = spec.instantiate(rng, 0)
        sizes = np.random.default_rng(8)
        drained = 0
        for step in range(400):
            free = pattern.addresses_before_draw()
            assert free is not None
            calls = rng.calls
            if free:
                # Drain to the draw point, in one of the three forms,
                # or stop anywhere short of it.
                n = free if step % 2 else int(sizes.integers(1, free + 1))
                way = step % 3
                if way == 0:
                    pattern.next_addresses(n)
                elif way == 1:
                    pattern.next_addresses_array(n)
                else:
                    for _ in range(n):
                        pattern.next_address()
                assert rng.calls == calls
                drained += 1
            else:
                pattern.next_addresses_array(1)
        # A pattern that always answered 0 would pass the loop above
        # vacuously: most steps must have had addresses to drain.
        assert drained > 100

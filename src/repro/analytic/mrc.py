"""Miss-rate curves from reuse-distance histograms.

Under fully-associative LRU an access with reuse distance ``d`` hits a
cache of ``c`` lines iff ``d < c``, so the miss-rate curve is the
complementary CDF of the reuse-distance distribution (cold misses miss
at every size).  Set-associative caches of practical associativity
track the fully-associative curve closely enough for the occupancy
modelling this package does.

:func:`profile_patterns` is the one place pattern specs become curves.
A profile is a pure function of (specs, seed, samples), so each
distinct one is built once per process and shared; curves are
immutable for that reason.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..errors import WorkloadError
from .stack_distance import reuse_distance_histogram, sample_trace

if TYPE_CHECKING:
    from ..workloads.base import PatternSpec

#: Distinct profiles :func:`profile_patterns` keeps.  At 40K samples
#: per phase an entry retains ~170 KB on average and ~500 KB at most (a
#: two-phase SPEC model), so the bound caps the cache near 32 MB; a
#: 21-victim statistical campaign needs 22 entries (3.8 MB).
PROFILE_CACHE_SIZE = 64


class MissRateCurve:
    """miss_rate(cache_lines) for one access stream."""

    def __init__(
        self,
        histogram: dict[int, int],
        cold: int,
        singletons: int = 0,
    ):
        """Build from a reuse-distance histogram plus cold-miss count.

        ``singletons`` is how many of the ``cold`` first touches belong
        to lines never revisited within the profiled window; those miss
        in steady state too, while the rest are transient warm-up.
        """
        if cold < 0 or min(histogram.values(), default=0) < 0:
            raise WorkloadError("negative counts in reuse histogram")
        if not 0 <= singletons <= cold:
            raise WorkloadError(
                f"singletons ({singletons}) out of range 0..{cold}"
            )
        # Sorted distances with cumulative counts for O(log n) queries,
        # as tuples: a cached curve is shared by every run that uses it.
        # reuse_distance_histogram lists its distances in ascending
        # order already, so its counts accumulate as they come.
        distances = tuple(histogram)
        ordered = sorted(distances)
        if ordered == list(distances):
            counts = histogram.values()
        else:
            distances = tuple(ordered)
            counts = map(histogram.__getitem__, distances)
        self._distances = distances
        self._cumulative = tuple(itertools.accumulate(counts))
        self._total = (
            self._cumulative[-1] if self._cumulative else 0
        ) + cold
        if self._total == 0:
            raise WorkloadError("empty reuse histogram")
        self._cold = cold
        self._singletons = singletons

    @classmethod
    def from_trace(cls, trace: Iterable[int]) -> "MissRateCurve":
        """Profile a concrete address trace."""
        histogram, cold, singletons = reuse_distance_histogram(trace)
        return cls(histogram, cold, singletons=singletons)

    @classmethod
    def from_pattern(
        cls, pattern: "object", samples: int = 50_000
    ) -> "MissRateCurve":
        """Profile a live access pattern by sampling it."""
        return cls.from_trace(sample_trace(pattern, samples))

    def hit_rate(self, cache_lines: float) -> float:
        """Fraction of accesses with reuse distance < ``cache_lines``."""
        if cache_lines <= 0:
            return 0.0
        index = bisect.bisect_left(self._distances, cache_lines)
        hits = self._cumulative[index - 1] if index else 0
        return hits / self._total

    def miss_rate(self, cache_lines: float) -> float:
        """Misses per access at the given cache size (incl. cold)."""
        return 1.0 - self.hit_rate(cache_lines)

    @property
    def cold_fraction(self) -> float:
        """Fraction of accesses that are first touches."""
        return self._cold / self._total

    @property
    def compulsory_floor(self) -> float:
        """Miss rate with an infinite cache (cold misses only)."""
        return self.cold_fraction

    @property
    def singleton_fraction(self) -> float:
        """Accesses to lines never revisited in the profiled window."""
        return self._singletons / self._total

    @property
    def transient_cold_fraction(self) -> float:
        """First touches of lines the workload later revisits.

        This is the genuinely one-off warm-up portion of the cold
        misses; steady-state miss modelling should exclude it.
        """
        return (self._cold - self._singletons) / self._total

    def footprint(self) -> int:
        """Distinct lines observed in the profiled trace."""
        return self._cold

    def __repr__(self) -> str:
        return (
            f"MissRateCurve(total={self._total}, "
            f"cold={self.cold_fraction:.3f})"
        )


@functools.lru_cache(maxsize=PROFILE_CACHE_SIZE)
def profile_patterns(
    patterns: tuple["PatternSpec", ...], seed: int, samples: int
) -> tuple[MissRateCurve, ...]:
    """Miss-rate curves of ``patterns``, sampled ``samples`` accesses each.

    One ``np.random.default_rng(seed)`` instantiates each at base 0 in
    order and samples it before the next is instantiated, so a process's
    phases share one generator the way its run does.  The result is a
    pure function of the arguments and is cached: callers share it.
    """
    rng = np.random.default_rng(seed)
    return tuple(
        MissRateCurve.from_pattern(spec.instantiate(rng, base=0), samples)
        for spec in patterns
    )

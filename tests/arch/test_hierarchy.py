"""Cache-hierarchy behaviour: levels, inclusion, cross-core effects."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.hierarchy import (
    L1_HIT,
    L2_HIT,
    L3_HIT,
    MEMORY,
    CacheHierarchy,
)
from repro.config import CacheGeometry, MachineConfig
from repro.errors import ConfigError


def tiny_hierarchy(inclusive=True, cores=2) -> CacheHierarchy:
    machine = MachineConfig(
        name="h",
        num_cores=cores,
        l1=CacheGeometry(num_sets=2, associativity=2),
        l2=CacheGeometry(num_sets=4, associativity=2),
        l3=CacheGeometry(num_sets=8, associativity=4),
        period_cycles=1_000,
        l3_inclusive=inclusive,
    )
    return CacheHierarchy(machine)


class TestLevels:
    def test_cold_access_goes_to_memory(self):
        h = tiny_hierarchy()
        assert h.access(0, 100) == MEMORY

    def test_second_access_hits_l1(self):
        h = tiny_hierarchy()
        h.access(0, 100)
        assert h.access(0, 100) == L1_HIT

    def test_l2_hit_after_l1_eviction(self):
        h = tiny_hierarchy()
        # L1: 2 sets x 2 ways. Fill set 0 of L1 past capacity with
        # addresses 0, 4, 8 (all set 0 in L1), then re-access the first.
        for addr in (0, 4, 8):
            h.access(0, addr)
        level = h.access(0, 0)
        assert level in (L2_HIT, L3_HIT)  # evicted from L1 at least

    def test_cross_core_l3_hit(self):
        h = tiny_hierarchy()
        h.access(0, 100)
        # Same line from the other core: private caches cold, L3 warm.
        assert h.access(1, 100) == L3_HIT

    def test_counters_track_levels(self):
        h = tiny_hierarchy()
        h.access(0, 1)
        h.access(0, 1)
        counters = h.counters_for(0)
        assert counters.l3_misses == 1
        assert counters.l1_hits == 1
        assert counters.llc_references == 1

    def test_counters_for_validates(self):
        h = tiny_hierarchy()
        with pytest.raises(ConfigError):
            h.counters_for(5)


class TestInclusion:
    def test_inclusion_holds_after_traffic(self):
        h = tiny_hierarchy()
        for addr in range(64):
            h.access(addr % 2, addr)
        assert h.check_inclusion() == []

    def test_back_invalidation_removes_private_copy(self):
        h = tiny_hierarchy()
        h.access(0, 0)
        # Core 1 floods L3 set 0 (L3: 8 sets, so addrs = 0 mod 8).
        for k in range(1, 6):
            h.access(1, 8 * k)
        # Core 0's line 0 must have left L3 -- and its private caches.
        assert not h.l3.contains(0)
        assert not h.l1[0].contains(0)
        assert not h.l2[0].contains(0)
        assert h.counters_for(0).back_invalidations >= 1

    def test_lines_stolen_attributed_to_victim(self):
        h = tiny_hierarchy()
        h.access(0, 0)
        for k in range(1, 6):
            h.access(1, 8 * k)
        assert h.counters_for(0).lines_stolen >= 1
        assert h.counters_for(1).lines_stolen == 0

    def test_non_inclusive_keeps_private_copies(self):
        h = tiny_hierarchy(inclusive=False)
        h.access(0, 0)
        for k in range(1, 6):
            h.access(1, 8 * k)
        assert not h.l3.contains(0)
        assert h.l1[0].contains(0) or h.l2[0].contains(0)


class TestOccupancy:
    def test_single_core_owns_everything(self):
        h = tiny_hierarchy()
        for addr in range(16):
            h.access(0, addr)
        assert h.l3_occupancy(0) == h.l3.occupancy
        assert h.l3_occupancy(1) == 0

    def test_occupancy_fraction_bounds(self):
        h = tiny_hierarchy()
        for addr in range(100):
            h.access(addr % 2, addr)
        f0 = h.l3_occupancy_fraction(0)
        f1 = h.l3_occupancy_fraction(1)
        assert 0.0 <= f0 <= 1.0
        assert 0.0 <= f1 <= 1.0

    def test_streaming_core_steals_occupancy(self):
        h = tiny_hierarchy()
        # Core 0 establishes a small working set.
        for addr in range(8):
            h.access(0, addr)
        before = h.l3_occupancy(0)
        # Core 1 streams far more lines through the shared L3.
        for addr in range(1000, 1200):
            h.access(1, addr)
        assert h.l3_occupancy(0) < before
        assert h.l3_occupancy(1) > h.l3_occupancy(0)

    def test_flush_resets_occupancy(self):
        h = tiny_hierarchy()
        for addr in range(32):
            h.access(0, addr)
        h.flush()
        assert h.l3.occupancy == 0
        assert h.l3_occupancy(0) == 0
        assert h.check_inclusion() == []


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 63)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_inclusion_and_occupancy_invariants(self, accesses):
        h = tiny_hierarchy()
        for core, addr in accesses:
            level = h.access(core, addr)
            assert level in (L1_HIT, L2_HIT, L3_HIT, MEMORY)
        assert h.check_inclusion() == []
        total_owned = h.l3_occupancy(0) + h.l3_occupancy(1)
        # Owner sets can overlap on shared lines, never undercount.
        assert total_owned >= h.l3.occupancy - 1  # allow in-flight skew
        for core in (0, 1):
            c = h.counters_for(core)
            assert c.l1_hits + c.l1_misses == sum(
                1 for cc, _ in accesses if cc == core
            )
            assert c.l2_hits + c.l2_misses == c.l1_misses
            assert c.l3_hits + c.l3_misses == c.l2_misses


class TestLifetime:
    @pytest.mark.parametrize("fast", ["1", "0"])
    def test_chip_is_freed_without_the_cycle_collector(self, fast,
                                                       monkeypatch):
        # A hierarchy holds hundreds of per-set containers; left to the
        # cyclic garbage collector, every finished run's chip would stay
        # alive until the next collection and be traversed on the way.
        import gc
        import weakref

        from repro.arch.chip import MulticoreChip

        monkeypatch.setenv("REPRO_FAST_LANE", fast)
        chip = MulticoreChip(MachineConfig.tiny(), seed=1)
        chip.hierarchy.access_many(0, list(range(64)))
        hierarchy = chip.hierarchy
        refs = [weakref.ref(cache) for cache in
                hierarchy.l1 + hierarchy.l2 + [hierarchy.l3]]
        refs.append(weakref.ref(hierarchy))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del chip, hierarchy
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()

"""L3 owner masks vs. the reference dict-of-sets owner store.

The bulk tier keeps each L3 line's owners as a bitmask in the line's
value in the L3's ordered dict (bit ``c`` set = core ``c`` owns it);
the generic walk (``REPRO_FAST_LANE=0``) keeps the reference
``_l3_owners`` dict of sets.  The mask store is a pure representation
change: for any stream, any interleaving, and either batched path,
every observable — serving levels, counters, stats, owner sets,
occupancy, back-invalidations, stolen lines — must match the reference
after every batch.  These tests drive the two differentially, pin the
owner-record edge cases (multi-owner victims with own-core
back-invalidation, flush, a non-inclusive L3, a quota), and prove the
opt-in invariant checker actually catches corruption.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.arch.hierarchy import CacheHierarchy

from tests.arch.test_bulk_kernel import (
    BATCHES,
    VECTOR_BATCHES,
    hierarchy_pair,
    snapshot,
    tier_env,
    tiny_machine,
    vector_ladder,
)


def kernel(h, core, addrs):
    return h.access_many(core, addrs)


def ladder(h, core, addrs):
    return vector_ladder(h, core, addrs)[0]


def drive_pair(machine, batches, serve, setup=None):
    """Serve ``batches`` on the mask store; compare after each batch."""
    fast, ref = hierarchy_pair(machine)
    if setup is not None:
        setup(fast)
        setup(ref)
    for core, addrs in batches:
        assert serve(fast, core, addrs) == [
            ref.access(core, a) for a in addrs
        ]
        assert fast.l3_owner_sets() == ref.l3_owner_sets()
        assert fast._occupancy == ref._occupancy
    assert snapshot(fast) == snapshot(ref)
    fast.check_owner_invariants()
    ref.check_owner_invariants()
    return fast, ref


class TestOwnerDifferential:
    """Owner masks == reference owner sets, batch by batch."""

    @settings(max_examples=30, deadline=None)
    @given(batches=BATCHES)
    def test_kernel_tier_randomized(self, batches):
        drive_pair(tiny_machine(), batches, kernel)

    @settings(max_examples=30, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_vector_tier_randomized(self, batches):
        drive_pair(tiny_machine(), batches, ladder)

    @settings(max_examples=20, deadline=None)
    @given(batches=BATCHES)
    def test_vector_tier_revisit_heavy(self, batches):
        # Classify-declined batches: the re-route through the kernel.
        drive_pair(tiny_machine(), batches, ladder)

    @settings(max_examples=20, deadline=None)
    @given(batches=BATCHES)
    def test_scalar_ladder_with_quota(self, batches):
        # An L3 quota denies the batched paths, so both stores run the
        # per-access walk — including `_evict_own_line`'s LRU-first
        # scan for an own line.
        drive_pair(tiny_machine(), batches, kernel,
                   setup=lambda h: h.set_l3_quota(0, 0.25))


class TestOwnerEdgeCases:
    """The owner-record edge cases, on the mask store."""

    def test_multi_owner_victim_with_own_core_back_invalidation(self):
        # Core 0 and core 1 share line 0 (owners {0, 1}); core 0's
        # prefetches then fill L3 set 0 until line 0 is evicted while
        # it still sits in core 0's own L2 (the demand stream lives in
        # a different L2 set, so it survives there) and in core 1's
        # caches.  The multi-owner fan-out must back-invalidate BOTH
        # cores and charge core 1 a stolen line — identically in both
        # stores.
        machine = tiny_machine(prefetch_degree=1)
        fast, ref = hierarchy_pair(machine)
        for h in (fast, ref):
            h.access(0, 0)
            h.access(1, 0)
            # Demands 15, 31, ... land in L3 set 15 / L2 set 3; their
            # next-line prefetches 16, 32, ... land in L3 set 0.
            for i in range(1, 10):
                h.access(0, 16 * i - 1)
        assert snapshot(fast) == snapshot(ref)
        assert not fast.l3.contains(0)
        assert fast.counters[0].back_invalidations >= 1
        assert fast.counters[1].back_invalidations >= 1
        assert fast.counters[1].lines_stolen >= 1
        fast.check_owner_invariants()

    def test_multi_owner_victim_in_bulk_kernel(self):
        # The same fan-out through access_many's inlined fill: core 1
        # sweeps core 0's hot set-0 lines out of the L3 from behind.
        hot = [a * 16 for a in range(8)]
        sweep = [(8 + a) * 16 for a in range(16)]
        fast, _ = drive_pair(
            tiny_machine(), [(0, hot * 3), (1, sweep)] * 6, kernel
        )
        assert any(c.back_invalidations > 0 for c in fast.counters)
        assert any(c.lines_stolen > 0 for c in fast.counters)

    def test_flush_clears_ownership_and_occupancy(self):
        fast, _ = hierarchy_pair(tiny_machine())
        fast.access_many(0, list(range(64)))
        fast.access_many(1, list(range(32)))
        assert fast.l3_owner_sets()
        assert any(fast._occupancy)
        fast.flush()
        assert fast.l3_owner_sets() == {}
        assert fast._occupancy == [0] * fast.machine.num_cores
        assert not any(fast.l3._sets)
        fast.check_owner_invariants()
        # The store keeps working after the reset.
        fast.access_many(0, list(range(16)))
        assert fast._occupancy[0] == 16
        fast.check_owner_invariants()

    def test_non_inclusive_l3_keeps_owner_masks(self):
        # Without inclusion a victim's private copies survive, but its
        # owners still lose occupancy and count stolen lines: the masks
        # carry the records, the reference map stays unused.
        hot = [a * 16 for a in range(8)]
        sweep = [(8 + a) * 16 for a in range(16)]
        fast, _ = drive_pair(
            tiny_machine(l3_inclusive=False),
            [(0, hot * 3), (1, sweep)] * 6, ladder,
        )
        assert fast._masks and not fast._l3_owners
        assert any(c.lines_stolen > 0 for c in fast.counters)
        assert not any(c.back_invalidations for c in fast.counters)

    def test_env_gate_reverts_to_dict(self):
        # The generic walk and the first-generation fast lane keep
        # list sets, so ownership lives in the reference map.
        for env in (("0", "1"), ("1", "0")):
            with tier_env(*env):
                h = CacheHierarchy(tiny_machine(), seed=3)
            assert not h._masks
            h.access_many(0, list(range(16)))
            assert h._l3_owners
            h.check_owner_invariants()


class TestInvariantChecker:
    """REPRO_DEBUG_INVARIANTS must catch real corruption, not just pass."""

    def _hier(self):
        fast, _ = hierarchy_pair(tiny_machine())
        fast.access_many(0, list(range(48)))
        fast.access_many(1, list(range(24)))
        fast.check_owner_invariants()
        return fast

    def test_occupancy_drift_detected(self):
        h = self._hier()
        h._occupancy[0] += 1
        with pytest.raises(AssertionError, match="occupancy"):
            h.check_owner_invariants()

    def test_ownerless_resident_line_detected(self):
        h = self._hier()
        # Zero a resident line's mask: it stays resident but ownerless.
        entries = next(s for s in h.l3._sets if s)
        entries[next(iter(entries))] = 0
        with pytest.raises(AssertionError, match="no owner"):
            h.check_owner_invariants()

    def test_stray_owner_bit_detected(self):
        h = self._hier()
        # Lines 24..47 are core 0's alone; claim one for core 1 too.
        entries = h.l3._sets[30 & h.l3._set_mask]
        assert entries[30] == 0b01
        entries[30] = 0b11
        with pytest.raises(AssertionError, match="occupancy"):
            h.check_owner_invariants()

    def test_dict_store_checked_too(self):
        with tier_env("0", "0"):
            h = CacheHierarchy(tiny_machine(), seed=7)
        h.access_many(0, list(range(48)))
        h.check_owner_invariants()
        addr = next(iter(h._l3_owners))
        h._l3_owners[addr].add(1)
        with pytest.raises(AssertionError):
            h.check_owner_invariants()

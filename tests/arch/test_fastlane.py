"""Hot-path specializations vs. the generic reference implementation.

The LRU-specialized probe/fill/invalidate verbs over list sets are pure
optimisations: every observable — set contents, stats, per-core
counters, simulated results — must match the generic path
(:class:`~repro.arch.replacement.LRUPolicy` through the policy
dispatch) bit for bit.  These tests drive both paths' cache verbs with
identical inputs and compare, and check the cache invariants on the
specialized path; whole runs are pinned on both paths in
``tests/golden``.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssociativeCache, _ListLRUCache
from repro.arch.chip import MulticoreChip
from repro.arch.replacement import make_policy
from repro.config import CacheGeometry, MachineConfig
from repro.workloads import synthetic

GEOMETRY = CacheGeometry(num_sets=8, associativity=4)


def make_pair(
    geometry: CacheGeometry = GEOMETRY,
) -> tuple[SetAssociativeCache, SetAssociativeCache]:
    """One specialized and one generic LRU cache, same geometry."""
    ways = geometry.associativity
    fast = SetAssociativeCache(
        "fast", geometry, make_policy("lru", ways), specialize=True
    )
    slow = SetAssociativeCache(
        "slow", geometry, make_policy("lru", ways), specialize=False
    )
    return fast, slow


def snapshot(cache: SetAssociativeCache):
    return (
        [cache.set_contents(i) for i in range(cache._num_sets)],
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.fills,
        cache.stats.evictions,
        cache.stats.invalidations,
    )


#: (op, addr) streams: 0=probe, 1=fill, 2=invalidate.
OP_STREAM = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 63)),
    min_size=1,
    max_size=300,
)


#: (op, addr) streams over two 8-way sets, with runs of one op on one
#: line made likely, so hits land on every way, the MRU one included.
RUN_STREAM = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 23), st.integers(1, 3)),
    min_size=1,
    max_size=200,
).map(lambda runs: [(op, a) for op, a, n in runs for _ in range(n)])


class TestSpecializedLru:
    def test_specialized_verbs_are_rebound(self):
        # A private level keeps plain lists on both tiers; only the
        # verbs differ.
        fast, slow = make_pair()
        assert fast.probe.__func__ is _ListLRUCache.probe
        assert fast.fill.__func__ is _ListLRUCache.fill
        assert fast.invalidate.__func__ is _ListLRUCache.invalidate
        assert slow.probe.__func__ is SetAssociativeCache.probe
        assert all(type(s) is list for s in fast._sets + slow._sets)

    def test_line_values_ask_for_dicts_on_the_fast_lane(self):
        # The hierarchy's L3 asks for a value per line (its owner
        # masks): ordered dicts on the fast lane, lists on the generic
        # tier, where the hierarchy keeps its reference owner map.
        fast, slow = (
            SetAssociativeCache("L3", GEOMETRY, make_policy("lru", 4),
                                specialize=tier, line_values=True)
            for tier in (True, False)
        )
        assert fast._dict_lru and not slow._dict_lru
        assert all(type(s) is OrderedDict for s in fast._sets)
        assert all(type(s) is list for s in slow._sets)
        assert slow.probe.__func__ is SetAssociativeCache.probe

    @pytest.mark.parametrize("policy", ["fifo", "random", "plru"])
    def test_other_policies_stay_generic(self, policy):
        cache = SetAssociativeCache(
            "c", GEOMETRY, make_policy(policy, 4), specialize=True
        )
        assert cache.probe.__func__ is SetAssociativeCache.probe

    @given(ops=OP_STREAM)
    @settings(max_examples=200, deadline=None)
    def test_equivalent_to_generic_path(self, ops):
        fast, slow = make_pair()
        for op, addr in ops:
            if op == 0:
                assert fast.probe(addr) == slow.probe(addr)
            elif op == 1:
                assert fast.fill(addr) == slow.fill(addr)
            else:
                assert fast.invalidate(addr) == slow.invalidate(addr)
        assert snapshot(fast) == snapshot(slow)

    @given(ops=RUN_STREAM)
    @settings(max_examples=200, deadline=None)
    def test_list_verbs_equal_lru_policy_each_step(self, ops):
        # Private-level geometry (8 ways): after every verb the two
        # caches' lists, return values and stats must agree, so a
        # wrong reorder shows at the step that made it.
        fast, slow = make_pair(CacheGeometry(num_sets=2, associativity=8))
        verbs = ("probe", "fill", "invalidate")
        for op, addr in ops:
            verb = verbs[op]
            assert getattr(fast, verb)(addr) == getattr(slow, verb)(addr)
            assert fast._sets == slow._sets
            assert snapshot(fast)[1:] == snapshot(slow)[1:]

    @given(ops=OP_STREAM)
    @settings(max_examples=100, deadline=None)
    def test_invariants_on_specialized_path(self, ops):
        fast, _ = make_pair()
        probes = 0
        for op, addr in ops:
            if op == 0:
                fast.probe(addr)
                probes += 1
            elif op == 1:
                fast.fill(addr)
            else:
                fast.invalidate(addr)
        assert fast.stats.hits + fast.stats.misses == probes
        assert fast.occupancy <= fast.capacity_lines
        for i in range(GEOMETRY.num_sets):
            contents = fast.set_contents(i)
            assert len(contents) <= GEOMETRY.associativity
            assert len(set(contents)) == len(contents)  # no duplicates


class TestFullRunEquivalence:
    """Whole-chip invariants on the fast lane.

    That whole runs answer the same on both paths is pinned in
    ``tests/golden``, under ``REPRO_FAST_LANE`` 1 and 0.
    """

    def test_inclusion_holds_with_fast_lane(self):
        os.environ["REPRO_FAST_LANE"] = "1"
        try:
            chip = MulticoreChip(MachineConfig.tiny(), seed=2)
            from repro.sim.process import AppClass, SimProcess

            procs = [
                SimProcess(
                    synthetic.streamer(lines=800, instructions=1e9),
                    0,
                    AppClass.LATENCY_SENSITIVE,
                ),
                SimProcess(
                    synthetic.pointer_chaser(
                        lines=500, instructions=1e9
                    ),
                    1,
                    AppClass.BATCH,
                ),
            ]
            for proc in procs:
                proc.launch()
                for _ in range(40):
                    chip.core(proc.core_id).run(proc, 5_000.0)
            assert chip.hierarchy.check_inclusion() == []
        finally:
            os.environ.pop("REPRO_FAST_LANE", None)

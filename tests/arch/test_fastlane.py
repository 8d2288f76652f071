"""Hot-path specializations vs. the generic reference implementation.

The LRU-specialized probe/fill/invalidate verbs over ordered-dict sets
are pure optimisations: every observable — set contents, stats,
per-core counters, simulated results — must match the generic path bit
for bit.  These tests drive both paths with identical inputs
and compare, and check the cache invariants on the specialized path.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssociativeCache
from repro.arch.chip import MulticoreChip
from repro.arch.replacement import make_policy
from repro.config import CacheGeometry, MachineConfig
from repro.sim import run_colocated, run_solo
from repro.workloads import synthetic

GEOMETRY = CacheGeometry(num_sets=8, associativity=4)


def make_pair() -> tuple[SetAssociativeCache, SetAssociativeCache]:
    """One specialized and one generic LRU cache, same geometry."""
    fast = SetAssociativeCache(
        "fast", GEOMETRY, make_policy("lru", 4), specialize=True
    )
    slow = SetAssociativeCache(
        "slow", GEOMETRY, make_policy("lru", 4), specialize=False
    )
    return fast, slow


def snapshot(cache: SetAssociativeCache):
    return (
        [cache.set_contents(i) for i in range(GEOMETRY.num_sets)],
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


class TestSpecializedLru:
    def test_specialized_verbs_are_rebound(self):
        fast, slow = make_pair()
        assert fast.probe.__func__ is fast._probe_lru.__func__
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


def run_fixture(flag: str):
    """A small co-located run with the fast lane forced on/off."""
    os.environ["REPRO_FAST_LANE"] = flag
    try:
        machine = MachineConfig.tiny()
        result = run_colocated(
            synthetic.streamer(lines=600, instructions=40_000.0),
            synthetic.streamer(lines=900, instructions=60_000.0),
            machine,
            seed=11,
        )
    finally:
        os.environ.pop("REPRO_FAST_LANE", None)
    return result


class TestFullRunEquivalence:
    def test_colocated_run_identical_fast_vs_generic(self):
        fast = run_fixture("1")
        slow = run_fixture("0")
        assert set(fast.processes) == set(slow.processes)
        for name, a in fast.processes.items():
            b = slow.processes[name]
            assert a.llc_miss_series() == b.llc_miss_series()
            assert a.instruction_series() == b.instruction_series()
        assert (
            fast.latency_sensitive().completion_periods
            == slow.latency_sensitive().completion_periods
        )

    def test_solo_counters_identical_fast_vs_generic(self):
        counters = {}
        for flag in ("1", "0"):
            os.environ["REPRO_FAST_LANE"] = flag
            try:
                result = run_solo(
                    synthetic.streamer(lines=700, instructions=30_000.0),
                    MachineConfig.tiny(),
                    seed=5,
                )
                ls = result.latency_sensitive()
                counters[flag] = (
                    ls.llc_miss_series(),
                    ls.completion_periods,
                )
            finally:
                os.environ.pop("REPRO_FAST_LANE", None)
        assert counters["1"] == counters["0"]

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

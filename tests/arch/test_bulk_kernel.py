"""Bulk kernel and stream path vs. the generic reference, differentially.

The bulk kernel (`CacheHierarchy.access_many` over ordered-dict LRU
sets) and the stream path (`vector_classify`/`vector_commit`) are pure
optimisations: for any address stream, any core interleaving, and any
configuration they must produce exactly the generic walk's observables
— serving levels, per-core counters, cache stats, final cache contents,
L3 ownership/occupancy, and back-invalidations.  These tests drive a
fast hierarchy and the generic reference (``REPRO_FAST_LANE=0``: list
sets, policy dispatch, the dict-of-sets owner map) with identical inputs
and compare everything, plus check that the fallback predicate routes
unsupported configurations to the per-access walk and that an L3 quota
stays on both batched paths.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssociativeCache
from repro.arch.hierarchy import CacheHierarchy
from repro.arch.replacement import make_policy
from repro.config import CacheGeometry, MachineConfig


def tiny_machine(**overrides) -> MachineConfig:
    """A small machine whose caches thrash under ~64-line streams."""
    return dataclasses.replace(MachineConfig.tiny(), **overrides)


@contextmanager
def tier_env(fast: str = "1"):
    """Pin the execution tier (``REPRO_FAST_LANE``) for the block.

    A context manager (not a fixture) so hypothesis-driven tests can
    re-enter it per generated input.  The block also arms
    ``REPRO_DEBUG_INVARIANTS`` so every batch self-checks the
    ownership store on top of the differential comparison.
    """
    keys = ("REPRO_FAST_LANE", "REPRO_DEBUG_INVARIANTS")
    saved = {k: os.environ.get(k) for k in keys}
    os.environ["REPRO_FAST_LANE"] = fast
    os.environ["REPRO_DEBUG_INVARIANTS"] = "1"
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def hierarchy_pair(machine: MachineConfig):
    """A fast hierarchy and the generic reference, identically seeded."""
    with tier_env():
        fast = CacheHierarchy(machine, seed=11)
    with tier_env("0"):
        ref = CacheHierarchy(machine, seed=11)
    assert fast._masks and not ref._masks
    return fast, ref


def snapshot(h: CacheHierarchy) -> dict:
    caches = list(h.l1) + list(h.l2) + [h.l3]
    return {
        "contents": [
            [cache.set_contents(si) for si in range(cache._num_sets)]
            for cache in caches
        ],
        "stats": [
            (c.stats.hits, c.stats.misses, c.stats.fills,
             c.stats.evictions, c.stats.invalidations)
            for c in caches
        ],
        "counters": [c.as_dict() for c in h.counters],
        "occupancy": [
            h.l3_occupancy(core)
            for core in range(h.machine.num_cores)
        ],
        "owners": {
            addr: sorted(owners)
            for addr, owners in h.l3_owner_sets().items()
        },
    }


def drive_and_compare(machine, batches):
    """Feed (core, addrs) batches to both paths; assert equality.

    The fast hierarchy consumes whole batches through ``access_many``;
    the reference replays the same stream through per-access
    ``access`` calls.  Serving levels must match per address, and
    every piece of hierarchy state must match at the end.
    """
    fast, ref = hierarchy_pair(machine)
    for core, addrs in batches:
        got = fast.access_many(core, addrs)
        want = [ref.access(core, a) for a in addrs]
        assert got == want
    assert snapshot(fast) == snapshot(ref)


#: Interleaved 2-core batches over a 64-line footprint, with runs of
#: consecutive repeats made likely: the kernel prices a repeat as an
#: L1 hit without touching a set.  Runs reach 8, the longest repeat of
#: the SPEC streams (bzip2 3, lbm 4, libquantum and namd 8).
BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 8)),
            min_size=1,
            max_size=40,
        ).map(lambda runs: [a for a, reps in runs for _ in range(reps)]),
    ),
    min_size=1,
    max_size=20,
)


class TestKernelDifferential:
    """access_many == the generic walk, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(batches=BATCHES)
    def test_randomized_two_core_streams(self, batches):
        drive_and_compare(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_non_inclusive_l3(self, batches):
        drive_and_compare(tiny_machine(l3_inclusive=False), batches)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_every_policy_matches(self, policy):
        # Non-LRU policies take the per-access fallback inside
        # access_many; either way the observable behaviour must be
        # identical.
        machine = tiny_machine(replacement=policy)
        stream = [(a * 7 + c) % 64 for a in range(200) for c in range(2)]
        batches = [(0, stream[:200]), (1, stream[200:]), (0, stream[::3])]
        with tier_env():
            fast = CacheHierarchy(machine, seed=11)
        with tier_env("0"):
            ref = CacheHierarchy(machine, seed=11)
        for core, addrs in batches:
            assert fast.access_many(core, addrs) == [
                ref.access(core, a) for a in addrs
            ]
        assert snapshot(fast) == snapshot(ref)

    def test_co_located_thrash_with_back_invalidations(self):
        # Two cores fighting over an L3 smaller than their combined
        # footprint: evictions must steal lines and back-invalidate
        # the private caches of both the evicting and the foreign core.
        machine = tiny_machine()
        # Core 0 keeps a small set hot in its private caches; core 1
        # streams a footprint larger than the L3, evicting core 0's
        # (L3-cold but privately-resident) lines from behind it.
        # All addresses are multiples of 16, so they collide in L3 set
        # 0 (16 sets): core 1's 16-line sweep evicts core 0's hot
        # lines, which are still resident in core 0's L2.
        hot = [a * 16 for a in range(8)]
        sweep = [(8 + a) * 16 for a in range(16)]
        batches = []
        for _ in range(6):
            batches.append((0, hot * 3))
            batches.append((1, sweep))
        fast, ref = hierarchy_pair(machine)
        for core, addrs in batches:
            assert fast.access_many(core, addrs) == [
                ref.access(core, a) for a in addrs
            ]
        assert snapshot(fast) == snapshot(ref)
        # The scenario must actually exercise the interesting paths.
        assert any(c.back_invalidations > 0 for c in ref.counters)
        assert any(c.lines_stolen > 0 for c in ref.counters)

    def test_repeat_across_batches_takes_the_walk(self):
        # Only a repeat inside one batch skips the walk.  Core 0's
        # batch ends on line 0; core 1 then fills eight more lines of
        # L3 set 0, evicting line 0 from the inclusive L3 and with it
        # core 0's private copies.  Core 0's next batch starts with
        # line 0 again: a memory access, not an L1 hit.
        fast, ref = hierarchy_pair(tiny_machine())
        batches = [
            (0, [3, 0]),
            (1, [16 * k for k in range(1, 9)]),
            (0, [0, 0, 3]),
        ]
        got = []
        for core, addrs in batches:
            got.append(fast.access_many(core, addrs))
            assert got[-1] == [ref.access(core, a) for a in addrs]
        assert got[2] == [4, 1, 1]
        assert fast.counters[0].back_invalidations == 1
        assert snapshot(fast) == snapshot(ref)


def vector_ladder(h, core, addrs):
    """The core's ladder for one batch: stream path, else access_many.

    Returns ``(levels, committed)``.
    """
    plan = None
    if h.bulk_kernel_ok(core):
        plan = h.vector_classify(core, np.asarray(addrs, dtype=np.int64))
    if plan is not None and h.vector_commit(core, plan, len(addrs)):
        return plan.levels.tolist(), True
    return h.access_many(core, addrs), False


def drive_vector(machine, batches, setup=None):
    """Feed batches through the stream-path ladder; the walk must match.

    Each batch first tries the stream path (classify, then commit of
    the whole batch); if it declines, the batch re-routes through
    ``access_many`` — exactly the core's fallback ladder.  Serving
    levels must match the generic reference per address, and all
    hierarchy state at the end.  ``setup(h)`` runs on both hierarchies
    first.  Returns ``(committed, fallback)`` batch counts so callers
    can assert the path they meant to test actually ran.
    """
    fast, ref = hierarchy_pair(machine)
    if setup is not None:
        setup(fast)
        setup(ref)
    committed = fallback = 0
    for core, addrs in batches:
        got, ok = vector_ladder(fast, core, addrs)
        committed += ok
        fallback += not ok
        want = [ref.access(core, a) for a in addrs]
        assert got == want
    assert snapshot(fast) == snapshot(ref)
    return committed, fallback


def _vector_stream(steps):
    """Turn (core, length, rewind, reps) steps into address batches.

    A cursor walks upward; ``rewind`` re-visits recently streamed lines
    (exercising the resident-line declines) and ``reps`` expands each
    address into a consecutive repeat run (exercising the stream
    path's repeat handling and the leading-repeat edge).
    """
    cur = 0
    batches = []
    for core, length, rewind, reps in steps:
        start = max(0, cur - rewind)
        batches.append(
            (core,
             [a for a in range(start, start + length)
              for _ in range(reps)])
        )
        cur = start + length
    return batches


#: Mostly-ascending streams with occasional rewinds and repeat runs:
#: the mix lands batches on the stream path (cold ascending runs) and
#: off it (rewinds onto resident lines).
VECTOR_BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(1, 120),
        st.integers(0, 60),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=10,
).map(_vector_stream)


def scalar_budget_walk(h, core, addrs, costs, used, budget):
    """The per-access walk's budget rule, over scalar ``access`` calls."""
    levels = []
    for addr in addrs:
        if used >= budget:
            break
        level = h.access(core, addr)
        levels.append(level)
        used += costs[level]
    return levels, used


def vector_budget_step(h, core, addrs, costs, used, budget):
    """One budgeted batch through the core's ladder.

    The stream path is priced the way ``Core.run`` prices it — one
    accumulate seeded with the running total, the cutoff found by a
    binary search — and a declined batch runs ``access_many`` under
    the same budget.  Returns ``(levels, total, committed)``.
    """
    arr = np.asarray(addrs, dtype=np.int64)
    plan = h.vector_classify(core, arr)
    if plan is None:
        levels = h.access_many(core, addrs, costs, used, budget)
        return levels, h.batch_cycles, False
    n = arr.shape[0]
    fold = np.empty(n + 1, dtype=np.float64)
    fold[0] = used
    np.take(np.asarray(costs, dtype=np.float64), plan.levels,
            out=fold[1:])
    np.add.accumulate(fold, out=fold)
    n_exec = int(np.searchsorted(fold[:n], budget, side="left"))
    assert h.vector_commit(core, plan, n_exec)
    return plan.levels[:n_exec].tolist(), float(fold[n_exec]), True


#: Per-level costs with inexact float values, so any reordered add
#: shows up in the running total.
ODD_COSTS = (0.0, 2.0, 2.0 + 6.0 / 1.5, 2.0 + 34.0 / 1.5, 2.0 + 196.0 / 1.5)
#: Integer costs, so running totals land exactly on integer budgets
#: and the strict "total before it is under the budget" rule matters.
INT_COSTS = (0.0, 1.0, 3.0, 10.0, 50.0)


class TestVectorDifferential:
    """The stream path (classify/commit) == the generic walk."""

    @settings(max_examples=60, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_randomized_streams(self, batches):
        drive_vector(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_non_inclusive_l3(self, batches):
        drive_vector(tiny_machine(l3_inclusive=False), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_small_footprint_streams_fall_back_correctly(self, batches):
        # The revisit-heavy kernel corpus: almost every batch is
        # classify-declined, so this pins the ladder's re-route.
        drive_vector(tiny_machine(), batches)

    def test_streaming_batches_commit(self):
        # The bread-and-butter case — large consecutive batches — must
        # actually take the stream path, not silently fall back.
        batches = [(0, list(range(base, base + 96)))
                   for base in range(0, 576, 96)]
        committed, fallback = drive_vector(tiny_machine(), batches)
        assert committed == len(batches)
        assert fallback == 0

    def test_dense_fill_strided_batches_commit(self):
        # Strided ascending batches far larger than the private caches
        # (tiny L1 4 lines, L2 16) and denser than the L3's ways per
        # set: every batch is a cold ascending stream, so every one
        # must commit, its fills evicting lines of the batch itself.
        batches, base = [], 0
        for stride in (3, 5, 7, 9, 11):
            batches.append(
                (0, [base + stride * i for i in range(90)])
            )
            base += stride * 90 + 1
        committed, fallback = drive_vector(tiny_machine(), batches)
        assert committed == len(batches)
        assert fallback == 0

    def test_mixed_hit_miss_batch_declines(self):
        # Re-streaming lines that fell out of the private caches but
        # still sit in the L3 is not a cold stream: classify declines
        # and the bulk kernel serves the batch.
        fast, ref = hierarchy_pair(tiny_machine())
        warm = list(range(64))
        assert fast.access_many(0, warm) == [ref.access(0, a) for a in warm]
        batch = list(range(48)) + list(range(200, 248))
        assert fast.vector_classify(0, np.asarray(batch, np.int64)) is None
        assert fast.access_many(0, batch) == [
            ref.access(0, a) for a in batch
        ]
        assert snapshot(fast) == snapshot(ref)

    def test_partial_prefix_commit(self):
        # The core's budget cutoff executes a prefix and pushes the
        # suffix back untouched: only the prefix may mutate state.
        addrs = list(range(200))
        cut = 90
        fast, ref = hierarchy_pair(tiny_machine())
        plan = fast.vector_classify(0, np.asarray(addrs, np.int64))
        assert plan is not None
        assert fast.vector_commit(0, plan, cut)
        assert plan.levels[:cut].tolist() == [
            ref.access(0, a) for a in addrs[:cut]
        ]
        assert snapshot(fast) == snapshot(ref)
        # The pushed-back suffix then re-enters as its own batch.
        suffix = addrs[cut:]
        plan2 = fast.vector_classify(0, np.asarray(suffix, np.int64))
        assert plan2 is not None
        assert fast.vector_commit(0, plan2, len(suffix))
        assert plan2.levels.tolist() == [ref.access(0, a) for a in suffix]
        assert snapshot(fast) == snapshot(ref)

    def test_mru_repeat_only_batch(self):
        # A batch that is nothing but repeats of the previous batch's
        # last line: zero collapsed accesses, pure L1-hit bookkeeping.
        fast, ref = hierarchy_pair(tiny_machine())
        for core, addrs in [(0, list(range(8))), (0, [7] * 20),
                            (0, [7, 8, 9])]:
            plan = fast.vector_classify(core, np.asarray(addrs, np.int64))
            assert plan is not None
            assert fast.vector_commit(core, plan, len(addrs))
            assert plan.levels.tolist() == [
                ref.access(core, a) for a in addrs
            ]
        assert snapshot(fast) == snapshot(ref)

    def test_overloaded_set_commits(self):
        # More lines into one L3 set than it has ways: the batch evicts
        # its own earlier lines mid-stream, which the fill loop replays
        # exactly as the walk does.
        fast, ref = hierarchy_pair(tiny_machine())
        nsets = fast.l3._num_sets
        assoc = fast.l3._assoc
        addrs = [i * nsets for i in range(2 * assoc)]
        got, committed = vector_ladder(fast, 0, addrs)
        assert committed
        assert got == [ref.access(0, a) for a in addrs]
        assert snapshot(fast) == snapshot(ref)
        assert fast.l3.stats.evictions == assoc

    def test_within_batch_revisit_declines(self):
        # Non-consecutive duplicates would hit lines the batch itself
        # fills; classification must refuse outright.
        fast, _ = hierarchy_pair(tiny_machine())
        addrs = np.asarray([5, 6, 7, 5], dtype=np.int64)
        assert fast.vector_classify(0, addrs) is None

    def test_vector_decline_mutates_nothing(self):
        # Every decline reason leaves the hierarchy untouched: a
        # descending step, a line only the L3 still holds, an
        # L1-resident line past the leading run, and a line another
        # core brought into the L3.
        fast, ref = hierarchy_pair(tiny_machine())
        for core, addrs in [(0, list(range(40))), (1, [500, 501])]:
            vector_ladder(fast, core, addrs)
            for a in addrs:
                ref.access(core, a)
        before = snapshot(fast)
        bounds = [c._max_tag for c in fast.l1 + fast.l2 + [fast.l3]]
        for batch in ([100, 101, 99], [2, 3, 100], [36, 38, 100],
                      [300, 501, 502]):
            assert fast.vector_classify(
                0, np.asarray(batch, np.int64)
            ) is None
            assert snapshot(fast) == before
            assert [c._max_tag for c in
                    fast.l1 + fast.l2 + [fast.l3]] == bounds
        assert snapshot(fast) == snapshot(ref)

    def test_vector_partial_prefix_of_repeat_stream(self):
        # Every cutoff of one batch: inside the leading run, on a
        # collapsed access, inside a repeat run, at the end.
        head = [4, 5, 5]
        batch = [5, 5, 6, 6, 6, 7, 8, 8, 9, 9, 9, 9]
        for cut in range(len(batch) + 1):
            fast, ref = hierarchy_pair(tiny_machine())
            vector_ladder(fast, 0, head)
            for a in head:
                ref.access(0, a)
            plan = fast.vector_classify(0, np.asarray(batch, np.int64))
            assert plan is not None and plan.lead == 5
            assert fast.vector_commit(0, plan, cut)
            assert plan.levels[:cut].tolist() == [
                ref.access(0, a) for a in batch[:cut]
            ]
            assert snapshot(fast) == snapshot(ref)

    def test_vector_budget_runs_out_inside_repeat_run(self):
        # Lines 0..39 four times each: a run costs 50 + 3 * 1 cycles
        # with INT_COSTS, so a budget of 5 runs + 52 cycles expires
        # after the sixth run's second repeat.  The suffix starts
        # mid-run and re-enters with a leading L1-hit run.
        addrs = [a for a in range(40) for _ in range(4)]
        fast, ref = hierarchy_pair(tiny_machine())
        budget = 53.0 * 5 + 52.0
        got, total, committed = vector_budget_step(
            fast, 0, addrs, INT_COSTS, 0.0, budget
        )
        want, want_total = scalar_budget_walk(
            ref, 0, addrs, INT_COSTS, 0.0, budget
        )
        assert committed
        assert (got, total) == (want, want_total)
        assert len(got) == 5 * 4 + 3
        rest = addrs[len(got):]
        plan = fast.vector_classify(0, np.asarray(rest, np.int64))
        assert plan is not None and plan.lead == 5
        assert fast.vector_commit(0, plan, len(rest))
        assert plan.levels.tolist() == [ref.access(0, a) for a in rest]
        assert snapshot(fast) == snapshot(ref)

    def test_vector_leading_run_refreshes_its_line(self):
        # A batch whose first line sits in the L1 but is not its set's
        # MRU line: the leading hit must move it to the MRU end, so the
        # batch's own fills into that set evict the other line.
        fast, ref = hierarchy_pair(tiny_machine())
        head = [1, 3]  # both in L1 set 1, 1 the LRU one
        batch = [1, 1, 5, 7]  # 5 and 7 fill L1 set 1 again
        for h in (fast, ref):
            h.access_many(0, head)
        plan = fast.vector_classify(0, np.asarray(batch, np.int64))
        assert plan is not None and plan.lead == 1
        assert fast.vector_commit(0, plan, 3)
        assert plan.levels[:3].tolist() == [
            ref.access(0, a) for a in batch[:3]
        ]
        assert snapshot(fast) == snapshot(ref)
        assert fast.l1[0].set_contents(1) == (1, 5)

    @settings(max_examples=40, deadline=None)
    @given(
        batches=VECTOR_BATCHES,
        costs=st.sampled_from([ODD_COSTS, INT_COSTS]),
        budgets=st.lists(
            st.one_of(st.floats(0.0, 900.0), st.integers(0, 900)),
            min_size=10, max_size=10,
        ),
    )
    def test_vector_budget_ladder_matches_scalar_walk(self, batches, costs,
                                                      budgets):
        fast, ref = hierarchy_pair(tiny_machine())
        for (core, addrs), budget in zip(batches, budgets):
            got, total, _ = vector_budget_step(
                fast, core, addrs, costs, 0.0, budget
            )
            want, want_total = scalar_budget_walk(
                ref, core, addrs, costs, 0.0, budget
            )
            assert (got, total) == (want, want_total)
        assert snapshot(fast) == snapshot(ref)

    def test_vector_back_invalidates_own_and_foreign_lines(self):
        # L3 set 0 is full when core 0's cold stream arrives: its LRU
        # line h0 is core 0's own (still in core 0's L1/L2), then h1 is
        # shared by both cores, then six lines of core 1 (the last four
        # still in core 1's L2).  The stream evicts all of them.
        fast, ref = hierarchy_pair(tiny_machine())
        h0, h1 = 16 * 50, 16 * 51
        setup = [(0, [h0, h1]), (1, [h1] + [16 * k for k in range(60, 66)])]
        for core, addrs in setup:
            for h in (fast, ref):
                h.access_many(core, addrs)
        stream = [16 * k for k in range(100, 110)]
        got, committed = vector_ladder(fast, 0, stream)
        assert committed
        assert got == [ref.access(0, a) for a in stream]
        assert snapshot(fast) == snapshot(ref)
        own, foreign = fast.counters
        assert own.back_invalidations == 2  # h0 and the shared h1
        assert foreign.lines_stolen == 7  # h1 and its six lines
        assert foreign.back_invalidations == 4  # its L2-resident lines


def budget_phases():
    """Phases whose budgets expire at every kind of cutoff point.

    A stream overflowing the tiny L3 (memory heads, each followed by a
    run of L1 MRU hits), a stream cycling through more lines than the
    L1 but fewer than the L2 (L2-hit run heads), a revisit-heavy random
    phase (classify declines, so bulk-kernel batches) and short phases
    (budgets crossing phase boundaries).
    """
    from repro.workloads.base import PhaseSpec
    from repro.workloads.patterns import (
        SequentialStreamSpec,
        UniformRandomSpec,
        ZipfSpec,
    )

    return (
        PhaseSpec(SequentialStreamSpec(lines=400, line_repeats=4),
                  duration_instructions=9000.0, mem_ratio=0.25,
                  base_cpi=0.5, overlap=1.5),
        PhaseSpec(SequentialStreamSpec(lines=8, line_repeats=3),
                  duration_instructions=2600.0, mem_ratio=0.25,
                  base_cpi=0.5, overlap=1.5),
        PhaseSpec(UniformRandomSpec(lines=64, line_repeats=2),
                  duration_instructions=1800.0, mem_ratio=0.4,
                  base_cpi=0.6, overlap=2.0),
        PhaseSpec(ZipfSpec(lines=48), duration_instructions=37.0,
                  mem_ratio=0.25, base_cpi=0.5, overlap=1.5),
        PhaseSpec(SequentialStreamSpec(lines=300, line_repeats=2),
                  duration_instructions=53.0, mem_ratio=0.5,
                  base_cpi=0.7, overlap=3.0),
    )


def peek(phase, n=64):
    """The next ``n`` addresses of ``phase``'s stream, left in place."""
    addrs = phase.take_addresses(n)
    phase.push_back(addrs, 0)
    return list(addrs)


class TestBudgetCutoff:
    """Budget-exact batched paths stop exactly where the walk does."""

    @settings(max_examples=60, deadline=None)
    @given(
        batches=BATCHES,
        costs=st.sampled_from([ODD_COSTS, INT_COSTS]),
        budgets=st.lists(
            st.one_of(st.floats(0.0, 400.0), st.integers(0, 400)),
            min_size=20, max_size=20,
        ),
        used=st.sampled_from([0.0, 1.0, 7.0, 33.5]),
    )
    def test_access_many_budget_matches_scalar_walk(self, batches, costs,
                                                    budgets, used):
        # Runs of repeats make the budget expire on a repeat priced
        # inline as well as on a walked access.
        fast, ref = hierarchy_pair(tiny_machine())
        for (core, addrs), budget in zip(batches, budgets):
            got = fast.access_many(core, addrs, costs, used, budget)
            want, total = scalar_budget_walk(
                ref, core, addrs, costs, used, budget
            )
            assert got == want
            assert fast.batch_cycles == total
        assert snapshot(fast) == snapshot(ref)

    @pytest.mark.parametrize(
        "extra, executed",
        [(25.0, 1), (50.5, 2), (52.0, 3), (52.5, 4), (53.0, 4)],
        ids=["head", "r1", "r2", "r3", "end"],
    )
    def test_access_many_budget_expires_inside_repeat_run(self, extra,
                                                          executed):
        # Lines 0..39 four times each at INT_COSTS: a run is a walked
        # miss (50 cycles) and three repeats (1 each), 53 cycles.  The
        # budget lies ``extra`` cycles into the sixth run: inside its
        # head's cost, after each of its repeats r1..r3 (exactly on
        # r2's add), or exactly on the run's last add (end).  The walk
        # stops after the sixth run's first ``executed`` accesses.
        addrs = [a for a in range(40) for _ in range(4)]
        fast, ref = hierarchy_pair(tiny_machine())
        budget = 53.0 * 5 + extra
        got = fast.access_many(0, addrs, INT_COSTS, 0.0, budget)
        want, total = scalar_budget_walk(
            ref, 0, addrs, INT_COSTS, 0.0, budget
        )
        run = [4, 1, 1, 1][:executed]
        assert (got, fast.batch_cycles) == (want, total) == (
            [4, 1, 1, 1] * 5 + run,
            53.0 * 5 + sum(INT_COSTS[level] for level in run),
        )
        assert snapshot(fast) == snapshot(ref)

    @pytest.mark.parametrize("policy", ["fifo", "random", "plru"])
    def test_fallback_honours_budget(self, policy):
        # Non-LRU policies take access_many's per-access fallback; it
        # must stop at the same access and total as the scalar walk.
        rng = np.random.default_rng(5)
        machine = tiny_machine(replacement=policy)
        with tier_env():
            fast = CacheHierarchy(machine, seed=11)
        with tier_env("0"):
            ref = CacheHierarchy(machine, seed=11)
        assert not fast.bulk_kernel_ok(0)
        cut = 0
        for _ in range(40):
            addrs = rng.integers(0, 96, size=60).tolist()
            budget = float(rng.uniform(0.0, 1500.0))
            used = float(rng.uniform(0.0, 40.0))
            got = fast.access_many(0, addrs, ODD_COSTS, used, budget)
            want, total = scalar_budget_walk(
                ref, 0, addrs, ODD_COSTS, used, budget
            )
            assert got == want
            assert fast.batch_cycles == total
            cut += len(got) < len(addrs)
        assert snapshot(fast) == snapshot(ref)
        assert cut  # some budgets expired mid-batch

    # ``inclusive`` ids keep the 0/1 spelling of a machine flag.
    @pytest.mark.parametrize("inclusive", [True, False], ids=["1", "0"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_core_run_matches_generic_walk(self, seed, inclusive):
        from repro.arch.chip import MulticoreChip
        from repro.sim.process import AppClass, SimProcess
        from repro.workloads.base import WorkloadSpec

        spec = WorkloadSpec("budget-cutoffs", budget_phases(), 1e9)
        machine = tiny_machine(l3_inclusive=inclusive)
        sides = {}
        for name, env in (("generic", "0"), ("fast", "1")):
            with tier_env(env):
                chip = MulticoreChip(machine, seed=seed)
                proc = SimProcess(spec, 0, AppClass.LATENCY_SENSITIVE,
                                  seed=seed)
                proc.launch()
                sides[name] = (chip, proc)
        rng = np.random.default_rng(seed)
        budgets = np.exp(rng.uniform(0.0, np.log(6000.0), size=900))
        seen = set()
        with tier_env():
            for call, budget in enumerate(budgets.tolist()):
                got = {}
                for name, (chip, proc) in sides.items():
                    core = chip.core(0)
                    before = proc.workload._phase_index
                    used = core.run(proc, budget)
                    if proc.workload._phase_index != before:
                        seen.add("phase boundary")
                    got[name] = (
                        used, core._stall_debt, core.accesses_issued,
                        core.cycles_executed, core.instructions_retired,
                        [peek(phase) for phase in proc.workload._phases],
                    )
                    if call % 37 == 36:
                        # Vary the memory channel's queueing delay,
                        # and so the price of a memory access.
                        chip.memory.end_period(2000)
                assert got["fast"] == got["generic"]
                chip, proc = sides["fast"]
                h = chip.hierarchy
                nxt = got["fast"][5][proc.workload._phase_index][0]
                l1 = h.l1[0]
                if l1.set_contents(nxt & l1._set_mask)[-1:] == (nxt,):
                    seen.add("L1 MRU run")
                elif not l1.contains(nxt) and h.l2[0].contains(nxt):
                    seen.add("L2-hit head")
                elif not h.l3.contains(nxt):
                    seen.add("memory access")
        (gen_chip, _), (fast_chip, _) = sides["generic"], sides["fast"]
        assert snapshot(fast_chip.hierarchy) == snapshot(gen_chip.hierarchy)
        assert fast_chip.memory.accesses == gen_chip.memory.accesses
        assert fast_chip.memory.total_queue_cycles == \
            gen_chip.memory.total_queue_cycles
        assert seen == {"L1 MRU run", "L2-hit head", "memory access",
                        "phase boundary"}
        counts = fast_chip.core(0).path_counts()
        # Both batched paths served, and no eligible access was walked.
        assert counts["path.vector"] and counts["path.bulk"]
        assert counts["path.walk"] == 0
        assert gen_chip.core(0).path_counts()["path.walk"] > 0


def streaming_path_counts(hook=None) -> dict:
    """Path counts of a tiny-machine streaming process under ``hook``.

    ``hook(chip, core)`` runs between two stretches of 30 budgets; the
    counts are the second stretch's.
    """
    from repro.arch.chip import MulticoreChip
    from repro.sim.process import AppClass, SimProcess
    from repro.workloads import synthetic

    chip = MulticoreChip(tiny_machine(), seed=1)
    proc = SimProcess(synthetic.streamer(lines=4000, instructions=1e9), 0,
                      AppClass.LATENCY_SENSITIVE)
    proc.launch()
    core = chip.core(0)
    for _ in range(30):
        core.run(proc, 4000.0)
    if hook is not None:
        hook(chip, core)
    before = core.path_counts()
    for _ in range(30):
        core.run(proc, 4000.0)
    return {k: v - before[k] for k, v in core.path_counts().items()}


class TestFallbackPredicate:
    """Configs the batched paths cannot model must take the walk."""

    def test_kernel_allowed_on_plain_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert h.bulk_kernel_ok(0)

    @pytest.mark.parametrize("overrides", [
        {"replacement": "fifo"},
        {"replacement": "plru"},
        {"model_writebacks": True},
        {"prefetch_degree": 1},
    ])
    def test_config_denies_kernel(self, overrides, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        h = CacheHierarchy(tiny_machine(**overrides), seed=1)
        assert not h.bulk_kernel_ok(0)

    def test_quota_keeps_kernel_per_core(self, monkeypatch):
        # Quotas arrive mid-run (CAER's response hook); both batched
        # paths model them, so capping a core leaves it on the kernel.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        h.set_l3_quota(0, 0.5)
        assert h.bulk_kernel_ok(0)
        assert h.bulk_kernel_ok(1)

    def test_vector_allowed_on_plain_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        # Every level stores ordered dicts, owner masks in the L3's.
        assert all(c._dict_lru for c in h.l1 + h.l2 + [h.l3])
        assert h._masks
        assert h.vector_classify(
            0, np.arange(64, dtype=np.int64)
        ) is not None
        counts = streaming_path_counts()
        assert counts["path.vector"] > 0

    def test_capped_core_keeps_vector(self):
        # A mid-run L3 quota leaves the capped core's streaming batches
        # on the stream path: nothing is walked.
        counts = streaming_path_counts(
            lambda chip, core: chip.hierarchy.set_l3_quota(0, 0.5)
        )
        assert counts["path.vector"] > 0
        assert counts["path.walk"] == 0

    @pytest.mark.parametrize("overrides", [
        {"model_writebacks": True},
        {"prefetch_degree": 2},
    ])
    def test_fallback_matches_scalar(self, overrides):
        # The fallback literally is the per-access loop; results and
        # side effects (store accumulator, prefetch fills) must match.
        machine = tiny_machine(**overrides)
        fast, ref = hierarchy_pair(machine)
        fast.set_store_ratio(0, 0.3)
        ref.set_store_ratio(0, 0.3)
        stream = [(a * 5) % 48 for a in range(300)]
        assert fast.access_many(0, stream) == [
            ref.access(0, a) for a in stream
        ]
        assert snapshot(fast) == snapshot(ref)
        assert fast._store_accumulator == ref._store_accumulator


#: Quota of 3 L3 lines on the tiny machine (16 sets x 8 ways).
QUOTA_3 = 3 / 128


def quota_case(machine, setup, batch, path):
    """Serve ``batch`` on core 0, capped at ``QUOTA_3``, after ``setup``.

    ``setup`` is a list of (core, addrs) batches both hierarchies run
    first; ``path`` is ``"kernel"`` (``access_many``) or ``"vector"``
    (the stream path, which must commit).  The generic walk serves the
    same accesses; levels and every piece of state must match.
    """
    fast, ref = hierarchy_pair(machine)
    for h in (fast, ref):
        h.set_l3_quota(0, QUOTA_3)
        for core, addrs in setup:
            h.access_many(core, addrs)
    if path == "vector":
        got, committed = vector_ladder(fast, 0, batch)
        assert committed
    else:
        got = fast.access_many(0, batch)
    assert got == [ref.access(0, a) for a in batch]
    assert snapshot(fast) == snapshot(ref)
    return fast


def own_only_line(path):
    # Core 1 holds six lines of L3 set 0.  Core 0 reaches its quota
    # mid-batch (0, 1, 2), then each fill into set 0 pre-evicts core
    # 0's own line there -- first 0, then 16 -- with its private
    # copies, instead of stealing core 1's LRU line.
    fast = quota_case(
        tiny_machine(), [(1, [16 * k for k in range(10, 16)])],
        [0, 1, 2, 16, 32], path,
    )
    own, foreign = fast.counters
    assert fast.l3.stats.invalidations == 2
    assert not fast.l3.contains(0) and not fast.l3.contains(16)
    assert fast.l3_occupancy(0) == 3
    assert foreign.lines_stolen == 0
    assert fast.l3.contains(160)
    # Own private copies go, and are not counted.
    assert fast.l2[0].stats.invalidations == 2
    assert own.back_invalidations == 0


def shared_line(path, inclusive):
    # Line 0 is shared by both cores.  At its quota core 0's fill into
    # set 0 pre-evicts it: both cores lose the occupancy, nobody counts
    # a stolen line, and on an inclusive L3 both cores' private copies
    # go, counted for core 1 only.
    fast = quota_case(
        tiny_machine(l3_inclusive=inclusive), [(1, [0]), (0, [0])],
        [1, 2, 16], path,
    )
    own, foreign = fast.counters
    assert not fast.l3.contains(0)
    assert [fast.l3_occupancy(c) for c in (0, 1)] == [3, 0]
    assert own.lines_stolen == foreign.lines_stolen == 0
    assert own.back_invalidations == 0
    assert foreign.back_invalidations == (1 if inclusive else 0)
    assert fast.l2[0].contains(0) == (not inclusive)
    assert fast.l1[1].contains(0) == fast.l2[1].contains(0) == \
        (not inclusive)


class TestQuotaOnBatchedPaths:
    """A core at its L3 quota pre-evicts its own line on every path."""

    def test_kernel_pre_evicts_own_only_line(self):
        own_only_line("kernel")

    def test_kernel_pre_evicts_shared_line(self):
        shared_line("kernel", inclusive=True)

    def test_kernel_pre_evicts_on_non_inclusive_l3(self):
        shared_line("kernel", inclusive=False)

    def test_vector_pre_evicts_own_only_line(self):
        own_only_line("vector")

    def test_vector_pre_evicts_shared_line(self):
        shared_line("vector", inclusive=True)

    def test_vector_pre_evicts_on_non_inclusive_l3(self):
        shared_line("vector", inclusive=False)

    def test_vector_reaches_quota_mid_commit(self):
        # Core 1 holds four lines of L3 set 0.  Core 0's stream, all
        # into set 0 with repeats, reaches the quota on its fourth line
        # and keeps pre-evicting its own lines from then on; the budget
        # cuts the commit inside a repeat run, and the suffix commits
        # as its own batch.
        fast, ref = hierarchy_pair(tiny_machine())
        for h in (fast, ref):
            h.set_l3_quota(0, QUOTA_3)
            h.access_many(1, [16 * k for k in range(10, 14)])
        addrs = [16 * k for k in range(100, 112) for _ in range(2)]
        budget = 51.0 * 7 + 50.0
        got, total, committed = vector_budget_step(
            fast, 0, addrs, INT_COSTS, 0.0, budget
        )
        want, want_total = scalar_budget_walk(
            ref, 0, addrs, INT_COSTS, 0.0, budget
        )
        assert committed
        assert (got, total) == (want, want_total)
        assert len(got) == 15
        assert snapshot(fast) == snapshot(ref)
        rest = addrs[len(got):]
        got, committed = vector_ladder(fast, 0, rest)
        assert committed
        assert got == [ref.access(0, a) for a in rest]
        assert snapshot(fast) == snapshot(ref)
        assert fast.l3_occupancy(0) == 3
        assert fast.l3.stats.invalidations == 12 - 3
        assert fast.counters[1].lines_stolen == 0

    @settings(max_examples=40, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_vector_randomized_streams_with_quota(self, batches):
        # Both cores capped, so each one's stream commits keep meeting
        # its quota, on lines it owns alone and lines it shares.
        def caps(h):
            h.set_l3_quota(0, QUOTA_3)
            h.set_l3_quota(1, 0.25)
        drive_vector(tiny_machine(), batches, setup=caps)

    def test_core_run_with_quota_matches_generic_walk(self):
        # Two co-located cores under random budgets; core 0's cap moves
        # between budgets, as CAER's partition response moves it, and
        # core 1 stays capped.  Every core.run must equal the generic
        # walk's, with no access walked on the fast tier.
        from repro.arch.chip import MulticoreChip
        from repro.sim.process import AppClass, SimProcess
        from repro.workloads import synthetic
        from repro.workloads.base import WorkloadSpec

        specs = (WorkloadSpec("budget-cutoffs", budget_phases(), 1e9),
                 synthetic.streamer(lines=4000, instructions=1e9))
        sides = {}
        for name, env in TIERS.items():
            with tier_env(env):
                chip = MulticoreChip(tiny_machine(), seed=3)
                procs = [SimProcess(spec, core, AppClass.BATCH, seed=3)
                         for core, spec in enumerate(specs)]
                for proc in procs:
                    proc.launch()
                chip.hierarchy.set_l3_quota(1, 0.25)
                sides[name] = (chip, procs)
        rng = np.random.default_rng(3)
        budgets = np.exp(rng.uniform(0.0, np.log(6000.0), size=300))
        with tier_env():
            for step, budget in enumerate(budgets.tolist()):
                got = {}
                for name, (chip, procs) in sides.items():
                    chip.hierarchy.set_l3_quota(
                        0, (QUOTA_3, 0.25, None)[step // 40 % 3]
                    )
                    got[name] = [
                        (chip.core(p.core_id).run(p, budget),
                         p.workload.instructions_retired)
                        for p in procs
                    ]
                    if step % 37 == 36:
                        chip.memory.end_period(2000)
                assert got["kernel"] == got["generic"]
        (gen_chip, _), (fast_chip, _) = sides["generic"], sides["kernel"]
        assert snapshot(fast_chip.hierarchy) == snapshot(gen_chip.hierarchy)
        assert fast_chip.memory.total_queue_cycles == \
            gen_chip.memory.total_queue_cycles
        assert fast_chip.hierarchy.l3.stats.invalidations > 0
        mixed, stream = (fast_chip.core(c).path_counts() for c in (0, 1))
        assert mixed["path.walk"] == stream["path.walk"] == 0
        assert mixed["path.vector"] and mixed["path.bulk"]
        assert stream["path.vector"]


class TestFlatStorageInvariants:
    """The ordered-dict set storage must stay self-consistent."""

    GEOMETRY = CacheGeometry(num_sets=4, associativity=4)

    def make_cache(self) -> SetAssociativeCache:
        with tier_env():
            cache = SetAssociativeCache(
                "dicts", self.GEOMETRY, make_policy("lru", 4),
                specialize=True,
            )
        assert cache._dict_lru
        return cache

    def check_invariants(self, cache: SetAssociativeCache) -> None:
        for si in range(self.GEOMETRY.num_sets):
            contents = cache.set_contents(si)
            assert len(contents) <= self.GEOMETRY.associativity
            assert all(addr & cache._set_mask == si for addr in contents)
            assert all(addr <= cache._max_tag for addr in contents)
        assert cache.occupancy == len(cache.resident_lines())

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 31)),
        min_size=1, max_size=200,
    ))
    def test_random_ops_preserve_invariants(self, ops):
        cache = self.make_cache()
        for op, addr in ops:
            if op == 0:
                cache.probe(addr)
            elif op == 1:
                cache.fill(addr)
            else:
                cache.invalidate(addr)
        self.check_invariants(cache)

    def test_flush_resets_flat_state(self):
        cache = self.make_cache()
        for addr in range(64):
            cache.fill(addr)
        cache.flush()
        self.check_invariants(cache)
        assert not cache.resident_lines()
        assert cache.occupancy == 0

    def test_set_contents_roundtrip_when_rotated(self):
        cache = self.make_cache()
        # Fill past capacity so the set evicts in LRU order.
        lines = list(range(0, 6 * 4, 4))
        evicted = [cache.fill(addr) for addr in lines]
        assert evicted == [None] * 4 + lines[:2]
        assert cache.set_contents(0) == tuple(lines[2:])
        assert cache.probe(lines[2])
        assert cache.set_contents(0) == tuple(lines[3:] + lines[2:3])
        self.check_invariants(cache)


class TestFlushStoreAccumulator:
    """Regression: flush() must reset the fractional store credit."""

    def test_two_flush_separated_runs_identical_writebacks(self):
        machine = tiny_machine(model_writebacks=True)
        h = CacheHierarchy(machine, seed=3)
        # A store ratio that leaves a fractional credit dangling after
        # an odd number of accesses.
        stream = [(a * 5) % 48 for a in range(301)]

        def one_run() -> int:
            before = h.counters[0].writebacks
            h.set_store_ratio(0, 0.35)
            for addr in stream:
                h.access(0, addr)
            return h.counters[0].writebacks - before

        first = one_run()
        h.flush()
        assert h._store_accumulator == [0.0] * machine.num_cores
        second = one_run()
        assert first == second


#: REPRO_FAST_LANE per execution tier.
TIERS = {"generic": "0", "kernel": "1"}


class TestEndToEndTiers:
    """Which tier and which path served a full engine run.

    That both tiers give the same answer is pinned in ``tests/golden``.
    """

    @staticmethod
    def _run(metrics=None):
        from repro.caer.runtime import caer_factory
        from repro.experiments.campaign import resolve_caer_config
        from repro.sim import run_colocated
        from repro.workloads import benchmark

        machine = MachineConfig.tiny()
        l3 = machine.l3.capacity_lines
        ls = benchmark("429.mcf", l3, length=0.02)
        batch = benchmark("470.lbm", l3, length=0.02)
        return run_colocated(
            ls, batch, machine,
            caer_factory=caer_factory(resolve_caer_config("shutter")),
            seed=2, metrics=metrics,
        )

    def test_path_counts_recorded_in_metrics(self):
        # The gauge says which flag was on; the path counters say which
        # path served the run's accesses.  Both tiers serve the same
        # accesses, split differently.
        from repro.obs import MetricsRegistry

        paths = {}
        for tier, env in TIERS.items():
            with tier_env(env):
                metrics = MetricsRegistry()
                self._run(metrics=metrics)
            snap = metrics.snapshot()
            paths[tier] = {
                name[len("sim."):]: snap[name]["value"]
                for name in snap
                if name.startswith(("sim.path.", "sim.vector."))
            }
        served = {
            tier: sum(v for k, v in counts.items() if k.startswith("path."))
            for tier, counts in paths.items()
        }
        assert len(set(served.values())) == 1
        assert paths["generic"]["path.walk"] == served["generic"]
        assert paths["generic"]["vector.classify_declines"] == 0
        kernel = paths["kernel"]
        assert kernel["path.vector"] > 0 and kernel["path.bulk"] > 0
        assert kernel["path.walk"] == 0
        assert kernel["vector.classify_declines"] > 0
        assert kernel["vector.backoff_skips"] > 0

    def test_tier_recorded_in_metrics_gauges(self):
        from repro.obs import MetricsRegistry

        for tier, want in (("generic", 0.0), ("kernel", 1.0)):
            with tier_env(TIERS[tier]):
                metrics = MetricsRegistry()
                self._run(metrics=metrics)
            snap = metrics.snapshot()
            assert snap["sim.fast_lane"]["value"] == want
            assert "sim.bulk_kernel" not in snap
            assert "sim.vector_kernel" not in snap

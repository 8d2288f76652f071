"""Bulk-access kernel vs. the scalar reference, differentially.

The bulk kernel (`CacheHierarchy.access_many` over flat-array LRU
storage) is a pure optimisation: for any address stream, any core
interleaving, and any configuration it must produce exactly the scalar
walk's observables — serving levels, per-core counters, cache stats,
final cache contents, L3 ownership/occupancy, and back-invalidations.
These tests drive a kernel-tier hierarchy and a scalar reference with
identical inputs and compare everything, plus check that the fallback
predicate routes unsupported configurations to the scalar path.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import (
    SetAssociativeCache,
    bulk_kernel_enabled,
    vector_kernel_enabled,
)
from repro.arch.hierarchy import CacheHierarchy
from repro.arch.replacement import make_policy
from repro.config import CacheGeometry, MachineConfig


def tiny_machine(**overrides) -> MachineConfig:
    """A small machine whose caches thrash under ~64-line streams."""
    return dataclasses.replace(MachineConfig.tiny(), **overrides)


@contextmanager
def tier_env(fast: str = "1", bulk: str = "1", vector: str = "0",
             owner: str = "1", fills: str = "1"):
    """Pin the execution-tier env flags for the enclosed block.

    A context manager (not a fixture) so hypothesis-driven tests can
    re-enter it per generated input.  ``vector`` defaults off so the
    existing kernel-tier differentials stay pinned one tier down; the
    tier-4 tests pass ``vector="1"`` explicitly.  ``owner``/``fills``
    pin the tier-5 ownership store and batched private fill (both
    default-on in production); the block also arms
    ``REPRO_DEBUG_INVARIANTS`` so every batch self-checks the
    ownership store on top of the differential comparison.
    """
    keys = ("REPRO_FAST_LANE", "REPRO_BULK_KERNEL",
            "REPRO_VECTOR_KERNEL", "REPRO_OWNER_ARRAYS",
            "REPRO_VECTOR_FILLS", "REPRO_DEBUG_INVARIANTS")
    saved = {k: os.environ.get(k) for k in keys}
    os.environ["REPRO_FAST_LANE"] = fast
    os.environ["REPRO_BULK_KERNEL"] = bulk
    os.environ["REPRO_VECTOR_KERNEL"] = vector
    os.environ["REPRO_OWNER_ARRAYS"] = owner
    os.environ["REPRO_VECTOR_FILLS"] = fills
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
    """Two identically seeded hierarchies (kernel target + reference)."""
    return CacheHierarchy(machine, seed=11), CacheHierarchy(machine, seed=11)


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

    The kernel hierarchy consumes whole batches through
    ``access_many``; the reference replays the same stream through
    scalar ``access`` calls.  Serving levels must match per address,
    and every piece of hierarchy state must match at the end.
    """
    kern, ref = hierarchy_pair(machine)
    for core, addrs in batches:
        got = kern.access_many(core, addrs)
        want = [ref.access(core, a) for a in addrs]
        assert got == want
    assert snapshot(kern) == snapshot(ref)


#: Interleaved 2-core batches over a 64-line footprint, with runs of
#: consecutive repeats (the kernel collapses those) made likely.
BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 3)),
            min_size=1,
            max_size=40,
        ).map(lambda runs: [a for a, reps in runs for _ in range(reps)]),
    ),
    min_size=1,
    max_size=20,
)


class TestKernelDifferential:
    """access_many == scalar access loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(batches=BATCHES)
    def test_randomized_two_core_streams(self, batches):
        with tier_env():
            drive_and_compare(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_non_inclusive_l3(self, batches):
        with tier_env():
            drive_and_compare(tiny_machine(l3_inclusive=False), batches)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_every_policy_matches(self, policy):
        # Non-LRU policies take the scalar fallback inside access_many;
        # either way the observable behaviour must be identical.
        with tier_env():
            machine = tiny_machine(replacement=policy)
            stream = [(a * 7 + c) % 64 for a in range(200) for c in range(2)]
            drive_and_compare(
                machine,
                [(0, stream[:200]), (1, stream[200:]), (0, stream[::3])],
            )

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
        with tier_env():
            kern, ref = hierarchy_pair(machine)
            for core, addrs in batches:
                assert kern.access_many(core, addrs) == [
                    ref.access(core, a) for a in addrs
                ]
        assert snapshot(kern) == snapshot(ref)
        # The scenario must actually exercise the interesting paths.
        assert any(c.back_invalidations > 0 for c in ref.counters)
        assert any(c.lines_stolen > 0 for c in ref.counters)


def drive_vector(machine, batches):
    """Feed batches through the tier-4 ladder; scalar replay must match.

    Each batch first tries the vector kernel (classify, then commit of
    the whole batch); if either declines, it re-routes through the
    kernel-tier ``access_many`` — exactly the core's fallback ladder.
    Serving levels must match the scalar reference per address, and all
    hierarchy state at the end.  Returns ``(committed, fallback)`` batch
    counts so callers can assert the path they meant to test actually
    ran.
    """
    kern, ref = hierarchy_pair(machine)
    committed = fallback = 0
    for core, addrs in batches:
        plan = None
        if kern.vector_kernel_ok(core):
            arr = np.asarray(addrs, dtype=np.int64)
            plan = kern.vector_classify(core, arr)
        if plan is not None and kern.vector_commit(
            core, plan, len(addrs)
        ):
            got = plan.levels.tolist()
            committed += 1
        else:
            got = kern.access_many(core, addrs)
            fallback += 1
        want = [ref.access(core, a) for a in addrs]
        assert got == want
    assert snapshot(kern) == snapshot(ref)
    return committed, fallback


def _vector_stream(steps):
    """Turn (core, length, rewind, reps) steps into address batches.

    A cursor walks upward; ``rewind`` re-visits recently streamed lines
    (exercising the resident-line fallback and the mixed L3 hit/miss
    strata) and ``reps`` expands each address into a consecutive repeat
    run (exercising run collapsing and the pure-MRU-repeat edge).
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
#: the mix lands batches in every vector-kernel stratum (consecutive
#: fast path, mixed hit/miss, classify-declined, commit-declined).
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


class TestVectorDifferential:
    """Tier 4 (classify/commit) == scalar access loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_randomized_streams(self, batches):
        with tier_env(vector="1"):
            drive_vector(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_non_inclusive_l3(self, batches):
        with tier_env(vector="1"):
            drive_vector(tiny_machine(l3_inclusive=False), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_small_footprint_streams_fall_back_correctly(self, batches):
        # The revisit-heavy kernel-tier corpus: almost every batch is
        # classify-declined, so this pins the ladder's scalar re-route
        # (and the scalar verbs over vector-backed L3 storage).
        with tier_env(vector="1"):
            drive_vector(tiny_machine(), batches)

    def test_streaming_batches_commit(self):
        # The bread-and-butter case — large consecutive batches — must
        # actually take the vector path, not silently fall back.  Each
        # batch spans 6 lines per tiny-L3 set, within its 8 ways (the
        # consec plan refuses batches whose own lines would evict each
        # other mid-stream).
        batches = [(0, list(range(base, base + 96)))
                   for base in range(0, 576, 96)]
        with tier_env(vector="1"):
            committed, fallback = drive_vector(tiny_machine(), batches)
        assert committed == len(batches)
        assert fallback == 0

    def test_dense_fill_strided_batches_commit(self):
        # Pointer-chase-shaped batches: non-consecutive strides far
        # larger than the private caches take the backward dense-fill
        # verb (only the surviving tail of each set's insertion stream
        # is written).  Five strided batches of 90 lines dwarf the tiny
        # L1 (4 lines) and L2 (16 lines) while spreading under 8 lines
        # per tiny-L3 set, so every batch must commit — and the scalar
        # replay in drive_vector proves the shortcut left tags, MRU,
        # resident sets and eviction counts bit-identical.
        batches, base = [], 0
        for stride in (3, 5, 7, 9, 11):
            batches.append(
                (0, [base + stride * i for i in range(90)])
            )
            base += stride * 90 + 1
        with tier_env(vector="1"):
            committed, fallback = drive_vector(tiny_machine(), batches)
        assert committed == len(batches)
        assert fallback == 0

    def test_mixed_hit_miss_batch_commits(self):
        # Re-streaming lines that fell out of the private caches but
        # still sit in the L3 exercises the mixed hit/miss strata.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            warm = list(range(64))
            assert kern.access_many(0, warm) == [
                ref.access(0, a) for a in warm
            ]
            # 0..47 are L3 hits (48..63 still sit in L1/L2, so stop
            # short of them); 200..247 are cold misses.
            batch = list(range(48)) + list(range(200, 248))
            plan = kern.vector_classify(0, np.asarray(batch, np.int64))
            assert plan is not None
            assert plan.hit is not None and plan.hit.any()
            assert kern.vector_commit(0, plan, len(batch))
            assert plan.levels.tolist() == [
                ref.access(0, a) for a in batch
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_partial_prefix_commit(self):
        # The core's budget cutoff executes a prefix and pushes the
        # suffix back untouched: only the prefix may mutate state.
        addrs = list(range(200))
        cut = 90
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            plan = kern.vector_classify(0, np.asarray(addrs, np.int64))
            assert plan is not None
            assert kern.vector_commit(0, plan, cut)
            assert plan.levels[:cut].tolist() == [
                ref.access(0, a) for a in addrs[:cut]
            ]
            assert snapshot(kern) == snapshot(ref)
            # The pushed-back suffix then re-enters as its own batch.
            suffix = addrs[cut:]
            plan2 = kern.vector_classify(
                0, np.asarray(suffix, np.int64)
            )
            assert plan2 is not None
            assert kern.vector_commit(0, plan2, len(suffix))
            assert plan2.levels.tolist() == [
                ref.access(0, a) for a in suffix
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_mru_repeat_only_batch(self):
        # A batch that is nothing but repeats of the previous batch's
        # last line: zero collapsed accesses, pure L1-hit bookkeeping.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            first = list(range(8))
            drive = [(0, first), (0, [7] * 20), (0, [7, 8, 9])]
            for core, addrs in drive:
                plan = kern.vector_classify(
                    core, np.asarray(addrs, np.int64)
                )
                assert plan is not None
                assert kern.vector_commit(core, plan, len(addrs))
                assert plan.levels.tolist() == [
                    ref.access(core, a) for a in addrs
                ]
            assert snapshot(kern) == snapshot(ref)

    def test_overloaded_set_declines_untouched(self):
        # More lines into one L3 set than it has ways: commit must
        # refuse with NO state mutated, and the scalar re-route must
        # then match the reference exactly.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            nsets = kern.l3._num_sets
            assoc = kern.l3._assoc
            addrs = [i * nsets for i in range(2 * assoc)]
            plan = kern.vector_classify(0, np.asarray(addrs, np.int64))
            assert plan is not None
            before = snapshot(kern)
            assert not kern.vector_commit(0, plan, len(addrs))
            assert snapshot(kern) == before
            assert kern.access_many(0, addrs) == [
                ref.access(0, a) for a in addrs
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_within_batch_revisit_declines(self):
        # Non-consecutive duplicates would hit lines the batch itself
        # fills; classification must refuse outright.
        with tier_env(vector="1"):
            kern, _ = hierarchy_pair(tiny_machine())
            addrs = np.asarray([5, 6, 7, 5], dtype=np.int64)
            assert kern.vector_classify(0, addrs) is None


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


#: Per-level costs with inexact float values, so any reordered add
#: shows up in the running total.
ODD_COSTS = (0.0, 2.0, 2.0 + 6.0 / 1.5, 2.0 + 34.0 / 1.5, 2.0 + 196.0 / 1.5)
#: Integer costs, so running totals land exactly on integer budgets
#: and the strict "total before it is under the budget" rule matters.
INT_COSTS = (0.0, 1.0, 3.0, 10.0, 50.0)


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
    """Budget-exact kernels stop exactly where the per-access walk does.

    Each test covers both L3 ownership stores explicitly, whatever
    ``REPRO_OWNER_ARRAYS`` the suite runs under.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        batches=BATCHES,
        costs=st.sampled_from([ODD_COSTS, INT_COSTS]),
        budgets=st.lists(
            st.one_of(st.floats(0.0, 400.0), st.integers(0, 400)),
            min_size=20, max_size=20,
        ),
        used=st.sampled_from([0.0, 1.0, 7.0, 33.5]),
        owner=st.sampled_from(["1", "0"]),
    )
    def test_access_many_budget_matches_scalar_walk(self, batches, costs,
                                                    budgets, used, owner):
        # Runs of repeats make the budget expire inside a collapsed
        # run as well as on a walked access.
        with tier_env(owner=owner):
            kern, ref = hierarchy_pair(tiny_machine())
            for (core, addrs), budget in zip(batches, budgets):
                got = kern.access_many(core, addrs, costs, used, budget)
                want, total = scalar_budget_walk(
                    ref, core, addrs, costs, used, budget
                )
                assert got == want
                assert kern.batch_cycles == total
            assert snapshot(kern) == snapshot(ref)

    @pytest.mark.parametrize("policy", ["fifo", "random", "plru"])
    def test_fallback_honours_budget(self, policy):
        # Non-LRU policies take access_many's per-access fallback; it
        # must stop at the same access and total as the scalar walk.
        rng = np.random.default_rng(5)
        with tier_env():
            kern, ref = hierarchy_pair(tiny_machine(replacement=policy))
            assert not kern.bulk_kernel_ok(0)
            cut = 0
            for _ in range(40):
                addrs = rng.integers(0, 96, size=60).tolist()
                budget = float(rng.uniform(0.0, 1500.0))
                used = float(rng.uniform(0.0, 40.0))
                got = kern.access_many(0, addrs, ODD_COSTS, used, budget)
                want, total = scalar_budget_walk(
                    ref, 0, addrs, ODD_COSTS, used, budget
                )
                assert got == want
                assert kern.batch_cycles == total
                cut += len(got) < len(addrs)
            assert snapshot(kern) == snapshot(ref)
        assert cut  # some budgets expired mid-batch

    @pytest.mark.parametrize("owner", ["1", "0"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_core_run_matches_generic_walk(self, seed, owner):
        from repro.arch.chip import MulticoreChip
        from repro.sim.process import AppClass, SimProcess
        from repro.workloads.base import WorkloadSpec

        spec = WorkloadSpec("budget-cutoffs", budget_phases(), 1e9)
        sides = {}
        for name, env in (("generic", ("0", "0", "0")),
                          ("fast", ("1", "1", "1", owner))):
            with tier_env(*env):
                chip = MulticoreChip(tiny_machine(), seed=seed)
                proc = SimProcess(spec, 0, AppClass.LATENCY_SENSITIVE,
                                  seed=seed)
                proc.launch()
                sides[name] = (chip, proc)
        rng = np.random.default_rng(seed)
        budgets = np.exp(rng.uniform(0.0, np.log(6000.0), size=900))
        seen = set()
        with tier_env("1", "1", "1"):
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
                if l1._mru[nxt & l1._set_mask] == nxt:
                    seen.add("L1 MRU run")
                elif nxt not in l1._resident and nxt in h.l2[0]._resident:
                    seen.add("L2-hit head")
                elif nxt not in h.l3._resident:
                    seen.add("memory access")
        (gen_chip, _), (fast_chip, _) = sides["generic"], sides["fast"]
        assert snapshot(fast_chip.hierarchy) == snapshot(gen_chip.hierarchy)
        assert fast_chip.memory.accesses == gen_chip.memory.accesses
        assert fast_chip.memory.total_queue_cycles == \
            gen_chip.memory.total_queue_cycles
        assert seen == {"L1 MRU run", "L2-hit head", "memory access",
                        "phase boundary"}
        counts = fast_chip.core(0).path_counts()
        # Both kernels served, and no kernel-eligible access was walked.
        assert counts["path.vector"] and counts["path.bulk"]
        assert counts["path.walk"] == counts["path.mru"] == 0
        assert gen_chip.core(0).path_counts()["path.walk"] > 0


class TestFallbackPredicate:
    """Configs the kernel cannot model must take the scalar path."""

    def test_kernel_allowed_on_plain_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
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
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(**overrides), seed=1)
        assert not h.bulk_kernel_ok(0)

    def test_quota_denies_kernel_per_core(self, monkeypatch):
        # Quotas arrive mid-run (CAER's response hook): the predicate
        # must flip off for the capped core only, and back on when the
        # cap lifts.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        h.set_l3_quota(0, 0.5)
        assert not h.bulk_kernel_ok(0)
        assert h.bulk_kernel_ok(1)
        h.set_l3_quota(0, None)
        assert h.bulk_kernel_ok(0)

    def test_env_gate_denies_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "0")
        assert not bulk_kernel_enabled()
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert not h.bulk_kernel_ok(0)
        # BULK=0 also reverts the caches to list-based storage: the
        # middle tier is exactly the first-generation fast lane.
        assert not h.l1[0]._flat

    def test_vector_allowed_on_plain_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert h.vector_kernel_ok(0)
        # Only the shared L3 carries vector storage; the private
        # levels stay list-backed (scalar fills win at their size).
        assert h.l3._vector
        assert not h.l1[0]._vector

    def test_vector_env_gate_denies_only_tier_four(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "0")
        assert not vector_kernel_enabled()
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert not h.vector_kernel_ok(0)
        assert not h.l3._vector
        # One tier down keeps working: VECTOR=0 is exactly the PR5
        # kernel configuration.
        assert h.bulk_kernel_ok(0)

    def test_bulk_prerequisites_gate_vector(self, monkeypatch):
        # Tier 4 sits on top of tier 3: anything that denies the bulk
        # kernel (here a mid-run L3 quota) denies the vector kernel
        # for the same core, and recovers when the cap lifts.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        h.set_l3_quota(0, 0.5)
        assert not h.vector_kernel_ok(0)
        assert h.vector_kernel_ok(1)
        h.set_l3_quota(0, None)
        assert h.vector_kernel_ok(0)

    def test_bulk_env_gate_denies_vector(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "0")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert not h.vector_kernel_ok(0)

    @pytest.mark.parametrize("overrides", [
        {"model_writebacks": True},
        {"prefetch_degree": 2},
    ])
    def test_fallback_matches_scalar(self, overrides, monkeypatch):
        # The fallback literally is the scalar loop; results and side
        # effects (store accumulator, prefetch fills) must match.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_BULK_KERNEL", "1")
        machine = tiny_machine(**overrides)
        kern, ref = hierarchy_pair(machine)
        kern.set_store_ratio(0, 0.3)
        ref.set_store_ratio(0, 0.3)
        stream = [(a * 5) % 48 for a in range(300)]
        assert kern.access_many(0, stream) == [
            ref.access(0, a) for a in stream
        ]
        assert snapshot(kern) == snapshot(ref)
        assert kern._store_accumulator == ref._store_accumulator


class TestFlatStorageInvariants:
    """The flat circular representation must stay self-consistent."""

    GEOMETRY = CacheGeometry(num_sets=4, associativity=4)

    def make_flat(self) -> SetAssociativeCache:
        with tier_env():
            cache = SetAssociativeCache(
                "flat", self.GEOMETRY, make_policy("lru", 4),
                specialize=True,
            )
        assert cache._flat
        return cache

    def check_invariants(self, cache: SetAssociativeCache) -> None:
        assoc = self.GEOMETRY.associativity
        resident = set()
        for si in range(self.GEOMETRY.num_sets):
            contents = cache.set_contents(si)
            assert len(contents) == len(set(contents))
            assert len(contents) == cache._fill_counts[si]
            if cache._fill_counts[si] < assoc:
                # Partially filled sets are never rotated.
                assert cache._heads[si] == 0
            if contents:
                # The MRU shadow is the logical tail.
                assert cache._mru[si] == contents[-1]
            resident.update(contents)
        assert resident == cache._resident

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 31)),
        min_size=1, max_size=200,
    ))
    def test_random_ops_preserve_invariants(self, ops):
        cache = self.make_flat()
        for op, addr in ops:
            if op == 0:
                cache.probe(addr)
            elif op == 1:
                cache.fill(addr)
            else:
                cache.invalidate(addr)
        self.check_invariants(cache)

    def test_flush_resets_flat_state(self):
        cache = self.make_flat()
        for addr in range(64):
            cache.fill(addr)
        cache.flush()
        self.check_invariants(cache)
        assert not cache._resident
        assert all(f == 0 for f in cache._fill_counts)

    def test_set_contents_roundtrip_when_rotated(self):
        cache = self.make_flat()
        # Fill past capacity so the set's circular window rotates.
        for addr in range(0, 6 * 4, 4):
            cache.fill(addr)
        before = cache.set_contents(0)
        assert cache.set_contents(0) == before
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


class TestEndToEndTiers:
    """Full engine runs must be identical across all four tiers."""

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

    def test_run_result_identical_across_tiers(self):
        results = {}
        for name, env in [
            ("generic", ("0", "0", "0")),
            ("fastlane", ("1", "0", "0")),
            ("kernel", ("1", "1", "0")),
            ("vector", ("1", "1", "1")),
            # The PR-6 vector tier reconstruction: dict ownership and
            # scalar private fills under the same classify/commit.
            ("vector_legacy", ("1", "1", "1", "0", "0")),
        ]:
            with tier_env(*env):
                results[name] = self._run()
        assert results["fastlane"] == results["generic"]
        assert results["kernel"] == results["generic"]
        assert results["vector"] == results["generic"]
        assert results["vector_legacy"] == results["generic"]

    def test_traced_run_identical_on_vector_tier(self, tmp_path):
        # Attaching metrics (and so the obs plumbing) must not perturb
        # the simulation: the vector tier's RunResult has to be
        # bit-identical with and without telemetry.
        from repro.obs import MetricsRegistry

        with tier_env("1", "1", "1"):
            bare = self._run()
            traced = self._run(metrics=MetricsRegistry())
        assert traced == bare

    def test_path_counts_recorded_in_metrics(self):
        # The gauges say which flags were on; the path counters say
        # which path served the run's accesses.  Every tier serves the
        # same accesses, split differently.
        from repro.obs import MetricsRegistry

        paths = {}
        for tier, env in [
            ("generic", ("0", "0", "0")),
            ("fastlane", ("1", "0", "0")),
            ("kernel", ("1", "1", "0")),
            ("vector", ("1", "1", "1")),
        ]:
            with tier_env(*env):
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
        assert paths["fastlane"]["path.mru"] > 0
        assert paths["kernel"]["path.bulk"] == served["kernel"]
        vector = paths["vector"]
        assert vector["path.vector"] > 0 and vector["path.bulk"] > 0
        assert vector["path.walk"] == vector["path.mru"] == 0
        assert vector["vector.classify_declines"] > 0
        assert vector["vector.backoff_skips"] > 0
        assert paths["kernel"]["vector.classify_declines"] == 0

    def test_tier_recorded_in_metrics_gauges(self):
        from repro.obs import MetricsRegistry

        for fast, bulk, vector, wants in [
            ("0", "0", "0", (0.0, 0.0, 0.0)),
            ("1", "0", "0", (1.0, 0.0, 0.0)),
            ("1", "1", "0", (1.0, 1.0, 0.0)),
            ("1", "1", "1", (1.0, 1.0, 1.0)),
        ]:
            with tier_env(fast, bulk, vector):
                metrics = MetricsRegistry()
                self._run(metrics=metrics)
            snap = metrics.snapshot()
            assert snap["sim.fast_lane"]["value"] == wants[0]
            assert snap["sim.bulk_kernel"]["value"] == wants[1]
            assert snap["sim.vector_kernel"]["value"] == wants[2]

"""The Nehalem-style cache hierarchy: private L1/L2, shared inclusive L3.

This module implements the piece of hardware the whole paper revolves
around.  Contention is *emergent* here, not injected: every core's L3
fills go through common LRU sets, so a core that inserts lines quickly
(a streaming batch application such as ``lbm``) progressively evicts the
lines of its neighbours, raising their L3 miss counts — which is exactly
the signal CAER's detectors watch.  Because the L3 is inclusive, an L3
eviction also *back-invalidates* the victim line from its owner's
private L1/L2, amplifying cross-core interference just as on the real
i7 920.

:class:`CacheHierarchy` exposes a single hot-path verb,
:meth:`CacheHierarchy.access`, returning the level that served the
access (1, 2, 3, or 4 = main memory) so the core model can charge the
right latency, and per-core cumulative counters that the PMU layer
exposes to CAER.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat as _repeat
from operator import add as _fadd
from typing import Sequence

from time import perf_counter as _perf_counter

from ..config import MachineConfig
from ..errors import ConfigError
from ..obs.profiling import PROFILER as _PROFILER
from .cache import (
    SetAssociativeCache,
    bulk_kernel_enabled,
    debug_invariants_enabled,
    owner_arrays_enabled,
    vector_fills_enabled,
)
from .replacement import make_policy
from .vector_kernel import classify as _vector_classify
from .vector_kernel import commit as _vector_commit

#: Access outcome levels returned by :meth:`CacheHierarchy.access`.
L1_HIT, L2_HIT, L3_HIT, MEMORY = 1, 2, 3, 4

#: :meth:`CacheHierarchy.access_many`'s defaults: every access is free
#: and the budget never expires, so the whole batch executes.
_NO_COSTS = (0.0, 0.0, 0.0, 0.0, 0.0)
_INF = float("inf")


class HierarchyCounters:
    """Cumulative per-core memory-system event counts.

    The PMU layer (:mod:`repro.arch.pmu`) snapshots these to produce the
    per-period deltas CAER consumes; they are therefore monotone and are
    never reset during a run.
    """

    __slots__ = (
        "l1_hits",
        "l1_misses",
        "l2_hits",
        "l2_misses",
        "l3_hits",
        "l3_misses",
        "back_invalidations",
        "lines_stolen",
        "prefetch_fills",
        "writebacks",
    )

    def __init__(self) -> None:
        self.l1_hits = 0
        self.l1_misses = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.l3_hits = 0
        self.l3_misses = 0
        #: private-cache lines of *this* core killed by L3 evictions
        self.back_invalidations = 0
        #: L3 lines of this core evicted by *another* core's fills
        self.lines_stolen = 0
        #: lines brought into the L3 by the next-line prefetcher
        self.prefetch_fills = 0
        #: dirty L3 lines of this core written back to memory
        self.writebacks = 0

    @property
    def llc_references(self) -> int:
        """Accesses that reached the shared last-level cache."""
        return self.l3_hits + self.l3_misses

    @property
    def llc_misses(self) -> int:
        """Accesses that left the chip (the paper's key event)."""
        return self.l3_misses

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot, for logging and tests."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"HierarchyCounters({self.as_dict()})"


class CacheHierarchy:
    """Private L1/L2 per core plus one shared (optionally inclusive) L3."""

    def __init__(self, machine: MachineConfig, seed: int = 0):
        self.machine = machine
        n = machine.num_cores
        self.l1 = [
            SetAssociativeCache(
                f"L1.core{c}",
                machine.l1,
                make_policy(machine.replacement, machine.l1.associativity,
                            seed + 101 * c),
            )
            for c in range(n)
        ]
        self.l2 = [
            SetAssociativeCache(
                f"L2.core{c}",
                machine.l2,
                make_policy(machine.replacement, machine.l2.associativity,
                            seed + 211 * c),
            )
            for c in range(n)
        ]
        self.l3 = SetAssociativeCache(
            "L3.shared",
            machine.l3,
            make_policy(machine.replacement, machine.l3.associativity, seed),
            vector_storage=True,
        )
        self.counters = [HierarchyCounters() for _ in range(n)]
        self._inclusive = machine.l3_inclusive
        self._prefetch_degree = machine.prefetch_degree
        self._writebacks_enabled = machine.model_writebacks
        # Per-core L3 occupancy quota in lines (None = unlimited); the
        # hardware-partitioning hook the paper's related work assumes
        # (§7: cache partitioning/QoS proposals).
        self._l3_quota: list[int | None] = [None] * n
        self._dirty: set[int] = set()
        self._store_ratio = [0.0] * n
        self._store_accumulator = [0.0] * n
        #: optional memory-channel hook so prefetch traffic is charged
        #: against bandwidth (set by the chip)
        self.memory = None
        # Owner sets: which cores pulled each resident L3 line in.  Used
        # for back-invalidation targeting and per-core occupancy stats.
        self._l3_owners: dict[int, set[int]] = {}
        self._occupancy = [0] * n
        # Tier-5 ownership store: a per-slot owner bitmask column on
        # the flat L3 (bit c = core c owns the line in that slot)
        # replacing the dict-of-sets walks with index math the batched
        # kernels can gather/scatter.  Requires flat storage (the
        # column is slot-indexed), an inclusive L3 (the only
        # configuration whose eviction fan-out is hot enough to earn
        # the column; non-inclusive hierarchies refuse the array path
        # and stay on the reference dict), and core count within an
        # int64's non-sign bits.  The dict stays the reference tier
        # (`REPRO_OWNER_ARRAYS=0`), proven bit-identical by the
        # differential suite.
        self._owner_arrays = (
            owner_arrays_enabled()
            and self.l3._flat
            and machine.l3_inclusive
            and n <= 63
        )
        if self._owner_arrays:
            self.l3.attach_owner_column()
        # Whether the vector kernel may use the batched index-math
        # private fill (REPRO_VECTOR_FILLS; the PR-6 reconstruction
        # knob of bench_simspeed's ownership gates).
        self._vector_fills = vector_fills_enabled()
        # Opt-in self-checks after every batch (differential suite).
        self._debug_invariants = debug_invariants_enabled()
        # Prebound per-core hot-path verbs (picks up the caches'
        # LRU-specialized rebindings); one list index replaces two
        # attribute lookups and a method bind per access.
        self._l1_probes = [cache.probe for cache in self.l1]
        self._l1_fills = [cache.fill for cache in self.l1]
        self._l2_probes = [cache.probe for cache in self.l2]
        self._l2_fills = [cache.fill for cache in self.l2]
        self._l3_probe = self.l3.probe
        # Whether the bulk-access kernel may be used at all (flat-array
        # LRU storage is a separate per-cache property; see
        # bulk_kernel_ok for the full predicate).
        self._bulk_enabled = bulk_kernel_enabled()
        #: cycle total after the last access :meth:`access_many`
        #: executed (its ``used`` plus the executed accesses' costs)
        self.batch_cycles = 0.0

    # -- hot path ------------------------------------------------------

    def access(self, core: int, addr: int) -> int:
        """Route one load through the hierarchy; return the serving level.

        Fills every level on the way back (write-allocate, no writeback
        modelling: the paper's contention signal is read-miss traffic).
        """
        counters = self.counters[core]
        if self._writebacks_enabled:
            acc = self._store_accumulator[core] + self._store_ratio[core]
            if acc >= 1.0:
                acc -= 1.0
                self._dirty.add(addr)
            self._store_accumulator[core] = acc
        if self._l1_probes[core](addr):
            counters.l1_hits += 1
            return L1_HIT
        counters.l1_misses += 1
        if self._l2_probes[core](addr):
            counters.l2_hits += 1
            self._l1_fills[core](addr)
            return L2_HIT
        counters.l2_misses += 1
        if self._l3_probe(addr):
            counters.l3_hits += 1
            if self._owner_arrays:
                # The probe just made the line MRU, so its slot is the
                # logical tail of its set — O(1) index math, no lookup.
                l3 = self.l3
                assoc = l3._assoc
                si = addr & l3._set_mask
                fill = l3._fill_counts[si]
                if fill < assoc:
                    slot = si * assoc + fill - 1
                else:
                    head = l3._heads[si]
                    slot = si * assoc + (head - 1 if head else assoc - 1)
                ot = l3._owner_tags
                bit = 1 << core
                ob = ot[slot]
                if not ob & bit:
                    ot[slot] = ob | bit
                    self._occupancy[core] += 1
            else:
                owners = self._l3_owners.get(addr)
                if owners is not None and core not in owners:
                    owners.add(core)
                    self._occupancy[core] += 1
            self._fill_private(core, addr)
            return L3_HIT
        counters.l3_misses += 1
        self._fill_l3(core, addr)
        self._fill_private(core, addr)
        if self._prefetch_degree:
            self._prefetch(core, addr)
        return MEMORY

    def access_many(
        self,
        core: int,
        addrs: Sequence[int],
        costs: Sequence[float] = _NO_COSTS,
        used: float = 0.0,
        budget: float = _INF,
    ) -> list[int]:
        """Route an address batch under a cycle budget; return its levels.

        ``costs[level]`` is the cycle cost of an access served at
        ``level`` (1..4).  Access ``i`` executes only while the running
        total before it is under ``budget``: the total starts at
        ``used`` and each executed access adds its cost, left to right,
        exactly as the core's per-access walk adds them.  The result
        holds the serving level of every executed access, so its length
        is the executed count and ``addrs[len(result):]`` is the
        unexecuted suffix the caller returns to its stream; the total
        after the last executed access is left in :attr:`batch_cycles`.
        With the defaults every access executes and the result equals
        ``[self.access(core, a) for a in addrs]``.

        That per-access loop, under the same budget rule, is what runs
        when :meth:`bulk_kernel_ok` denies the kernel (non-LRU
        policies, writebacks, prefetch, an L3 quota on this core, or
        ``REPRO_BULK_KERNEL=0``).  On the kernel path all hot state is
        hoisted into locals, the L1/L2/L3 probes and fills are inlined
        over the flat tag arrays, and per-access counter increments
        become batch-local integer deltas flushed into
        :class:`HierarchyCounters` (and the per-cache stats) once at
        the end.  Runs of identical consecutive addresses collapse into
        one walk plus guaranteed L1 hits: after any access the line is
        MRU in this core's L1, and nothing else can touch the hierarchy
        mid-batch (cores interleave at slice granularity).  One C-level
        fold prices a run's hits; only the run the budget expires in is
        walked member by member.
        """
        if not self.bulk_kernel_ok(core):
            access = self.access
            levels: list[int] = []
            for addr in addrs:
                if used >= budget:
                    break
                level = access(core, addr)
                levels.append(level)
                used += costs[level]
            self.batch_cycles = used
            if self._debug_invariants:
                self.check_owner_invariants()
            return levels
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3
        l1_tags = l1._tags
        l1_fill = l1._fill_counts
        l1_heads = l1._heads
        l1_mru = l1._mru
        l1_res = l1._resident
        l1_mask = l1._set_mask
        l1_assoc = l1._assoc
        l2_tags = l2._tags
        l2_fill = l2._fill_counts
        l2_heads = l2._heads
        l2_mru = l2._mru
        l2_res = l2._resident
        l2_mask = l2._set_mask
        l2_assoc = l2._assoc
        l3_tags = l3._tags
        l3_fill = l3._fill_counts
        l3_heads = l3._heads
        l3_mru = l3._mru
        l3_res = l3._resident
        l3_mask = l3._set_mask
        l3_assoc = l3._assoc
        l1_res_add = l1_res.add
        l1_res_discard = l1_res.discard
        l2_res_add = l2_res.add
        l2_res_discard = l2_res.discard
        l3_res_add = l3_res.add
        l3_res_discard = l3_res.discard
        l1_invalidate = l1.invalidate
        l2_invalidate = l2.invalidate
        owners_map = self._l3_owners
        owners_get = owners_map.get
        owners_pop = owners_map.pop
        occupancy = self._occupancy
        owner_arrays = self._owner_arrays
        l3_owner = l3._owner_tags
        own_bit = 1 << core
        counters_all = self.counters
        inclusive = self._inclusive
        l1_caches = self.l1
        l2_caches = self.l2
        counters_core = counters_all[core]
        levels = []
        lv_append = levels.append
        lv_extend = levels.extend
        c1 = costs[1]
        c2 = costs[2]
        c3 = costs[3]
        c4 = costs[4]
        # Batch-local deltas: hierarchy counters and cache stats.
        nh1 = nm1 = nh2 = nm2 = nh3 = nm3 = 0
        fl1 = ev1 = fl2 = ev2 = fl3 = ev3 = 0
        i = 0
        n = len(addrs)
        run = 0
        while True:
            if run:
                # The previous access's trailing repeats: guaranteed L1
                # MRU hits, priced by one C-level fold (the same
                # left-to-right adds).  Only a run the budget expires
                # in is walked member by member, to find its cutoff.
                total = reduce(_fadd, _repeat(c1, run), used)
                if total >= budget:
                    k = 0
                    total = used
                    while total < budget:
                        total += c1
                        k += 1
                    i -= run - k
                    run = k
                nh1 += run
                lv_extend(_repeat(1, run))
                used = total
                run = 0
            if i >= n or used >= budget:
                break
            addr = addrs[i]
            j = i + 1
            # Trailing repeats are guaranteed L1 MRU hits; let the end
            # of the batch terminate the scan instead of re-checking
            # the bound on every step.
            try:
                while addrs[j] == addr:
                    j += 1
            except IndexError:
                j = n
            run = j - i - 1
            i = j
            si1 = addr & l1_mask
            if l1_mru[si1] == addr:
                nh1 += 1
                lv_append(1)
                used += c1
                continue
            if addr in l1_res:
                # Non-MRU L1 hit: move to the logical tail (wrap-aware
                # when the full set's window is rotated).
                base1 = si1 * l1_assoc
                fill = l1_fill[si1]
                if fill < l1_assoc:
                    top = base1 + fill
                    w = l1_tags.index(addr, base1, top)
                    l1_tags[w:top - 1] = l1_tags[w + 1:top]
                    l1_tags[top - 1] = addr
                else:
                    head = l1_heads[si1]
                    w = l1_tags.index(addr, base1, base1 + l1_assoc)
                    tail = base1 + (head - 1 if head else l1_assoc - 1)
                    if w <= tail:
                        l1_tags[w:tail] = l1_tags[w + 1:tail + 1]
                        l1_tags[tail] = addr
                    else:
                        end = base1 + l1_assoc - 1
                        l1_tags[w:end] = l1_tags[w + 1:end + 1]
                        l1_tags[end] = l1_tags[base1]
                        l1_tags[base1:tail] = l1_tags[base1 + 1:tail + 1]
                        l1_tags[tail] = addr
                l1_mru[si1] = addr
                nh1 += 1
                lv_append(1)
                used += c1
                continue
            nm1 += 1
            # -- L2 probe (move-to-tail on hit) ------------------------
            si2 = addr & l2_mask
            if l2_mru[si2] == addr:
                hit = True
            elif addr in l2_res:
                base2 = si2 * l2_assoc
                fill = l2_fill[si2]
                if fill < l2_assoc:
                    top = base2 + fill
                    w = l2_tags.index(addr, base2, top)
                    l2_tags[w:top - 1] = l2_tags[w + 1:top]
                    l2_tags[top - 1] = addr
                else:
                    head = l2_heads[si2]
                    w = l2_tags.index(addr, base2, base2 + l2_assoc)
                    tail = base2 + (head - 1 if head else l2_assoc - 1)
                    if w <= tail:
                        l2_tags[w:tail] = l2_tags[w + 1:tail + 1]
                        l2_tags[tail] = addr
                    else:
                        end = base2 + l2_assoc - 1
                        l2_tags[w:end] = l2_tags[w + 1:end + 1]
                        l2_tags[end] = l2_tags[base2]
                        l2_tags[base2:tail] = l2_tags[base2 + 1:tail + 1]
                        l2_tags[tail] = addr
                l2_mru[si2] = addr
                hit = True
            else:
                hit = False
            if hit:
                nh2 += 1
                # Fill L1: the membership probe above just missed, so
                # the line is absent -- insert directly, no rescan.
                base1 = si1 * l1_assoc
                fill = l1_fill[si1]
                if fill >= l1_assoc:
                    head = l1_heads[si1]
                    slot = base1 + head
                    l1_res_discard(l1_tags[slot])
                    l1_tags[slot] = addr
                    l1_heads[si1] = head + 1 if head + 1 < l1_assoc else 0
                    ev1 += 1
                else:
                    l1_tags[base1 + fill] = addr
                    l1_fill[si1] = fill + 1
                l1_res_add(addr)
                l1_mru[si1] = addr
                fl1 += 1
                lv_append(2)
                used += c2
                continue
            nm2 += 1
            # -- L3 probe ----------------------------------------------
            si3 = addr & l3_mask
            if l3_mru[si3] == addr:
                hit = True
            elif addr in l3_res:
                base3 = si3 * l3_assoc
                fill = l3_fill[si3]
                if fill < l3_assoc:
                    top = base3 + fill
                    w = l3_tags.index(addr, base3, top)
                    if owner_arrays:
                        ob = l3_owner[w]
                        l3_owner[w:top - 1] = l3_owner[w + 1:top]
                        l3_owner[top - 1] = ob
                    l3_tags[w:top - 1] = l3_tags[w + 1:top]
                    l3_tags[top - 1] = addr
                else:
                    head = l3_heads[si3]
                    w = l3_tags.index(addr, base3, base3 + l3_assoc)
                    tail = base3 + (head - 1 if head else l3_assoc - 1)
                    if w <= tail:
                        if owner_arrays:
                            ob = l3_owner[w]
                            l3_owner[w:tail] = l3_owner[w + 1:tail + 1]
                            l3_owner[tail] = ob
                        l3_tags[w:tail] = l3_tags[w + 1:tail + 1]
                        l3_tags[tail] = addr
                    else:
                        end = base3 + l3_assoc - 1
                        if owner_arrays:
                            ob = l3_owner[w]
                            l3_owner[w:end] = l3_owner[w + 1:end + 1]
                            l3_owner[end] = l3_owner[base3]
                            l3_owner[base3:tail] = \
                                l3_owner[base3 + 1:tail + 1]
                            l3_owner[tail] = ob
                        l3_tags[w:end] = l3_tags[w + 1:end + 1]
                        l3_tags[end] = l3_tags[base3]
                        l3_tags[base3:tail] = l3_tags[base3 + 1:tail + 1]
                        l3_tags[tail] = addr
                l3_mru[si3] = addr
                hit = True
            else:
                hit = False
            if hit:
                nh3 += 1
                if owner_arrays:
                    # The hit line is now its set's logical tail.
                    fill = l3_fill[si3]
                    if fill < l3_assoc:
                        slot = si3 * l3_assoc + fill - 1
                    else:
                        head = l3_heads[si3]
                        slot = si3 * l3_assoc + \
                            (head - 1 if head else l3_assoc - 1)
                    ob = l3_owner[slot]
                    if not ob & own_bit:
                        l3_owner[slot] = ob | own_bit
                        occupancy[core] += 1
                else:
                    owners = owners_get(addr)
                    if owners is not None and core not in owners:
                        owners.add(core)
                        occupancy[core] += 1
                level = 3
                used += c3
            else:
                nm3 += 1
                # Fill L3 (absent: just probed and missed).  A full set
                # is a circular window: evict-and-insert rewrites the
                # head slot, no shifting.
                base3 = si3 * l3_assoc
                fill = l3_fill[si3]
                if fill >= l3_assoc:
                    head = l3_heads[si3]
                    slot = base3 + head
                    victim = l3_tags[slot]
                    l3_tags[slot] = addr
                    l3_heads[si3] = head + 1 if head + 1 < l3_assoc else 0
                    l3_res_discard(victim)
                    ev3 += 1
                    if owner_arrays:
                        # The victim's owner mask sits in the slot the
                        # new tag just overwrote; decode it before
                        # replacing it with our own bit.
                        vmask = l3_owner[slot]
                        if vmask == own_bit:
                            # Dominant case: evicting our own line.
                            # The mask carries over unchanged and the
                            # occupancy -1/+1 cancels.
                            if inclusive:
                                inv = False
                                if victim in l2_res:
                                    l2_invalidate(victim)
                                    inv = True
                                if victim in l1_res:
                                    l1_invalidate(victim)
                                    inv = True
                                if inv:
                                    counters_core.back_invalidations += 1
                        elif vmask == 0:
                            l3_owner[slot] = own_bit
                            occupancy[core] += 1
                        else:
                            m = vmask
                            owner = 0
                            while m:
                                if m & 1:
                                    occupancy[owner] -= 1
                                    if owner == core:
                                        if inclusive:
                                            inv = False
                                            if victim in l2_res:
                                                l2_invalidate(victim)
                                                inv = True
                                            if victim in l1_res:
                                                l1_invalidate(victim)
                                                inv = True
                                            if inv:
                                                counters_core.back_invalidations += 1
                                    else:
                                        counters_all[owner].lines_stolen += 1
                                        if inclusive:
                                            invalidated = l2_caches[
                                                owner
                                            ].invalidate(victim)
                                            invalidated |= l1_caches[
                                                owner
                                            ].invalidate(victim)
                                            if invalidated:
                                                counters_all[
                                                    owner
                                                ].back_invalidations += 1
                                m >>= 1
                                owner += 1
                            l3_owner[slot] = own_bit
                            occupancy[core] += 1
                    elif (owners := owners_pop(victim, None)) is None:
                        owners_map[addr] = {core}
                        occupancy[core] += 1
                    elif len(owners) == 1 and core in owners:
                        # Dominant case: evicting our own line.  The
                        # victim's occupancy -1 cancels the new line's
                        # +1 and the ownership set moves over as-is.
                        if inclusive:
                            # Back-invalidate our own private caches;
                            # the resident sets give the (almost
                            # always negative) verdict in one hash
                            # probe each.
                            inv = False
                            if victim in l2_res:
                                l2_invalidate(victim)
                                inv = True
                            if victim in l1_res:
                                l1_invalidate(victim)
                                inv = True
                            if inv:
                                counters_core.back_invalidations += 1
                        owners_map[addr] = owners
                    else:
                        for owner in owners:
                            occupancy[owner] -= 1
                            if owner == core:
                                if inclusive:
                                    inv = False
                                    if victim in l2_res:
                                        l2_invalidate(victim)
                                        inv = True
                                    if victim in l1_res:
                                        l1_invalidate(victim)
                                        inv = True
                                    if inv:
                                        counters_core.back_invalidations += 1
                            else:
                                counters_all[owner].lines_stolen += 1
                                if inclusive:
                                    invalidated = l2_caches[
                                        owner
                                    ].invalidate(victim)
                                    invalidated |= l1_caches[
                                        owner
                                    ].invalidate(victim)
                                    if invalidated:
                                        counters_all[
                                            owner
                                        ].back_invalidations += 1
                        # Reuse the popped set for the new line's
                        # ownership record instead of allocating one
                        # per miss.
                        owners.clear()
                        owners.add(core)
                        owners_map[addr] = owners
                        occupancy[core] += 1
                else:
                    l3_tags[base3 + fill] = addr
                    l3_fill[si3] = fill + 1
                    if owner_arrays:
                        l3_owner[base3 + fill] = own_bit
                    else:
                        owners_map[addr] = {core}
                    occupancy[core] += 1
                l3_res_add(addr)
                l3_mru[si3] = addr
                fl3 += 1
                level = 4
                used += c4
            # -- private fills (L2 then L1, both absent) ---------------
            # Fill counts are read here, after the L3-miss path: a
            # back-invalidation above may have removed our own lines.
            base2 = si2 * l2_assoc
            fill = l2_fill[si2]
            if fill >= l2_assoc:
                head = l2_heads[si2]
                slot = base2 + head
                l2_res_discard(l2_tags[slot])
                l2_tags[slot] = addr
                l2_heads[si2] = head + 1 if head + 1 < l2_assoc else 0
                ev2 += 1
            else:
                l2_tags[base2 + fill] = addr
                l2_fill[si2] = fill + 1
            l2_res_add(addr)
            l2_mru[si2] = addr
            fl2 += 1
            base1 = si1 * l1_assoc
            fill = l1_fill[si1]
            if fill >= l1_assoc:
                head = l1_heads[si1]
                slot = base1 + head
                l1_res_discard(l1_tags[slot])
                l1_tags[slot] = addr
                l1_heads[si1] = head + 1 if head + 1 < l1_assoc else 0
                ev1 += 1
            else:
                l1_tags[base1 + fill] = addr
                l1_fill[si1] = fill + 1
            l1_res_add(addr)
            l1_mru[si1] = addr
            fl1 += 1
            lv_append(level)
        if i:
            # One conservative raise of the monotone fill bounds covers
            # every fill of the executed prefix (see
            # SetAssociativeCache._max_tag); the pushed-back suffix
            # stays unfilled, so it must not raise them.
            mx = max(addrs) if i == n else max(addrs[:i])
            if mx > l1._max_tag:
                l1._max_tag = mx
            if mx > l2._max_tag:
                l2._max_tag = mx
            if mx > l3._max_tag:
                l3._max_tag = mx
        self.batch_cycles = used
        # -- flush batch-local deltas ----------------------------------
        counters_core.l1_hits += nh1
        counters_core.l1_misses += nm1
        counters_core.l2_hits += nh2
        counters_core.l2_misses += nm2
        counters_core.l3_hits += nh3
        counters_core.l3_misses += nm3
        stats = l1.stats
        stats.hits += nh1
        stats.misses += nm1
        stats.fills += fl1
        stats.evictions += ev1
        stats = l2.stats
        stats.hits += nh2
        stats.misses += nm2
        stats.fills += fl2
        stats.evictions += ev2
        stats = l3.stats
        stats.hits += nh3
        stats.misses += nm3
        stats.fills += fl3
        stats.evictions += ev3
        if self._debug_invariants:
            self.check_owner_invariants()
        return levels

    def _prefetch(self, core: int, addr: int) -> None:
        """Next-line prefetch into the L3 on a demand memory access.

        The core pays no stall for prefetched lines, but each prefetch
        is a real memory transfer: it occupies the channel (bandwidth
        accounting through :attr:`memory`) and can evict useful lines.
        """
        counters = self.counters[core]
        for delta in range(1, self._prefetch_degree + 1):
            paddr = addr + delta
            if self.l3.contains(paddr):
                continue
            self._fill_l3(core, paddr)
            counters.prefetch_fills += 1
            if self.memory is not None:
                self.memory.access(0.0)

    def _fill_private(self, core: int, addr: int) -> None:
        self._l2_fills[core](addr)
        self._l1_fills[core](addr)

    def set_l3_quota(self, core: int, fraction: float | None) -> None:
        """Cap ``core``'s L3 occupancy at ``fraction`` of capacity.

        While over quota, the core's L3 fills evict one of its *own*
        lines from the target set when possible, instead of stealing a
        neighbour's LRU line — a soft way-partition approximating the
        hardware QoS proposals of the paper's §7.  ``None`` removes the
        cap.
        """
        if fraction is None:
            self._l3_quota[core] = None
            return
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(
                f"quota fraction must be in (0, 1]: {fraction}"
            )
        self._l3_quota[core] = int(fraction * self.l3.capacity_lines)

    def set_store_ratio(self, core: int, ratio: float) -> None:
        """Declare the fraction of ``core``'s accesses that are stores.

        Called by the core model at phase boundaries; a no-op effect
        unless the machine models writebacks.
        """
        self._store_ratio[core] = ratio

    def _fill_l3(self, core: int, addr: int) -> None:
        quota = self._l3_quota[core]
        if quota is not None and self._occupancy[core] >= quota:
            self._evict_own_line(core, addr)
        victim = self.l3.fill(addr)
        if victim is not None and self._writebacks_enabled \
                and victim in self._dirty:
            # Dirty eviction: the line travels back to memory,
            # consuming channel bandwidth.
            self._dirty.discard(victim)
            self.counters[core].writebacks += 1
            if self.memory is not None:
                self.memory.access(0.0)
        if self._owner_arrays:
            self._fill_l3_owner_array(core, addr, victim)
            return
        if victim is not None:
            victim_owners = self._l3_owners.pop(victim, set())
            for owner in victim_owners:
                self._occupancy[owner] -= 1
                if owner != core:
                    self.counters[owner].lines_stolen += 1
                if self._inclusive:
                    invalidated = self.l2[owner].invalidate(victim)
                    invalidated |= self.l1[owner].invalidate(victim)
                    if invalidated:
                        self.counters[owner].back_invalidations += 1
        self._l3_owners[addr] = {core}
        self._occupancy[core] += 1

    def _fill_l3_owner_array(
        self, core: int, addr: int, victim: int | None
    ) -> None:
        """Owner bookkeeping for a just-filled L3 line (array store).

        ``SetAssociativeCache.fill`` never touches the owner column, so
        on eviction the victim's bitmask is still sitting in the slot
        the new tag landed in — decode it there, fan out the occupancy
        pops / stolen-line counts / back-invalidations, then claim the
        slot with this core's bit.
        """
        l3 = self.l3
        si = addr & l3._set_mask
        assoc = l3._assoc
        fill = l3._fill_counts[si]
        if fill < assoc:
            slot = si * assoc + fill - 1
        else:
            head = l3._heads[si]
            slot = si * assoc + (head - 1 if head else assoc - 1)
        owner_tags = l3._owner_tags
        assert owner_tags is not None
        if victim is not None:
            m = owner_tags[slot]
            owner = 0
            while m:
                if m & 1:
                    self._occupancy[owner] -= 1
                    if owner != core:
                        self.counters[owner].lines_stolen += 1
                    if self._inclusive:
                        invalidated = self.l2[owner].invalidate(victim)
                        invalidated |= self.l1[owner].invalidate(victim)
                        if invalidated:
                            self.counters[owner].back_invalidations += 1
                m >>= 1
                owner += 1
        owner_tags[slot] = 1 << core
        self._occupancy[core] += 1

    def _evict_own_line(self, core: int, addr: int) -> None:
        """Pre-evict one of ``core``'s own lines from ``addr``'s set.

        Called when the core is over its L3 quota: by removing an own
        line first, the subsequent fill lands in the freed way and no
        neighbour line is displaced.  If the core owns nothing in the
        set, the fill proceeds normally (the quota is soft).
        """
        set_index = addr & (self.l3.geometry.num_sets - 1)
        if self._owner_arrays:
            # Walk the set's slots in logical LRU order and pick the
            # first line carrying this core's owner bit (same order the
            # dict path sees through ``set_contents``).
            l3 = self.l3
            assoc = l3._assoc
            base = set_index * assoc
            fill = l3._fill_counts[set_index]
            head = l3._heads[set_index] if fill >= assoc else 0
            count = fill if fill < assoc else assoc
            owner_tags = l3._owner_tags
            assert owner_tags is not None
            tags = l3._tags
            bit = 1 << core
            for p in range(count):
                slot = base + (head + p) % assoc
                mask = owner_tags[slot]
                candidate = tags[slot]
                if mask & bit and candidate != addr:
                    # ``invalidate`` compacts the owner column in
                    # lockstep, so decode the mask first.
                    l3.invalidate(candidate)
                    m = mask
                    owner = 0
                    while m:
                        if m & 1:
                            self._occupancy[owner] -= 1
                            if self._inclusive:
                                invalidated = self.l2[owner].invalidate(
                                    candidate
                                )
                                invalidated |= self.l1[owner].invalidate(
                                    candidate
                                )
                                if invalidated and owner != core:
                                    self.counters[
                                        owner
                                    ].back_invalidations += 1
                        m >>= 1
                        owner += 1
                    return
            return
        for candidate in self.l3.set_contents(set_index):
            owners = self._l3_owners.get(candidate)
            if owners is not None and core in owners and \
                    candidate != addr:
                self.l3.invalidate(candidate)
                self._l3_owners.pop(candidate, None)
                for owner in owners:
                    self._occupancy[owner] -= 1
                    if self._inclusive:
                        invalidated = self.l2[owner].invalidate(candidate)
                        invalidated |= self.l1[owner].invalidate(candidate)
                        if invalidated and owner != core:
                            self.counters[owner].back_invalidations += 1
                return

    def l1_mru_fastpath_ok(self, core: int) -> bool:
        """Whether ``core`` may inline the L1 MRU-hit check.

        Requires the L1 policy to treat a re-touch of the MRU line as a
        no-op (LRU/FIFO/Random, with specialization on) and writeback
        modelling to be off — with stores modelled, every access must
        run the store accumulator inside :meth:`access`.
        """
        return self.l1[core].hit_is_mru_noop and \
            not self._writebacks_enabled

    def bulk_kernel_ok(self, core: int) -> bool:
        """Whether ``core`` may route batches through :meth:`access_many`.

        The single predicate centralising every fallback condition (the
        bulk sibling of :meth:`l1_mru_fastpath_ok`): the kernel inlines
        flat-array LRU walks only, so every level this core touches
        must use the flat storage (plain LRU with specialization on),
        and the per-access side channels the kernel does not model —
        the store accumulator (writebacks), the next-line prefetcher,
        and this core's L3 occupancy quota — must all be off.  Quotas
        arrive mid-run (CAER's response hook), so the answer can change
        between periods; callers re-check per batch loop.
        """
        return (
            self._bulk_enabled
            and not self._writebacks_enabled
            and not self._prefetch_degree
            and self._l3_quota[core] is None
            and self.l1[core]._flat
            and self.l2[core]._flat
            and self.l3._flat
        )

    def vector_kernel_ok(self, core: int) -> bool:
        """Whether ``core`` may route batches through the vector kernel.

        Tier 4 sits strictly above the bulk kernel in the fallback
        ladder: everything :meth:`bulk_kernel_ok` requires, plus the
        ``array('q')``-backed storage (with its numpy views) on the
        shared L3 — which
        :class:`repro.arch.cache.SetAssociativeCache` only allocates
        when ``REPRO_VECTOR_KERNEL`` was on at construction.  The
        private levels stay list-backed (the vector kernel fills them
        with scalar verbs; their capacities are too small for numpy to
        win), so only the L3 storage gates the tier.
        """
        return self.bulk_kernel_ok(core) and self.l3._vector

    def vector_classify(self, core: int, addrs):
        """Classify an int64 batch for the vector kernel (pure read).

        Returns a :class:`repro.arch.vector_kernel.BatchPlan` whose
        serving levels let the core price the whole batch before
        touching any state, or ``None`` when the batch is not provably
        uniform and must route through :meth:`access_many` instead.

        When span profiling is armed (:mod:`repro.obs.profiling`) the
        batch's wall-clock cost lands in
        ``profile.vector_classify_seconds``; disabled, the check is a
        single attribute read on the kernel's hottest seam.
        """
        if _PROFILER.enabled:
            started = _perf_counter()
            plan = _vector_classify(self, core, addrs)
            _PROFILER.observe(
                "profile.vector_classify_seconds",
                _perf_counter() - started,
            )
            return plan
        return _vector_classify(self, core, addrs)

    def vector_commit(self, core: int, plan, n_exec: int) -> bool:
        """Apply a classified batch's first ``n_exec`` accesses.

        ``False`` means the bulk update could not replay the sequential
        walk and nothing was mutated; the caller must re-route the
        untouched batch through the scalar ladder.

        Profiled into ``profile.vector_commit_seconds`` when span
        profiling is armed (see :meth:`vector_classify`).
        """
        if _PROFILER.enabled:
            started = _perf_counter()
            committed = _vector_commit(self, core, plan, n_exec)
            _PROFILER.observe(
                "profile.vector_commit_seconds",
                _perf_counter() - started,
            )
        else:
            committed = _vector_commit(self, core, plan, n_exec)
        if committed and self._debug_invariants:
            self.check_owner_invariants()
        return committed

    # -- inspection ----------------------------------------------------

    def l3_occupancy(self, core: int) -> int:
        """L3 lines currently attributed to ``core`` (owner-set based)."""
        return self._occupancy[core]

    def l3_owner_sets(self) -> dict[int, set[int]]:
        """Reconstruct ``addr -> owning cores`` from the active store.

        Store-agnostic inspection seam: the dict tier returns a deep
        copy of ``_l3_owners``; the array tier decodes each occupied
        slot's bitmask.  Differential tests compare the two directly.
        """
        if not self._owner_arrays:
            return {a: set(o) for a, o in self._l3_owners.items()}
        l3 = self.l3
        owner_tags = l3._owner_tags
        assert owner_tags is not None
        tags = l3._tags
        assoc = l3._assoc
        out: dict[int, set[int]] = {}
        for si in range(l3._num_sets):
            base = si * assoc
            for slot in range(base, base + l3._fill_counts[si]):
                m = owner_tags[slot]
                owners: set[int] = set()
                owner = 0
                while m:
                    if m & 1:
                        owners.add(owner)
                    m >>= 1
                    owner += 1
                out[tags[slot]] = owners
        return out

    def check_owner_invariants(self) -> None:
        """Assert the L3 ownership store is internally consistent.

        Opt-in via ``REPRO_DEBUG_INVARIANTS=1`` (checked after every
        batch and committed vector plan) and called directly by the
        differential suite.  Verifies, for whichever store is active:

        - the owner map covers exactly the L3-resident lines;
        - every resident line has at least one owner;
        - per-core owner-bit counts equal ``_occupancy`` (which also
          forces sum(occupancy) == total owner bits).
        """
        owners_by_addr = self.l3_owner_sets()
        resident = self.l3.resident_lines()
        if set(owners_by_addr) != resident:
            extra = sorted(set(owners_by_addr) - resident)[:8]
            missing = sorted(resident - set(owners_by_addr))[:8]
            raise AssertionError(
                "owner map and L3 resident set disagree: "
                f"owned-not-resident={extra} resident-not-owned={missing}"
            )
        counts = [0] * self.machine.num_cores
        for addr, owners in owners_by_addr.items():
            if not owners:
                raise AssertionError(f"L3 line {addr} has no owner")
            for owner in owners:
                counts[owner] += 1
        if counts != self._occupancy:
            raise AssertionError(
                "per-core occupancy drifted from owner bits: "
                f"occupancy={self._occupancy} owner-bit counts={counts}"
            )

    def l3_occupancy_fraction(self, core: int) -> float:
        """``core``'s share of total L3 capacity, in [0, 1]."""
        return self._occupancy[core] / self.l3.capacity_lines

    def check_inclusion(self) -> list[int]:
        """Return private-resident lines missing from the L3.

        Empty when the inclusion property holds; used by tests and the
        engine's (optional) sanity hooks.
        """
        if not self._inclusive:
            return []
        l3_resident = self.l3.resident_lines()
        violations: list[int] = []
        for core in range(self.machine.num_cores):
            for cache in (self.l1[core], self.l2[core]):
                violations.extend(
                    addr
                    for addr in cache.resident_lines()
                    if addr not in l3_resident
                )
        return violations

    def flush(self) -> None:
        """Empty every level (e.g. between scenario repetitions)."""
        for cache in self.l1:
            cache.flush()
        for cache in self.l2:
            cache.flush()
        self.l3.flush()
        self._l3_owners.clear()
        self._occupancy = [0] * self.machine.num_cores
        self._dirty.clear()
        # The store accumulator is per-run state too: without this
        # reset, repetition N's dirty-line marking (with writebacks
        # modelled) would depend on where repetition N-1 left the
        # fractional store credit.
        self._store_accumulator = [0.0] * self.machine.num_cores

    def counters_for(self, core: int) -> HierarchyCounters:
        """The cumulative counter bank of one core."""
        if not 0 <= core < self.machine.num_cores:
            raise ConfigError(f"no such core: {core}")
        return self.counters[core]

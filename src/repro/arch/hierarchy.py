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
exposes to CAER.  Two batched verbs serve whole address batches under a
cycle budget with the same observable effects:
:meth:`CacheHierarchy.access_many` (the bulk kernel) and the stream path
behind :meth:`CacheHierarchy.vector_classify` /
:meth:`CacheHierarchy.vector_commit`.
"""

from __future__ import annotations

from operator import contains as _contains
from time import perf_counter as _perf_counter
from typing import Sequence

import numpy as np

from ..config import MachineConfig
from ..errors import ConfigError
from ..obs.profiling import PROFILER as _PROFILER
from .cache import SetAssociativeCache, debug_invariants_enabled
from .replacement import make_policy

#: Access outcome levels returned by :meth:`CacheHierarchy.access`.
L1_HIT, L2_HIT, L3_HIT, MEMORY = 1, 2, 3, 4

#: :meth:`CacheHierarchy.access_many`'s defaults: every access is free
#: and the budget never expires, so the whole batch executes.
_NO_COSTS = (0.0, 0.0, 0.0, 0.0, 0.0)
_INF = float("inf")

_NO_POSITIONS = np.empty(0, dtype=np.int64)


def _owners_of(mask: int) -> set[int]:
    """The cores whose bits are set in an L3 owner mask."""
    return {core for core in range(mask.bit_length()) if mask >> core & 1}


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


class StreamPlan:
    """The no-mutation classification of one stream-path batch."""

    __slots__ = ("levels", "keep_raw", "lead", "misses")

    def __init__(self, levels, keep_raw, lead, misses):
        #: per-address serving level: 4 for every collapsed access (a
        #: cold miss), 1 for the repeats and the leading L1-hit run
        self.levels = levels
        #: ascending raw batch positions of the collapsed accesses
        self.keep_raw = keep_raw
        #: the batch's first line when its leading run hits the L1
        #: (it becomes that set's MRU line), else ``None``
        self.lead = lead
        #: the collapsed stream: strictly ascending, absent from all
        #: three levels at classification time
        self.misses = misses


class CacheHierarchy:
    """Private L1/L2 per core plus one shared (optionally inclusive) L3.

    Ownership — which cores pulled each resident L3 line in — drives
    back-invalidation targeting, stolen-line counts and per-core
    occupancy.  With plain LRU and the fast lane on, the L3 stores its
    sets as ordered dicts and each line's value there is its owner
    bitmask (bit ``c`` set = core ``c`` owns it); the private L1/L2
    keep plain LRU lists.  List-backed L3 sets (other policies, or
    ``REPRO_FAST_LANE=0``) keep the reference ``_l3_owners`` dict of
    sets instead.
    """

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
            line_values=True,
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
        #: whether owner masks live in the L3's ordered dicts; else the
        #: reference ``_l3_owners`` map carries ownership
        self._masks = self.l3._dict_lru
        self._l3_owners: dict[int, set[int]] = {}
        self._occupancy = [0] * n
        # Whether the batched paths may run at all: the LRU fast lane
        # (all levels share one policy and one tier, so the L3's owner
        # masks speak for the private levels' LRU lists too), and none
        # of the per-access side channels the batched paths do not
        # model (see bulk_kernel_ok).
        self._batched = (
            self._masks
            and not self._writebacks_enabled
            and not self._prefetch_degree
        )
        # Opt-in self-checks after every batch (differential suite).
        self._debug_invariants = debug_invariants_enabled()
        # Prebound per-core hot-path verbs (picks up the caches'
        # LRU-specialized subclasses); one list index replaces two
        # attribute lookups and a method bind per access.
        self._l1_probes = [cache.probe for cache in self.l1]
        self._l1_fills = [cache.fill for cache in self.l1]
        self._l2_probes = [cache.probe for cache in self.l2]
        self._l2_fills = [cache.fill for cache in self.l2]
        self._l3_probe = self.l3.probe
        #: cycle total after the last access :meth:`access_many`
        #: executed (its ``used`` plus the executed accesses' costs)
        self.batch_cycles = 0.0
        #: executed accesses of the last :meth:`access_many` batch or
        #: :meth:`vector_commit` that went to memory
        self.batch_misses = 0

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
            if self._masks:
                entries = self.l3._sets[addr & self.l3._set_mask]
                mask = entries[addr]
                bit = 1 << core
                if not mask & bit:
                    entries[addr] = mask | bit
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
        after the last executed access is left in :attr:`batch_cycles`,
        and the executed accesses that went to memory in
        :attr:`batch_misses`.
        With the defaults every access executes and the result equals
        ``[self.access(core, a) for a in addrs]``.

        That per-access loop, under the same budget rule, is what runs
        when :meth:`bulk_kernel_ok` denies the kernel (non-LRU
        policies, writebacks, prefetch, or ``REPRO_FAST_LANE=0``).  The
        kernel path is one loop: all hot state is hoisted into locals,
        the L1/L2/L3 probes and fills are inlined over the private
        levels' LRU lists and the L3's ordered dicts, and per-access
        counter increments become batch-local
        integer deltas flushed into :class:`HierarchyCounters` (and the
        per-cache stats) once at the end.  A repeat of the access just
        before it in the batch is priced inline as an L1 hit that
        touches no set: every access leaves its line MRU in this core's
        L1, and nothing else can touch the hierarchy mid-batch (cores
        interleave at slice granularity).  Nothing carries over between
        batches, where another core may evict the line.  An L3 miss of
        a core at its L3 quota first pre-evicts one of the core's own
        lines, as :meth:`access` does.
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
            self.batch_misses = levels.count(MEMORY)
            if self._debug_invariants:
                self.check_owner_invariants()
            return levels
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        l1_assoc = l1._assoc
        l2_sets = l2._sets
        l2_mask = l2._set_mask
        l2_assoc = l2._assoc
        l3_sets = l3._sets
        l3_mask = l3._set_mask
        l3_assoc = l3._assoc
        l1_invalidate = l1.invalidate
        l2_invalidate = l2.invalidate
        drop_line = self._drop_line
        evict_own = self._evict_own_line
        quota = self._l3_quota[core]
        occupancy = self._occupancy
        own_bit = 1 << core
        inclusive = self._inclusive
        counters_core = self.counters[core]
        levels = []
        c1 = costs[1]
        c2 = costs[2]
        c3 = costs[3]
        c4 = costs[4]
        # Batch-local deltas, flushed once at the end: hits at L2 and
        # L3, memory accesses, evictions per level, and this core's L3
        # occupancy (so ``occupancy[core] + occ`` is its current
        # value).  The rest follow from them (every miss fills its
        # level; an L1 hit is whatever executed without missing).
        # A private hit moves the line to the list's end unless it is
        # there already; a private refill is ``del s[0]`` plus
        # ``append``.  L3 evictions call ``popitem(False)``: the keyword
        # spelling costs ~60 ns more per call.  List ``append`` calls
        # are spelled out, not bound to locals: CPython 3.11
        # specialises the method call into an inline list append.  The
        # L3 probe is ``in`` plus a subscript on a hit, cheaper than
        # ``get`` on the miss path.
        nh2 = nh3 = nm3 = ev1 = ev2 = ev3 = occ = 0
        prev = None
        for addr in addrs:
            if used >= budget:
                break
            if addr == prev:
                # The access just before left this line MRU in our L1:
                # an L1 hit whose reorder would be a no-op.
                levels.append(1)
                used += c1
                continue
            prev = addr
            set1 = l1_sets[addr & l1_mask]
            if addr in set1:
                if set1[-1] != addr:
                    set1.remove(addr)
                    set1.append(addr)
                levels.append(1)
                used += c1
                continue
            set2 = l2_sets[addr & l2_mask]
            if addr in set2:
                if set2[-1] != addr:
                    set2.remove(addr)
                    set2.append(addr)
                nh2 += 1
                # Fill L1: the probe above just missed, so the line is
                # absent -- insert directly.
                if len(set1) >= l1_assoc:
                    del set1[0]
                    ev1 += 1
                set1.append(addr)
                levels.append(2)
                used += c2
                continue
            set3 = l3_sets[addr & l3_mask]
            if addr in set3:
                set3.move_to_end(addr)
                nh3 += 1
                mask = set3[addr]
                if not mask & own_bit:
                    set3[addr] = mask | own_bit
                    occ += 1
                levels.append(3)
                used += c3
            else:
                nm3 += 1
                if quota is not None and occupancy[core] + occ >= quota:
                    evict_own(core, addr)
                if len(set3) >= l3_assoc:
                    victim, mask = set3.popitem(False)
                    ev3 += 1
                    if mask == own_bit:
                        # Dominant case: evicting our own line.  Its
                        # occupancy -1 cancels the new line's +1; on an
                        # inclusive L3 our own private copies go too.
                        occ -= 1
                        if inclusive:
                            inv = False
                            if victim in l2_sets[victim & l2_mask]:
                                l2_invalidate(victim)
                                inv = True
                            if victim in l1_sets[victim & l1_mask]:
                                l1_invalidate(victim)
                                inv = True
                            if inv:
                                counters_core.back_invalidations += 1
                    else:
                        drop_line(core, victim, mask)
                set3[addr] = own_bit
                occ += 1
                levels.append(4)
                used += c4
            # -- private fills (L2 then L1, both absent) ---------------
            # Set sizes are read here, after the L3-miss path: a
            # back-invalidation above may have removed our own lines.
            if len(set2) >= l2_assoc:
                del set2[0]
                ev2 += 1
            set2.append(addr)
            if len(set1) >= l1_assoc:
                del set1[0]
                ev1 += 1
            set1.append(addr)
        i = len(levels)
        if i:
            # One conservative raise of the monotone fill bounds covers
            # every fill of the executed prefix (see
            # SetAssociativeCache._max_tag); the pushed-back suffix
            # stays unfilled, so it must not raise them.
            mx = max(addrs) if i == len(addrs) else max(addrs[:i])
            if mx > l1._max_tag:
                l1._max_tag = mx
            if mx > l2._max_tag:
                l2._max_tag = mx
            if mx > l3._max_tag:
                l3._max_tag = mx
        self.batch_cycles = used
        self.batch_misses = nm3
        # -- flush batch-local deltas ----------------------------------
        nm2 = nh3 + nm3
        nm1 = nh2 + nm2
        nh1 = i - nm1
        occupancy[core] += occ
        counters_core.l1_hits += nh1
        counters_core.l1_misses += nm1
        counters_core.l2_hits += nh2
        counters_core.l2_misses += nm2
        counters_core.l3_hits += nh3
        counters_core.l3_misses += nm3
        stats = l1.stats
        stats.hits += nh1
        stats.misses += nm1
        stats.fills += nm1
        stats.evictions += ev1
        stats = l2.stats
        stats.hits += nh2
        stats.misses += nm2
        stats.fills += nm2
        stats.evictions += ev2
        stats = l3.stats
        stats.hits += nh3
        stats.misses += nm3
        stats.fills += nm3
        stats.evictions += ev3
        if self._debug_invariants:
            self.check_owner_invariants()
        return levels

    def _drop_line(self, core: int, victim: int, mask: int) -> None:
        """Owner fan-out of L3 line ``victim``, evicted by ``core``'s fill.

        Every owner in ``mask`` loses the line from its occupancy, each
        owner other than ``core`` counts it as stolen, and on an
        inclusive L3 every owner's private copies are back-invalidated.
        """
        occupancy = self._occupancy
        counters = self.counters
        owner = 0
        while mask:
            if mask & 1:
                occupancy[owner] -= 1
                if owner != core:
                    counters[owner].lines_stolen += 1
                if self._inclusive:
                    invalidated = self.l2[owner].invalidate(victim)
                    invalidated |= self.l1[owner].invalidate(victim)
                    if invalidated:
                        counters[owner].back_invalidations += 1
            mask >>= 1
            owner += 1

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
        """Fill absent line ``addr`` into the L3 on ``core``'s behalf."""
        quota = self._l3_quota[core]
        if quota is not None and self._occupancy[core] >= quota:
            self._evict_own_line(core, addr)
        l3 = self.l3
        if self._masks:
            entries = l3._sets[addr & l3._set_mask]
            victim = None
            mask = 0
            if len(entries) >= l3._assoc:
                victim, mask = entries.popitem(False)
                l3.stats.evictions += 1
            entries[addr] = 1 << core
            l3.stats.fills += 1
            if addr > l3._max_tag:
                l3._max_tag = addr
        else:
            victim = l3.fill(addr)
        if victim is not None and self._writebacks_enabled \
                and victim in self._dirty:
            # Dirty eviction: the line travels back to memory,
            # consuming channel bandwidth.
            self._dirty.discard(victim)
            self.counters[core].writebacks += 1
            if self.memory is not None:
                self.memory.access(0.0)
        if self._masks:
            if victim is not None:
                self._drop_line(core, victim, mask)
            self._occupancy[core] += 1
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

    def _evict_own_line(self, core: int, addr: int) -> None:
        """Pre-evict one of ``core``'s own lines from ``addr``'s set.

        Called when the core is over its L3 quota: by removing an own
        line first, the subsequent fill lands in the freed way and no
        neighbour line is displaced.  If the core owns nothing in the
        set, the fill proceeds normally (the quota is soft).  The
        candidate is the set's least recently used own line.
        """
        set_index = addr & (self.l3.geometry.num_sets - 1)
        if self._masks:
            bit = 1 << core
            for candidate, mask in self.l3._sets[set_index].items():
                if mask & bit and candidate != addr:
                    break
            else:
                return
            self.l3.invalidate(candidate)
            owners = _owners_of(mask)
        else:
            for candidate in self.l3.set_contents(set_index):
                owners = self._l3_owners.get(candidate)
                if owners is not None and core in owners and \
                        candidate != addr:
                    break
            else:
                return
            self.l3.invalidate(candidate)
            self._l3_owners.pop(candidate, None)
        for owner in owners:
            self._occupancy[owner] -= 1
            if self._inclusive:
                invalidated = self.l2[owner].invalidate(candidate)
                invalidated |= self.l1[owner].invalidate(candidate)
                if invalidated and owner != core:
                    self.counters[owner].back_invalidations += 1

    def bulk_kernel_ok(self, core: int) -> bool:
        """Whether ``core`` may route batches through the batched paths.

        The single predicate centralising every fallback condition for
        :meth:`access_many`'s kernel and the stream path alike: both
        inline LRU walks only, over the private levels' lists and the
        L3's ordered dicts of owner masks, so every level must use
        that storage (plain LRU with specialization on), and the
        per-access side channels they do not model — the store
        accumulator (writebacks) and the next-line prefetcher — must
        both be off.  Both paths model the L3 quota, so the answer is
        the same for every core and fixed at construction.
        """
        return self._batched

    # -- stream path ---------------------------------------------------

    def vector_classify(self, core: int, addrs):
        """Classify an int64 batch for the stream path (pure read).

        The stream path serves the streaming shape — the ``lbm`` and
        ``libquantum`` batches — without probing: after an optional
        leading run of an L1-resident line (the batch boundary may
        split a repeat run), consecutive duplicates collapse to one
        access plus guaranteed L1 hits, and the collapsed stream must
        be strictly ascending and absent from every level this core
        can hit (on an inclusive L3 the L3 alone proves it).  Each
        collapsed access is then a cold miss served by memory, so the
        per-address serving levels in the returned :class:`StreamPlan`
        let the core price the whole batch, find the exact budget
        cutoff and push the unexecuted suffix back untouched.  Returns
        ``None`` for any other batch, which must route through
        :meth:`access_many` instead.

        When span profiling is armed (:mod:`repro.obs.profiling`) the
        batch's wall-clock cost lands in
        ``profile.vector_classify_seconds``; disabled, the check is a
        single attribute read on the path's hottest seam.
        """
        if _PROFILER.enabled:
            started = _perf_counter()
            plan = self._classify_stream(core, addrs)
            _PROFILER.observe(
                "profile.vector_classify_seconds",
                _perf_counter() - started,
            )
            return plan
        return self._classify_stream(core, addrs)

    def _classify_stream(self, core: int, addrs):
        n = addrs.shape[0]
        l1 = self.l1[core]
        levels = np.ones(n, dtype=np.int64)
        a0 = int(addrs[0])
        lead = 0
        if a0 in l1._sets[a0 & l1._set_mask]:
            others = np.flatnonzero(addrs != a0)
            if not others.size:
                return StreamPlan(levels, _NO_POSITIONS, a0, [])
            lead = int(others[0])
        work = addrs[lead:]
        keep = np.empty(work.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(work[1:], work[:-1], out=keep[1:])
        keep_raw = np.flatnonzero(keep)
        if lead:
            keep_raw += lead
        c = addrs[keep_raw]
        if c.shape[0] > 1 and not (c[1:] > c[:-1]).all():
            return None
        misses = c.tolist()
        levels_to_check = (
            (self.l3,) if self._inclusive
            else (l1, self.l2[core], self.l3)
        )
        for cache in levels_to_check:
            # An ascending stream past everything the cache ever held
            # is absent in one comparison (SetAssociativeCache._max_tag).
            if cache._max_tag >= misses[0] and any(map(
                _contains,
                map(cache._sets.__getitem__,
                    (c & cache._set_mask).tolist()),
                misses,
            )):
                return None
        levels[keep_raw] = MEMORY
        return StreamPlan(levels, keep_raw, a0 if lead else None, misses)

    def vector_commit(self, core: int, plan, n_exec: int) -> bool:
        """Apply a classified batch's first ``n_exec`` accesses.

        Always commits, because classification proved every executed
        access a cold miss, whatever the fills evict on the way: every
        counter, stat, set, owner mask and occupancy figure then equals
        the per-access walk over that prefix, and the executed accesses
        that went to memory are left in :attr:`batch_misses`.  Returns
        ``True`` (the benchmark ledger counts a falsy return as a
        refusal).

        Profiled into ``profile.vector_commit_seconds`` when span
        profiling is armed (see :meth:`vector_classify`).
        """
        if _PROFILER.enabled:
            started = _perf_counter()
            self._commit_stream(core, plan, n_exec)
            _PROFILER.observe(
                "profile.vector_commit_seconds",
                _perf_counter() - started,
            )
        else:
            self._commit_stream(core, plan, n_exec)
        if self._debug_invariants:
            self.check_owner_invariants()
        return True

    def _commit_stream(self, core: int, plan: StreamPlan,
                       n_exec: int) -> None:
        # The fill loop is access_many's miss path without the probes:
        # every executed collapsed access misses all three levels.
        m = self.batch_misses = int(plan.keep_raw.searchsorted(n_exec))
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        l1_assoc = l1._assoc
        lead = plan.lead
        if lead is not None and n_exec:
            entries = l1_sets[lead & l1_mask]
            if entries[-1] != lead:
                entries.remove(lead)
                entries.append(lead)
        l2_sets = l2._sets
        l2_mask = l2._set_mask
        l2_assoc = l2._assoc
        l3_sets = l3._sets
        l3_mask = l3._set_mask
        l3_assoc = l3._assoc
        l1_invalidate = l1.invalidate
        l2_invalidate = l2.invalidate
        drop_line = self._drop_line
        evict_own = self._evict_own_line
        quota = self._l3_quota[core]
        occupancy = self._occupancy
        own_bit = 1 << core
        inclusive = self._inclusive
        counters = self.counters[core]
        ev1 = ev2 = ev3 = occ = 0
        misses = plan.misses if m == len(plan.misses) else plan.misses[:m]
        for addr in misses:
            entries = l3_sets[addr & l3_mask]
            # A quota eviction only removes lines, and the batch never
            # revisits one it filled: every access still misses.
            if quota is not None and occupancy[core] + occ >= quota:
                evict_own(core, addr)
            if len(entries) >= l3_assoc:
                victim, mask = entries.popitem(False)
                ev3 += 1
                if mask == own_bit:
                    occ -= 1
                    if inclusive:
                        inv = False
                        if victim in l2_sets[victim & l2_mask]:
                            l2_invalidate(victim)
                            inv = True
                        if victim in l1_sets[victim & l1_mask]:
                            l1_invalidate(victim)
                            inv = True
                        if inv:
                            counters.back_invalidations += 1
                else:
                    drop_line(core, victim, mask)
            entries[addr] = own_bit
            occ += 1
            entries = l2_sets[addr & l2_mask]
            if len(entries) >= l2_assoc:
                del entries[0]
                ev2 += 1
            entries.append(addr)
            entries = l1_sets[addr & l1_mask]
            if len(entries) >= l1_assoc:
                del entries[0]
                ev1 += 1
            entries.append(addr)
        nh1 = n_exec - m
        occupancy[core] += occ
        counters.l1_hits += nh1
        counters.l1_misses += m
        counters.l2_misses += m
        counters.l3_misses += m
        stats = l1.stats
        stats.hits += nh1
        stats.misses += m
        stats.fills += m
        stats.evictions += ev1
        stats = l2.stats
        stats.misses += m
        stats.fills += m
        stats.evictions += ev2
        stats = l3.stats
        stats.misses += m
        stats.fills += m
        stats.evictions += ev3
        if m:
            mx = misses[-1]
            if mx > l1._max_tag:
                l1._max_tag = mx
            if mx > l2._max_tag:
                l2._max_tag = mx
            if mx > l3._max_tag:
                l3._max_tag = mx

    # -- inspection ----------------------------------------------------

    def l3_occupancy(self, core: int) -> int:
        """L3 lines currently attributed to ``core`` (owner-set based)."""
        return self._occupancy[core]

    def l3_owner_sets(self) -> dict[int, set[int]]:
        """Reconstruct ``addr -> owning cores`` from the active store.

        Store-agnostic inspection seam: the owner masks are decoded per
        resident L3 line; the reference store returns a deep copy of
        ``_l3_owners``.  Differential tests compare the two directly.
        """
        if not self._masks:
            return {a: set(o) for a, o in self._l3_owners.items()}
        return {
            addr: _owners_of(mask)
            for entries in self.l3._sets
            for addr, mask in entries.items()
        }

    def check_owner_invariants(self) -> None:
        """Assert the L3 ownership store is internally consistent.

        Opt-in via ``REPRO_DEBUG_INVARIANTS=1`` (checked after every
        batch and committed stream plan) and called directly by the
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

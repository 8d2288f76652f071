"""A set-associative cache operating on line addresses.

Addresses throughout the library are *cache line numbers* (integers);
byte offsets within a line never matter to the contention phenomena the
paper studies, so they are not modelled.  The set index is the low bits
of the line number, exactly as on real hardware where the line number is
the byte address shifted right by ``log2(line_bytes)``.

The cache does not fetch on miss by itself — miss handling (walking the
hierarchy, filling lines on the way back) is the job of
:class:`repro.arch.hierarchy.CacheHierarchy`.  This keeps the cache a
pure container with three verbs: :meth:`probe`, :meth:`fill`,
:meth:`invalidate`.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from ..config import CacheGeometry
from .replacement import ReplacementPolicy


def fast_lane_enabled() -> bool:
    """Whether the hot-path specializations are on (default yes).

    ``REPRO_FAST_LANE=0`` keeps every cache on list sets driven by the
    generic policy dispatch, so the hierarchy serves every batch with
    its per-access walk — the reference the fast path is benchmarked
    and property-tested against.  Read at object construction, not
    import, so tests can toggle it per instance.
    """
    return os.environ.get("REPRO_FAST_LANE", "1") != "0"


def debug_invariants_enabled() -> bool:
    """Whether the opt-in ownership invariant checks are armed.

    ``REPRO_DEBUG_INVARIANTS=1`` makes the hierarchy assert, after
    every batch, that the ownership store (owner masks or the reference
    dict) agrees with the L3 resident set and that the per-core
    occupancy vector equals the per-core owner-bit counts — the
    self-check the differential suite drives.  Off by default: the
    check walks the whole L3.  Read at object construction.
    """
    return os.environ.get("REPRO_DEBUG_INVARIANTS", "0") != "0"


class CacheStats:
    """Cumulative event counts of one cache."""

    __slots__ = ("hits", "misses", "fills", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        """Total probes observed (hits plus misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per probe; 0.0 for an untouched cache."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"fills={self.fills}, evictions={self.evictions}, "
            f"invalidations={self.invalidations})"
        )


class SetAssociativeCache:
    """One level of cache: ``num_sets`` sets of ``associativity`` ways.

    ``_sets[i]`` holds set ``i``'s resident lines in policy order, as a
    plain list.  When the replacement policy is plain LRU (the default
    everywhere) the list is LRU first and MRU last, the order
    :class:`~repro.arch.replacement.LRUPolicy` keeps, and construction
    switches the instance to a subclass whose ``probe``/``fill``/
    ``invalidate`` operate on the lists directly, with no virtual
    dispatch through :class:`ReplacementPolicy`: a hit moves the line
    to the end, an eviction is ``del s[0]``, a fill ``append``.  A
    private set holds at most a handful of lines, so a list scan is
    cheap, and a list refill is far cheaper than an ordered dict's.

    ``line_values=True`` asks for sets that carry a value per resident
    line instead: on the LRU fast lane each set is then an
    insertion-ordered dict (:class:`OrderedDict`, LRU first; a hit is
    ``move_to_end``, an eviction ``popitem(False)``).  Only the
    hierarchy asks for it, for the shared L3, whose values are the
    owner bitmasks.  The hierarchy fills that L3 itself, so the dict
    sets get specialized ``probe`` and ``invalidate`` verbs only (the
    generic ``fill`` does not apply to them).  The same lists and
    dicts are what
    :meth:`repro.arch.hierarchy.CacheHierarchy.access_many` inlines.

    FIFO/Random/PLRU keep per-set lists driven by the policy object.
    Pass ``specialize=False`` (or set ``REPRO_FAST_LANE=0``) to force
    that generic path for every policy, for benchmarking and
    equivalence tests.
    """

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        specialize: bool | None = None,
        line_values: bool = False,
    ):
        self.name = name
        self.geometry = geometry
        self.policy = policy
        self.stats = CacheStats()
        self._num_sets = geometry.num_sets
        self._set_mask = geometry.num_sets - 1
        self._assoc = geometry.associativity
        #: Monotone upper bound on every line ever filled (never
        #: lowered by evictions).  The stream path proves a batch
        #: absent with one comparison when an ascending stream has moved
        #: past this bound; conservatively high values only cost that
        #: shortcut, never correctness.  Maintained by the LRU list
        #: fill verb, by the hierarchy's L3 fill, by ``access_many``
        #: and by the stream commit.
        self._max_tag = -1
        if specialize is None:
            specialize = fast_lane_enabled()
        lru = specialize and policy.lru_specializable
        #: whether the sets are ordered dicts with a value per line
        #: (the storage the hierarchy keeps its L3 owner masks in)
        self._dict_lru = lru and line_values
        self._sets: list
        # The specialized verbs live on subclasses rather than being
        # bound onto each instance: a bound method stored on its own
        # instance is a reference cycle, which would leave every cache
        # and its sets to the cyclic garbage collector instead of
        # freeing them when the chip goes.
        if self._dict_lru:
            self._sets = [OrderedDict() for _ in range(geometry.num_sets)]
            self.__class__ = _DictLRUCache
        else:
            self._sets = [[] for _ in range(geometry.num_sets)]
            if lru:
                self.__class__ = _ListLRUCache

    # -- hot path ------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Look up ``addr``; update recency state and hit/miss counters."""
        contents = self._sets[addr & self._set_mask]
        try:
            way = contents.index(addr)
        except ValueError:
            self.stats.misses += 1
            return False
        self.policy.on_hit(contents, way, addr & self._set_mask)
        self.stats.hits += 1
        return True

    def fill(self, addr: int) -> int | None:
        """Bring ``addr`` into the cache; return the evicted line, if any.

        Filling an already-resident line refreshes its recency instead of
        duplicating it (this arises when two cores fill the same shared
        line back-to-back).
        """
        set_index = addr & self._set_mask
        contents = self._sets[set_index]
        try:
            way = contents.index(addr)
        except ValueError:
            pass
        else:
            self.policy.on_hit(contents, way, set_index)
            return None
        victim: int | None = None
        if len(contents) >= self._assoc:
            victim_way = self.policy.victim_index(contents, set_index)
            victim = contents[victim_way]
            self.policy.on_invalidate(contents, victim_way, set_index)
            self.stats.evictions += 1
        self.policy.on_fill(contents, addr, set_index)
        self.stats.fills += 1
        return victim

    def invalidate(self, addr: int) -> bool:
        """Drop ``addr`` if resident; return whether it was present."""
        set_index = addr & self._set_mask
        contents = self._sets[set_index]
        try:
            way = contents.index(addr)
        except ValueError:
            return False
        self.policy.on_invalidate(contents, way, set_index)
        self.stats.invalidations += 1
        return True

    # -- inspection ----------------------------------------------------

    def contains(self, addr: int) -> bool:
        """Membership test with no side effects (for tests/assertions)."""
        return addr in self._sets[addr & self._set_mask]

    def set_contents(self, set_index: int) -> tuple[int, ...]:
        """Snapshot of one set's resident lines (policy order)."""
        return tuple(self._sets[set_index])

    def resident_lines(self) -> set[int]:
        """All line addresses currently resident (for invariant checks)."""
        return set().union(*self._sets)

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(map(len, self._sets))

    @property
    def capacity_lines(self) -> int:
        """Total line capacity, from the geometry."""
        return self.geometry.capacity_lines

    def flush(self) -> None:
        """Empty the cache (keeps statistics)."""
        for contents in self._sets:
            contents.clear()

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name!r}, sets={self._num_sets}, "
            f"ways={self._assoc}, occupancy={self.occupancy})"
        )


class _ListLRUCache(SetAssociativeCache):
    """LRU sets as plain lists, MRU last (see :class:`SetAssociativeCache`).

    The verbs match :class:`SetAssociativeCache`'s generic ones over
    :class:`~repro.arch.replacement.LRUPolicy` exactly; they test
    membership with ``in`` rather than catch ``index``'s miss.
    """

    def probe(self, addr: int) -> bool:
        contents = self._sets[addr & self._set_mask]
        if addr in contents:
            if contents[-1] != addr:
                contents.remove(addr)
                contents.append(addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int) -> int | None:
        contents = self._sets[addr & self._set_mask]
        if addr in contents:
            if contents[-1] != addr:
                contents.remove(addr)
                contents.append(addr)
            return None
        victim: int | None = None
        if len(contents) >= self._assoc:
            victim = contents[0]
            del contents[0]
            self.stats.evictions += 1
        contents.append(addr)
        if addr > self._max_tag:
            self._max_tag = addr
        self.stats.fills += 1
        return victim

    def invalidate(self, addr: int) -> bool:
        contents = self._sets[addr & self._set_mask]
        if addr in contents:
            contents.remove(addr)
            self.stats.invalidations += 1
            return True
        return False


class _DictLRUCache(SetAssociativeCache):
    """LRU sets as ordered dicts of per-line values, LRU first.

    The hierarchy's L3 (see :class:`SetAssociativeCache`): the
    hierarchy fills it, storing each line's owner mask.
    """

    def probe(self, addr: int) -> bool:
        entries = self._sets[addr & self._set_mask]
        if addr in entries:
            entries.move_to_end(addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def invalidate(self, addr: int) -> bool:
        entries = self._sets[addr & self._set_mask]
        if addr in entries:
            del entries[addr]
            self.stats.invalidations += 1
            return True
        return False

"""Cache replacement policies.

A policy manages the *recency state* of one cache set.  The cache stores
set contents as a plain list of line addresses; the policy decides how
that list is reordered on hits and which element is the victim on an
eviction.  Keeping the contents in a list (MRU conventions documented
per policy) makes the hot path a handful of list operations, which for
associativities up to 16 beats fancier structures in CPython.

``lru`` is what the reproduction uses by default (Nehalem's L3 is
approximately LRU and the paper's contention story — occupancy follows
insertion rate — is an LRU phenomenon), but FIFO, random, and tree
pseudo-LRU are provided for ablations.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..errors import CacheConfigError


class ReplacementPolicy(ABC):
    """Replacement strategy for a single set-associative cache.

    One policy instance serves every set of one cache; any per-set state
    beyond the contents list itself is keyed by ``set_index``.
    """

    #: Whether a cache may replace this policy's bookkeeping with the
    #: specialized LRU storage (ordered-dict sets, and the bulk
    #: kernel's inlined walks over them).  Only exact tail-MRU/
    #: head-victim LRU semantics qualify: the specializations hard-code
    #: move-to-end on hit, append on fill, and eviction from the front.
    #: A subclass that changes any of those must leave this ``False``.
    lru_specializable = False

    @abstractmethod
    def on_hit(self, contents: list[int], way: int, set_index: int) -> None:
        """Update recency state after a hit on ``contents[way]``."""

    @abstractmethod
    def on_fill(self, contents: list[int], addr: int, set_index: int) -> None:
        """Insert ``addr`` into a set that still has spare ways."""

    @abstractmethod
    def victim_index(self, contents: list[int], set_index: int) -> int:
        """Choose the way to evict from a full set."""

    def on_invalidate(
        self, contents: list[int], way: int, set_index: int
    ) -> None:
        """Remove ``contents[way]``; default is a plain list removal."""
        del contents[way]


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used. Convention: MRU at the list tail."""

    lru_specializable = True

    def on_hit(self, contents: list[int], way: int, set_index: int) -> None:
        contents.append(contents.pop(way))

    def on_fill(self, contents: list[int], addr: int, set_index: int) -> None:
        contents.append(addr)

    def victim_index(self, contents: list[int], set_index: int) -> int:
        return 0


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out: hits do not refresh a line's lifetime."""

    def on_hit(self, contents: list[int], way: int, set_index: int) -> None:
        pass

    def on_fill(self, contents: list[int], addr: int, set_index: int) -> None:
        contents.append(addr)

    def victim_index(self, contents: list[int], set_index: int) -> int:
        return 0


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim selection (deterministic under a seed)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def on_hit(self, contents: list[int], way: int, set_index: int) -> None:
        pass

    def on_fill(self, contents: list[int], addr: int, set_index: int) -> None:
        contents.append(addr)

    def victim_index(self, contents: list[int], set_index: int) -> int:
        return self._rng.randrange(len(contents))


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU, the common hardware LRU approximation.

    Requires a power-of-two associativity.  Per set we keep
    ``associativity - 1`` tree bits; each access flips the bits on the
    root-to-leaf path away from the accessed way, and the victim is
    found by following the bits from the root.

    The tree indexes *ways by position*, so unlike :class:`LRUPolicy`
    the contents list is kept in stable positional order (no
    move-to-back).  Invalidations compact the list, which perturbs the
    way<->leaf mapping slightly; as PLRU is itself an approximation this
    is an accepted (and tested) behaviour.
    """

    def __init__(self, associativity: int):
        if associativity < 2 or associativity & (associativity - 1):
            raise CacheConfigError(
                "tree PLRU needs a power-of-two associativity >= 2, "
                f"got {associativity}"
            )
        self._assoc = associativity
        self._levels = associativity.bit_length() - 1
        self._bits: dict[int, list[int]] = {}

    def _tree(self, set_index: int) -> list[int]:
        tree = self._bits.get(set_index)
        if tree is None:
            tree = [0] * (self._assoc - 1)
            self._bits[set_index] = tree
        return tree

    def _touch(self, set_index: int, way: int) -> None:
        """Point every bit on ``way``'s path away from ``way``."""
        tree = self._tree(set_index)
        node = 0
        span = self._assoc
        base = 0
        while span > 1:
            half = span // 2
            goes_right = way >= base + half
            # Bit semantics: 0 means "LRU side is left", 1 "LRU is right".
            tree[node] = 0 if goes_right else 1
            if goes_right:
                base += half
                node = 2 * node + 2
            else:
                node = 2 * node + 1
            span = half

    def on_hit(self, contents: list[int], way: int, set_index: int) -> None:
        self._touch(set_index, way)

    def on_fill(self, contents: list[int], addr: int, set_index: int) -> None:
        contents.append(addr)
        self._touch(set_index, len(contents) - 1)

    def victim_index(self, contents: list[int], set_index: int) -> int:
        tree = self._tree(set_index)
        node = 0
        span = self._assoc
        base = 0
        while span > 1:
            half = span // 2
            if tree[node]:  # LRU is on the right half
                base += half
                node = 2 * node + 2
            else:
                node = 2 * node + 1
            span = half
        # A victim index can only be requested for a full set, where
        # positions 0..assoc-1 are all populated.
        return base


_POLICIES = {
    "lru": lambda assoc, seed: LRUPolicy(),
    "fifo": lambda assoc, seed: FIFOPolicy(),
    "random": lambda assoc, seed: RandomPolicy(seed),
    "plru": lambda assoc, seed: TreePLRUPolicy(assoc),
}


def make_policy(
    name: str, associativity: int, seed: int = 0
) -> ReplacementPolicy:
    """Build a replacement policy by name (``lru|fifo|random|plru``)."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise CacheConfigError(
            f"unknown replacement policy {name!r} "
            f"(known: {', '.join(sorted(_POLICIES))})"
        ) from None
    return factory(associativity, seed)

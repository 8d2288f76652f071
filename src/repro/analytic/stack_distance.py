"""Reuse-distance (LRU stack distance) profiling.

The reuse distance of an access is the number of *distinct* lines
referenced since the previous access to the same line; under
fully-associative LRU, an access hits a cache of ``C`` lines iff its
reuse distance is less than ``C`` (Mattson's stack algorithm).  The
histogram of reuse distances therefore yields the whole miss-rate curve
in one pass.

The distance of access ``t`` to a line last touched at ``p`` counts the
accesses strictly between them, less the re-accesses in that window
whose previous access also lies in it.  The second term is a per-access
count of earlier, larger keys, computed for the whole trace at once by
walking the key bits from the top: one group-wise prefix count and one
stable partition per bit, so a 40K-access trace takes sixteen rounds of
numpy passes over its keys instead of a Python loop per access.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from ..errors import WorkloadError

#: Bucket index used for first-time (cold) accesses.
COLD = -1


def _earlier_greater(keys: np.ndarray) -> np.ndarray:
    """Per position ``t``, how many earlier positions hold a larger key.

    ``keys`` must be distinct positions in a trace of fewer than
    ``2**31`` accesses (the callers pass previous-access positions).
    Two keys first differ at one bit, and the earlier one is the larger
    exactly when it has that bit set, so the count walks the bits from
    the top and counts each earlier/later pair once, at that bit.
    Before bit ``b``'s step the keys sit in stable-partition order on
    the higher bits: keys that agree on them are contiguous and in trace
    order, and a group starts where ``key >> (b + 1)`` changes.  Each
    clear-bit key is credited with the set-bit keys before it in its
    group (a group-wise exclusive cumsum), then a stable partition on
    bit ``b`` moves the clear-bit keys in front, which keeps that order
    for the next bit.  The credit rides in the low bits of one packed
    word per key, and every step reuses the same buffers.
    """
    n = keys.shape[0]
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    low = (n - 1).bit_length()
    base = keys.min()
    span = int(keys.max() - base)
    # A credit is below n, so it fits the low bits; keys are positions
    # in a trace, so key and credit together fit in 62 bits, and in 32
    # (half the working set) for traces of up to 2**16 accesses.
    dtype = np.uint32 if span.bit_length() + low <= 32 else np.int64
    packed = (keys - base).astype(dtype)
    packed <<= low
    spare = np.empty(n, dtype=dtype)
    ones = np.empty(n, dtype=dtype)
    offset = np.empty(n, dtype=dtype)
    clear = np.empty(n, dtype=bool)
    set_ = np.empty(n, dtype=bool)
    starts = np.zeros(n, dtype=bool)
    for b in range(low + span.bit_length() - 1, low - 1, -1):
        np.right_shift(packed, b, out=spare)
        np.bitwise_and(spare, 1, out=ones)
        np.right_shift(spare, 1, out=spare)
        np.not_equal(spare[1:], spare[:-1], out=starts[1:])
        np.equal(ones, 0, out=clear)
        np.cumsum(ones, out=ones)
        # The set-bit keys before each key's group: the running count
        # never falls, so a running maximum of its values just before
        # each group start spreads them over their groups.
        offset[0] = 0
        np.multiply(ones[:-1], starts[1:], out=offset[1:])
        np.maximum.accumulate(offset, out=offset)
        np.subtract(ones, offset, out=offset)
        np.multiply(offset, clear, out=offset)
        packed += offset
        if b == low:
            break
        z = int(np.count_nonzero(clear))
        np.logical_not(clear, out=set_)
        np.compress(clear, packed, out=spare[:z])
        np.compress(set_, packed, out=spare[z:])
        packed, spare = spare, packed
    del ones, offset, clear, set_, starts
    # Back to trace order: each distinct key names its position.
    where = np.empty(span + 1, dtype=np.int32)
    where[keys - base] = np.arange(n, dtype=np.int32)
    np.right_shift(packed, low, out=spare)
    packed &= (1 << low) - 1
    counts = np.empty(n, dtype=np.int64)
    counts[where[spare]] = packed
    return counts


def _as_addresses(trace: Iterable[int]) -> np.ndarray:
    """The trace as an int64 array; an int64 array passes as is."""
    if isinstance(trace, np.ndarray):
        return trace.astype(np.int64, copy=False)
    return np.fromiter(trace, dtype=np.int64)


def _warm_distances(
    trace: Iterable[int],
) -> tuple[int, np.ndarray, np.ndarray, int]:
    """Trace length, re-access positions, their reuse distances, and
    the number of lines touched exactly once."""
    addrs = _as_addresses(trace)
    n = addrs.shape[0]
    # prev[t]: the previous access to the same line (-1 if none).
    prev = np.full(n, -1, dtype=np.int64)
    singletons = n
    if n > 1:
        # Accesses ordered by (line, position): one sort of packed
        # codes, or a stable argsort when the line span is too wide to
        # pack beside the positions.
        shift = (n - 1).bit_length()
        base = int(addrs.min())
        if (int(addrs.max()) - base).bit_length() + shift <= 63:
            order = addrs - base
            order <<= shift
            order |= np.arange(n)
            order.sort()
            lines = order >> shift
            order &= (1 << shift) - 1
        else:
            order = np.argsort(addrs, kind="stable")
            lines = addrs[order]
        same = lines[1:] == lines[:-1]
        del lines
        prev[order[1:][same]] = order[:-1][same]
        del order
        # In this order a line touched once differs from both
        # neighbours.
        np.logical_not(same, out=same)
        alone = np.concatenate(([True], same))
        alone[:-1] &= same
        singletons = int(np.count_nonzero(alone))
        del same, alone
    warm = np.flatnonzero(prev >= 0)
    keys = prev[warm]
    del prev
    # The distinct lines strictly between prev[t] and t are the
    # accesses in that window minus the re-accesses whose previous
    # access also lies in it, i.e. the u < t with prev[u] > prev[t]
    # (first touches never qualify, so only re-accesses are counted).
    keys += _earlier_greater(keys)
    keys += 1
    return n, warm, warm - keys, singletons


def reuse_distances(trace: Iterable[int]) -> list[int]:
    """Per-access reuse distances (:data:`COLD` for first touches)."""
    n, warm, distances, _ = _warm_distances(trace)
    out = np.full(n, COLD, dtype=np.int64)
    out[warm] = distances
    return out.tolist()


class ReuseHistogram(NamedTuple):
    """A trace's reuse-distance histogram and its first touches."""

    #: accesses per reuse distance (re-accesses only)
    histogram: dict[int, int]
    #: first touches: one per distinct line
    cold: int
    #: lines touched exactly once (see :func:`singleton_count`)
    singletons: int


def reuse_distance_histogram(trace: Iterable[int]) -> ReuseHistogram:
    """Histogram of reuse distances, the cold-miss count and the count
    of lines touched once, from one pass over the trace.

    ``histogram[d]`` counts accesses with reuse distance ``d``; ``cold``
    counts first touches; ``singletons`` counts the first touches never
    followed by another access to their line.
    """
    n, _, distances, singletons = _warm_distances(trace)
    counts = np.bincount(distances)
    seen = np.flatnonzero(counts)
    histogram = dict(zip(seen.tolist(), counts[seen].tolist()))
    return ReuseHistogram(histogram, n - distances.shape[0], singletons)


def singleton_count(trace: Iterable[int]) -> int:
    """Lines touched exactly once in the trace.

    A single-touch line's first (and only) access misses at every cache
    size *every time the workload reaches it* — for cyclic workloads
    whose period exceeds the profiled window this is steady-state
    missing, not a one-off compulsory miss.  The complement
    (``cold - singletons``) counts genuinely transient first touches of
    lines the workload demonstrably revisits.
    """
    addrs = np.sort(_as_addresses(trace))
    if addrs.shape[0] == 0:
        return 0
    # In sorted order a line touched once differs from both neighbours.
    differs = addrs[1:] != addrs[:-1]
    first = np.concatenate(([True], differs))
    last = np.concatenate((differs, [True]))
    return int(np.count_nonzero(first & last))


def sample_trace(pattern: "object", length: int) -> np.ndarray:
    """Materialise ``length`` accesses from a live pattern.

    ``pattern`` is any :class:`repro.workloads.base.AccessPattern`; the
    accesses come as one ``next_addresses_array`` batch, an int64 array
    equal to ``length`` consecutive ``next_address`` calls.
    """
    if length <= 0:
        raise WorkloadError(f"trace length must be positive: {length}")
    return pattern.next_addresses_array(length)

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
inversion count, computed for the whole trace at once by vectorized
merge counting: log2(N) numpy passes instead of a Python loop per
access.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import WorkloadError

#: Bucket index used for first-time (cold) accesses.
COLD = -1


def _earlier_greater(keys: np.ndarray) -> np.ndarray:
    """Per position ``t``, how many earlier positions hold a larger key.

    Bottom-up merge counting.  At width ``w`` the positions pair up
    into sibling blocks, and every element of a right block counts the
    keys above it in its left sibling with one ``searchsorted`` over
    all sibling rows at once (row offsets keep the concatenated sorted
    rows ascending).  Each earlier/later pair of positions sits in
    sibling blocks at exactly one width, so the per-width counts add
    up to the answer.
    """
    n = keys.shape[0]
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    size = 1
    while size < n:
        size <<= 1
    base = int(keys.min())
    stride = int(keys.max()) - base + 2
    # The narrowest dtype that holds the offset rows halves the
    # working set (and with it the run's peak memory).
    dtype = np.int32 if (size // 2) * stride < 2**31 else np.int64
    # Padding sits after every real position, so it is never counted.
    padded = np.full(size, stride - 1, dtype=dtype)
    padded[:n] = keys - base
    counts = np.zeros(size, dtype=dtype)
    rows = padded.copy()
    w = 1
    while w < size:
        pairs = size // (2 * w)
        offsets = np.arange(0, pairs * stride, stride, dtype=dtype)
        offsets = offsets[:, None]
        left = rows.reshape(pairs, 2, w)[:, 0, :] + offsets
        right = padded.reshape(pairs, 2, w)[:, 1, :] + offsets
        pos = np.searchsorted(left.ravel(), right.ravel(), side="right")
        del left, right
        # Row r of the left blocks ends at (r + 1) * w in the ravel, so
        # the keys above a right element number that end minus pos.
        above = pos.reshape(pairs, w)
        np.subtract(np.arange(w, (pairs + 1) * w, w)[:, None], above,
                    out=above)
        counts.reshape(pairs, 2, w)[:, 1, :] += above
        del pos, above
        # Merge each sibling pair's sorted rows for the next width.
        rows.reshape(pairs, 2 * w).sort(axis=1, kind="stable")
        w *= 2
    return counts[:n]


def _as_addresses(trace: Iterable[int]) -> np.ndarray:
    """The trace as an int64 array; an int64 array passes as is."""
    if isinstance(trace, np.ndarray):
        return trace.astype(np.int64, copy=False)
    return np.fromiter(trace, dtype=np.int64)


def _warm_distances(
    trace: Iterable[int],
) -> tuple[int, np.ndarray, np.ndarray]:
    """Trace length, re-access positions, and their reuse distances."""
    addrs = _as_addresses(trace)
    n = addrs.shape[0]
    order = np.argsort(addrs, kind="stable")
    same = addrs[order[1:]] == addrs[order[:-1]]
    # prev[t]: the previous access to the same line (-1 if none).
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    del addrs, order, same
    warm = np.flatnonzero(prev >= 0)
    keys = prev[warm]
    del prev
    # The distinct lines strictly between prev[t] and t are the
    # accesses in that window minus the re-accesses whose previous
    # access also lies in it, i.e. the u < t with prev[u] > prev[t]
    # (first touches never qualify, so only re-accesses are counted).
    keys += _earlier_greater(keys)
    keys += 1
    return n, warm, warm - keys


def reuse_distances(trace: Iterable[int]) -> list[int]:
    """Per-access reuse distances (:data:`COLD` for first touches)."""
    n, warm, distances = _warm_distances(trace)
    out = np.full(n, COLD, dtype=np.int64)
    out[warm] = distances
    return out.tolist()


def reuse_distance_histogram(
    trace: Iterable[int],
) -> tuple[dict[int, int], int]:
    """Histogram of reuse distances plus the cold-miss count.

    Returns ``(histogram, cold)`` where ``histogram[d]`` counts accesses
    with reuse distance ``d`` and ``cold`` counts first touches.
    """
    n, _, distances = _warm_distances(trace)
    counts = np.bincount(distances)
    seen = np.flatnonzero(counts)
    histogram = dict(zip(seen.tolist(), counts[seen].tolist()))
    return histogram, n - distances.shape[0]


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

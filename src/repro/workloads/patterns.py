"""Access-pattern generators.

Each pattern is a (spec, runtime) pair: the frozen ``*Spec`` dataclass
validates parameters and states the footprint; ``instantiate`` builds a
stateful generator the simulator's core draws address batches from.
Random patterns pre-draw int64 batches: array requests get views of
them, list requests slices of a list form built once per batch.  A
mixture serves the same way from blocks it builds, each running from
its current choice up to the next RNG call.

The patterns cover the behaviours the SPEC models need:

* :class:`SequentialStreamSpec` — cyclic streaming with per-line spatial
  locality (lbm, libquantum, milc, sphinx3);
* :class:`UniformRandomSpec` — uniform references over a working set;
* :class:`PointerChaseSpec` — a random-permutation cycle, the classic
  latency-bound dependent-load chain (mcf, omnetpp, xalancbmk);
* :class:`ZipfSpec` — skewed reuse (perlbench, gcc, gobmk);
* :class:`HotColdSpec` — a small hot structure plus a cold heap;
* :class:`StridedScanSpec` — strided sweeps (row-major numeric codes);
* :class:`MixtureSpec` — a probabilistic blend of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .base import AccessPattern, PatternSpec

_BATCH = 4096
_EMPTY = np.empty(0, dtype=np.int64)


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise WorkloadError(f"{name} must be positive, got {value}")


class _DrawFree(AccessPattern):
    """Base for patterns that never touch their RNG once instantiated."""

    __slots__ = ()

    def addresses_before_draw(self) -> int | None:
        return None


class _BufferedPattern(AccessPattern):
    """Base for patterns that serve addresses from pre-built batches.

    :meth:`_refill` returns the next batch as an int64 array, and is
    called only when an address past the current batch is taken, so
    every RNG call it makes lands where a one-address-at-a-time walk
    makes it.  Array requests are served as views (a refill builds a
    new array, so a view stays valid); list requests from the batch's
    list form, built on first use.
    """

    def __init__(self) -> None:
        self._batch = _EMPTY
        self._list: list[int] | None = []
        self._index = 0

    def _refill(self) -> np.ndarray:
        raise NotImplementedError

    def _load(self) -> np.ndarray:
        batch = self._batch = self._refill()
        self._list = None
        self._index = 0
        return batch

    def addresses_before_draw(self) -> int | None:
        return self._batch.shape[0] - self._index

    def next_address(self) -> int:
        return self.next_addresses(1)[0]

    def next_addresses(self, n: int) -> list[int]:
        i = self._index
        buf = self._list
        if buf is None:
            buf = self._list = self._batch.tolist()
        avail = len(buf) - i
        if avail >= n:
            self._index = i + n
            return buf[i:i + n]
        out = buf[i:]
        n -= avail
        while True:
            buf = self._list = self._load().tolist()
            if len(buf) >= n:
                self._index = n
                out += buf[:n]
                return out
            out += buf
            n -= len(buf)

    def next_addresses_array(self, n: int) -> np.ndarray:
        i = self._index
        batch = self._batch
        avail = batch.shape[0] - i
        if avail >= n:
            self._index = i + n
            return batch[i:i + n]
        pieces = [batch[i:]]
        n -= avail
        while True:
            batch = self._load()
            if batch.shape[0] >= n:
                self._index = n
                pieces.append(batch[:n])
                return np.concatenate(pieces)
            pieces.append(batch)
            n -= batch.shape[0]


# -- sequential streaming ----------------------------------------------


@dataclass(frozen=True)
class SequentialStreamSpec(PatternSpec):
    """Cyclic sequential walk over ``lines`` lines.

    ``line_repeats`` consecutive accesses hit the same line before
    advancing, modelling spatial locality within a 64-byte line (a
    double-precision stream touches a line 8 times).
    """

    lines: int
    line_repeats: int = 4

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("line_repeats", self.line_repeats)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _SequentialStream(self.lines, self.line_repeats, base)


class _SequentialStream(_DrawFree):
    __slots__ = ("_lines", "_repeats", "_base", "_line", "_count")

    def __init__(self, lines: int, repeats: int, base: int):
        self._lines = lines
        self._repeats = repeats
        self._base = base
        self._line = 0
        self._count = 0

    def next_address(self) -> int:
        addr = self._base + self._line
        self._count += 1
        if self._count >= self._repeats:
            self._count = 0
            self._line += 1
            if self._line >= self._lines:
                self._line = 0
        return addr

    def next_addresses(self, n: int) -> list[int]:
        return self.next_addresses_array(n).tolist()

    def next_addresses_array(self, n: int) -> np.ndarray:
        # The stream is periodic with period lines*repeats; index the
        # next n ticks of that cycle in one vectorised step.
        repeats = self._repeats
        period = self._lines * repeats
        start = self._line * repeats + self._count
        end = start + n
        ticks = np.arange(start, end, dtype=np.int64)
        if end >= period:
            ticks %= period
            end %= period
        self._line = end // repeats
        self._count = end % repeats
        ticks //= repeats
        ticks += self._base
        return ticks

    def footprint_lines(self) -> int:
        return self._lines


# -- uniform random ----------------------------------------------------


@dataclass(frozen=True)
class UniformRandomSpec(PatternSpec):
    """Uniformly random references over ``lines`` lines."""

    lines: int
    line_repeats: int = 1

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("line_repeats", self.line_repeats)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _UniformRandom(rng, self.lines, self.line_repeats, base)


class _UniformRandom(_BufferedPattern):
    def __init__(
        self, rng: np.random.Generator, lines: int, repeats: int, base: int
    ):
        super().__init__()
        self._rng = rng
        self._lines = lines
        self._repeats = repeats
        self._base = base

    def _refill(self) -> np.ndarray:
        draws = self._rng.integers(
            0, self._lines, size=_BATCH, dtype=np.int64
        )
        if self._repeats > 1:
            draws = np.repeat(draws, self._repeats)
        draws += self._base
        return draws

    def footprint_lines(self) -> int:
        return self._lines


# -- pointer chasing ---------------------------------------------------


@dataclass(frozen=True)
class PointerChaseSpec(PatternSpec):
    """A dependent-load chain over a random permutation of ``lines``.

    This is the canonical latency-bound pattern: each address is only
    known once the previous load returns, so phases using it should run
    with ``overlap`` near 1.
    """

    lines: int

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _PointerChase(rng, self.lines, base)


class _PointerChase(_DrawFree):
    __slots__ = ("_cycle", "_cycle_arr", "_pos", "_n")

    def __init__(self, rng: np.random.Generator, lines: int, base: int):
        # One cycle covering all lines.  The successor chain built by
        # shuffled successor assignment (succ[order[i]] = order[i+1],
        # wrapping) visits the lines in exactly the shuffled ordering,
        # so the emitted address sequence IS that ordering repeated —
        # materialise it once and serve slices, instead of walking a
        # successor table one dependent load at a time.  The simulated
        # semantics are untouched (same addresses, and the *simulated*
        # chain is still dependent — that lives in the phase's
        # ``overlap``, not in how the generator produces the stream).
        order = rng.permutation(lines)
        arr = order.astype(np.int64) + base
        self._cycle = arr.tolist()
        self._cycle_arr = arr
        self._pos = 0
        self._n = lines

    def next_address(self) -> int:
        pos = self._pos
        self._pos = pos + 1 if pos + 1 < self._n else 0
        return self._cycle[pos]

    def next_addresses(self, n: int) -> list[int]:
        cycle = self._cycle
        ln = self._n
        pos = self._pos
        end = pos + n
        if end < ln:
            self._pos = end
            return cycle[pos:end]
        out = cycle[pos:]
        end -= ln
        while end >= ln:
            out += cycle
            end -= ln
        out += cycle[:end]
        self._pos = end
        return out

    def next_addresses_array(self, n: int) -> np.ndarray:
        arr = self._cycle_arr
        ln = self._n
        pos = self._pos
        end = pos + n
        if end < ln:
            self._pos = end
            # A view: the cycle is never written after it is built.
            return arr[pos:end]
        out = np.empty(n, dtype=np.int64)
        k = ln - pos
        out[:k] = arr[pos:]
        end -= ln
        while end >= ln:
            out[k:k + ln] = arr
            k += ln
            end -= ln
        out[k:] = arr[:end]
        self._pos = end
        return out

    def footprint_lines(self) -> int:
        return self._n


# -- zipf --------------------------------------------------------------


@dataclass(frozen=True)
class ZipfSpec(PatternSpec):
    """Zipf-distributed references: rank ``i`` has weight 1/(i+1)^alpha.

    Hot ranks are scattered over the address range (random permutation)
    so popularity is decoupled from set index.
    """

    lines: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("alpha", self.alpha)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _Zipf(rng, self.lines, self.alpha, base)


#: Buckets of a Zipf pattern's inverse-CDF table.  A power of two, so
#: ``u * _ZIPF_BUCKETS`` and ``k / _ZIPF_BUCKETS`` are exact.
_ZIPF_BUCKETS = 1 << 13


class _Zipf(_BufferedPattern):
    def __init__(
        self, rng: np.random.Generator, lines: int, alpha: float, base: int
    ):
        super().__init__()
        self._rng = rng
        self._base = base
        self._lines = lines
        weights = 1.0 / np.arange(1, lines + 1, dtype=np.float64) ** alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._placement = rng.permutation(lines)
        self._bucket_rank: np.ndarray | None = None
        self._bucket_split = _EMPTY

    def _refill(self) -> np.ndarray:
        # rank(u) = cdf.searchsorted(u) is monotone in u, so every u in
        # bucket [k/K, (k+1)/K) ranks between the bucket edges' ranks;
        # where those agree the table answers, and only draws in a
        # bucket holding a CDF step are searched.
        cdf = self._cdf
        u = self._rng.random(_BATCH)
        rank = self._bucket_rank
        if rank is None:
            edges = np.arange(_ZIPF_BUCKETS + 1) / _ZIPF_BUCKETS
            rank = self._bucket_rank = cdf.searchsorted(edges)
            self._bucket_split = rank[1:] != rank[:-1]
        bucket = (u * _ZIPF_BUCKETS).astype(np.intp)
        ranks = rank[bucket]
        split = self._bucket_split[bucket].nonzero()[0]
        ranks[split] = cdf.searchsorted(u[split])
        draws = self._placement[ranks]
        draws += self._base
        return draws

    def footprint_lines(self) -> int:
        return self._lines


# -- hot/cold ----------------------------------------------------------


@dataclass(frozen=True)
class HotColdSpec(PatternSpec):
    """A hot region of ``hot_lines`` hit with ``hot_fraction`` probability,
    else a uniformly random cold region of ``cold_lines``."""

    hot_lines: int
    cold_lines: int
    hot_fraction: float = 0.9

    def __post_init__(self) -> None:
        _require_positive("hot_lines", self.hot_lines)
        _require_positive("cold_lines", self.cold_lines)
        if not 0.0 < self.hot_fraction < 1.0:
            raise WorkloadError(
                f"hot_fraction must be in (0, 1): {self.hot_fraction}"
            )

    def footprint_lines(self) -> int:
        return self.hot_lines + self.cold_lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _HotCold(
            rng, self.hot_lines, self.cold_lines, self.hot_fraction, base
        )


class _HotCold(_BufferedPattern):
    def __init__(
        self,
        rng: np.random.Generator,
        hot: int,
        cold: int,
        hot_fraction: float,
        base: int,
    ):
        super().__init__()
        self._rng = rng
        self._hot = hot
        self._cold = cold
        self._fraction = hot_fraction
        self._base = base

    def _refill(self) -> np.ndarray:
        rng = self._rng
        is_hot = rng.random(_BATCH) < self._fraction
        hot_draws = rng.integers(0, self._hot, size=_BATCH, dtype=np.int64)
        cold_draws = self._hot + rng.integers(
            0, self._cold, size=_BATCH, dtype=np.int64
        )
        draws = np.where(is_hot, hot_draws, cold_draws)
        draws += self._base
        return draws

    def footprint_lines(self) -> int:
        return self._hot + self._cold


# -- strided scan ------------------------------------------------------


@dataclass(frozen=True)
class StridedScanSpec(PatternSpec):
    """Cyclic walk touching every ``stride``-th line of a region.

    With a power-of-two stride this concentrates pressure on a subset of
    cache sets, modelling bad-stride numeric codes.
    """

    lines: int
    stride: int = 2
    line_repeats: int = 1

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("stride", self.stride)
        _require_positive("line_repeats", self.line_repeats)

    def footprint_lines(self) -> int:
        return (self.lines + self.stride - 1) // self.stride

    def span_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _StridedScan(self.lines, self.stride, self.line_repeats, base)


class _StridedScan(_DrawFree):
    __slots__ = ("_lines", "_stride", "_repeats", "_base", "_pos", "_count")

    def __init__(self, lines: int, stride: int, repeats: int, base: int):
        self._lines = lines
        self._stride = stride
        self._repeats = repeats
        self._base = base
        self._pos = 0
        self._count = 0

    def next_address(self) -> int:
        addr = self._base + self._pos
        self._count += 1
        if self._count >= self._repeats:
            self._count = 0
            self._pos += self._stride
            if self._pos >= self._lines:
                self._pos = 0
        return addr

    def next_addresses(self, n: int) -> list[int]:
        return self.next_addresses_array(n).tolist()

    def next_addresses_array(self, n: int) -> np.ndarray:
        # Positions cycle through ceil(lines/stride) stride multiples;
        # index the next n ticks of that cycle vectorised, as in
        # _SequentialStream.
        repeats = self._repeats
        stride = self._stride
        period = (self._lines + stride - 1) // stride * repeats
        start = (self._pos // stride) * repeats + self._count
        end = start + n
        ticks = np.arange(start, end, dtype=np.int64)
        if end >= period:
            ticks %= period
            end %= period
        self._pos = (end // repeats) * stride
        self._count = end % repeats
        ticks //= repeats
        ticks *= stride
        ticks += self._base
        return ticks

    def footprint_lines(self) -> int:
        return (self._lines + self._stride - 1) // self._stride


# -- mixture -----------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec(PatternSpec):
    """Probabilistic blend of component patterns.

    ``components`` is a tuple of ``(weight, spec)`` pairs; each access is
    drawn from one component with probability proportional to its
    weight.  Components receive disjoint address sub-ranges, each
    starting where the previous component's span ends.
    """

    components: tuple[tuple[float, PatternSpec], ...]

    def __post_init__(self) -> None:
        # Hashable like TraceSpec's trace, whatever sequence was given.
        object.__setattr__(
            self,
            "components",
            tuple((weight, spec) for weight, spec in self.components),
        )
        if len(self.components) < 2:
            raise WorkloadError("a mixture needs at least two components")
        for weight, _spec in self.components:
            _require_positive("mixture weight", weight)

    def footprint_lines(self) -> int:
        return sum(spec.footprint_lines() for _w, spec in self.components)

    def span_lines(self) -> int:
        return sum(spec.span_lines() for _w, spec in self.components)

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        parts: list[AccessPattern] = []
        offset = base
        weights = []
        for weight, spec in self.components:
            parts.append(spec.instantiate(rng, offset))
            offset += spec.span_lines()
            weights.append(weight)
        return _Mixture(rng, parts, weights)


class _Mixture(_BufferedPattern):
    """A blend served in blocks, each one RNG-call free.

    A block runs from the current choice up to the next RNG call: a
    choice refill, or the address that empties a part's buffer.  Within
    it every part serves its addresses without drawing, so the block is
    built with one batched request per part, scattered by the choice
    vector, and the draw it stops at is made only when the stream
    reaches that address.  The parts share this mixture's Generator,
    and other patterns may share it too (a workload's phases do), so
    every RNG call must land where a one-address-at-a-time walk makes
    it.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        parts: list[AccessPattern],
        weights: list[float],
    ):
        super().__init__()
        self._rng = rng
        self._parts = parts
        total = sum(weights)
        self._probs = [w / total for w in weights]
        self._choices = _EMPTY
        self._next_choice = 0

    def _refill(self) -> np.ndarray:
        i = self._next_choice
        if i >= self._choices.shape[0]:
            self._choices = self._rng.choice(
                len(self._parts), size=_BATCH, p=self._probs
            )
            i = 0
        seg = self._choices[i:]
        parts = self._parts
        cut = seg.shape[0]
        positions = []
        for p, part in enumerate(parts):
            pos = (seg == p).nonzero()[0]
            free = part.addresses_before_draw()
            if free is not None and pos.shape[0] > free \
                    and pos[free] < cut:
                cut = int(pos[free])
            positions.append(pos)
        if cut == 0:
            # The first address draws: it is a block of its own.
            self._next_choice = i + 1
            return parts[seg[0]].next_addresses_array(1)
        block = np.empty(cut, dtype=np.int64)
        for p, pos in enumerate(positions):
            if pos.shape[0] and pos[-1] >= cut:
                pos = pos[:pos.searchsorted(cut)]
            if pos.shape[0]:
                block[pos] = parts[p].next_addresses_array(pos.shape[0])
        self._next_choice = i + cut
        return block

    def footprint_lines(self) -> int:
        return sum(p.footprint_lines() for p in self._parts)


# -- explicit trace replay ----------------------------------------------


@dataclass(frozen=True)
class TraceSpec(PatternSpec):
    """Replay an explicit line-address trace (cyclically).

    The bridge for users with real traces: any iterable of line numbers
    (e.g. from a binary-instrumentation tool, de-duplicated to cache
    lines) becomes a workload the simulator can co-locate and CAER can
    manage.  Addresses are offsets from the workload's base.
    """

    trace: tuple[int, ...]

    def __post_init__(self) -> None:
        # Specs key the profile cache, so a trace given as a list is
        # stored as the tuple it is annotated as (the class is frozen).
        object.__setattr__(self, "trace", tuple(self.trace))
        if not self.trace:
            raise WorkloadError("an empty trace cannot be replayed")
        if any(a < 0 for a in self.trace):
            raise WorkloadError("trace addresses must be non-negative")

    def footprint_lines(self) -> int:
        return len(set(self.trace))

    def span_lines(self) -> int:
        return max(self.trace) + 1

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _TraceReplay(self.trace, base)


class _TraceReplay(_DrawFree):
    __slots__ = ("_addrs", "_index", "_footprint")

    def __init__(self, trace: tuple[int, ...], base: int):
        # Rebase once so replay serves precomputed absolute addresses.
        self._addrs = [base + a for a in trace]
        self._index = 0
        self._footprint = len(set(trace))

    def next_address(self) -> int:
        addr = self._addrs[self._index]
        self._index += 1
        if self._index >= len(self._addrs):
            self._index = 0
        return addr

    def next_addresses(self, n: int) -> list[int]:
        addrs = self._addrs
        length = len(addrs)
        i = self._index
        out: list[int] = []
        while n > 0:
            take = min(n, length - i)
            out.extend(addrs[i:i + take])
            i += take
            if i >= length:
                i = 0
            n -= take
        self._index = i
        return out

    def footprint_lines(self) -> int:
        return self._footprint

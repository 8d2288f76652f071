"""Workload model core types.

A workload is described declaratively by a :class:`WorkloadSpec` — an
immutable recipe of :class:`PhaseSpec` entries, each pairing an access
pattern with execution parameters — and *instantiated* per run into a
:class:`WorkloadInstance`, which owns mutable cursors (instructions
retired, current phase, pattern state) and is what the simulated core
actually drives.

Execution parameters per phase:

``mem_ratio``
    memory accesses per instruction (cache-line granularity).  A value
    of 0.25 means one access every four instructions.
``base_cpi``
    pipeline cycles per instruction when every access hits L1.
``overlap``
    memory-level parallelism: how many outstanding misses the phase
    overlaps on average.  Stall cycles are divided by this, so streaming
    phases (overlap 3-4) hide much of their miss latency while pointer
    chasing (overlap 1) exposes all of it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError


class AccessPattern(ABC):
    """A stateful generator of cache-line addresses."""

    @abstractmethod
    def next_address(self) -> int:
        """Produce the next line address (hot path)."""

    def next_addresses(self, n: int) -> list[int]:
        """Produce the next ``n`` line addresses as a list.

        The returned stream is exactly what ``n`` consecutive
        :meth:`next_address` calls would yield; subclasses override this
        to amortise per-address call overhead (the simulator's core loop
        consumes addresses in batches).  The caller owns the list.
        """
        next_address = self.next_address
        return [next_address() for _ in range(n)]

    def next_addresses_array(self, n: int) -> np.ndarray:
        """Produce the next ``n`` line addresses as an int64 array.

        The same stream :meth:`next_addresses` would yield, in ndarray
        form for the vector kernel.  Patterns that compute their
        batches in numpy anyway override this to skip the ``tolist``
        round-trip; everything else converts the list batch.
        """
        return np.asarray(self.next_addresses(n), dtype=np.int64)

    def addresses_before_draw(self) -> int | None:
        """How many next addresses come without an RNG call.

        ``None`` means the pattern never draws once instantiated.  The
        parts of a mixture share its ``Generator``, so the mixture
        batches a part's draws only up to this count; the conservative
        default makes every address a potential draw.
        """
        return 0

    def footprint_lines(self) -> int:
        """Number of distinct lines the pattern can touch (if known)."""
        return 0


class PatternSpec(ABC):
    """Immutable recipe for an :class:`AccessPattern`."""

    @abstractmethod
    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        """Build a fresh pattern addressing lines from ``base`` upward."""

    @abstractmethod
    def footprint_lines(self) -> int:
        """Distinct lines the instantiated pattern will touch."""

    def span_lines(self) -> int:
        """Width of the line range the pattern addresses from its base.

        Every address lies in ``[base, base + span_lines())``.  For
        most patterns that is the footprint; a pattern that skips
        lines (a strided scan) spans more than it touches.
        """
        return self.footprint_lines()


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a workload: a pattern plus execution parameters.

    ``duration_instructions`` is how many instructions the phase lasts
    before the workload moves to the next phase (phases cycle until the
    workload's total instruction budget runs out).
    """

    pattern: PatternSpec
    duration_instructions: float
    mem_ratio: float = 0.25
    base_cpi: float = 0.5
    overlap: float = 1.5
    #: fraction of accesses that are stores (drives writeback traffic
    #: when the machine models it; ~0.3 is typical of SPEC codes)
    store_ratio: float = 0.3

    def __post_init__(self) -> None:
        if self.duration_instructions <= 0:
            raise WorkloadError(
                f"phase duration must be positive: {self.duration_instructions}"
            )
        if not 0.0 < self.mem_ratio <= 1.0:
            raise WorkloadError(
                f"mem_ratio must be in (0, 1]: {self.mem_ratio}"
            )
        if self.base_cpi <= 0:
            raise WorkloadError(f"base_cpi must be positive: {self.base_cpi}")
        if self.overlap < 1.0:
            raise WorkloadError(f"overlap must be >= 1: {self.overlap}")
        if not 0.0 <= self.store_ratio <= 1.0:
            raise WorkloadError(
                f"store_ratio must be in [0, 1]: {self.store_ratio}"
            )

    @property
    def instructions_per_access(self) -> float:
        """Instructions one (cache-line) access stands for."""
        return 1.0 / self.mem_ratio

    @property
    def compute_cycles_per_access(self) -> float:
        """Pipeline cycles per access when every access hits L1."""
        return self.base_cpi / self.mem_ratio


class RuntimePhase:
    """A :class:`PhaseSpec` instantiated for one run.

    Holds the live pattern and the derived per-access constants the core
    model's inner loop consumes.  The core draws addresses in batches
    through :meth:`take_addresses`; a batch cut short by an expiring
    cycle budget is returned through :meth:`push_back` so the observed
    address stream stays identical to per-access generation.
    """

    __slots__ = (
        "spec",
        "pattern",
        "instructions_per_access",
        "compute_cycles_per_access",
        "overlap",
        "store_ratio",
        "_pending",
        "_pending_pos",
        "_pending_arr",
        "_pending_arr_pos",
    )

    def __init__(self, spec: PhaseSpec, pattern: AccessPattern):
        self.spec = spec
        self.pattern = pattern
        self.instructions_per_access = spec.instructions_per_access
        self.compute_cycles_per_access = spec.compute_cycles_per_access
        self.overlap = spec.overlap
        self.store_ratio = spec.store_ratio
        self._pending: list[int] = []
        self._pending_pos = 0
        # Array-form pending (written only by the vector kernel's
        # push-back).  Always logically *ahead* of the list pending:
        # an array push-back returns the unconsumed suffix of a batch
        # whose addresses were already drawn past the list cursor.
        self._pending_arr: np.ndarray | None = None
        self._pending_arr_pos = 0

    def take_addresses(self, n: int) -> list[int]:
        """Up to ``n`` addresses, serving pushed-back ones first."""
        arr = self._pending_arr
        if arr is not None:
            # A scalar path took over after a vector push-back: fold
            # the array pending into the list pending once, in front.
            head = arr[self._pending_arr_pos:].tolist()
            self._pending_arr = None
            self._pending_arr_pos = 0
            if self._pending:
                head.extend(self._pending[self._pending_pos:])
            self._pending = head
            self._pending_pos = 0
        pend = self._pending
        if not pend:
            return self.pattern.next_addresses(n)
        pos = self._pending_pos
        avail = len(pend) - pos
        if avail > n:
            self._pending_pos = pos + n
            return pend[pos:pos + n]
        self._pending = []
        self._pending_pos = 0
        head = pend[pos:] if pos else pend
        if avail == n:
            return head
        # Extend in place instead of concatenating: the bulk kernel
        # consumes whole batches, so avoiding the intermediate copy
        # matters on the refill path.
        head.extend(self.pattern.next_addresses(n - avail))
        return head

    def take_addresses_array(self, n: int) -> np.ndarray:
        """Up to ``n`` addresses as an int64 array (vector-kernel path).

        The stream is identical to :meth:`take_addresses`.  Array
        pending (a vector push-back) is served first as zero-copy
        views; list pending (a scalar push-back) next, converted; the
        pattern refills the rest.
        """
        arr = self._pending_arr
        if arr is not None:
            pos = self._pending_arr_pos
            avail = arr.shape[0] - pos
            if avail > n:
                self._pending_arr_pos = pos + n
                return arr[pos:pos + n]
            self._pending_arr = None
            self._pending_arr_pos = 0
            head = arr[pos:] if pos else arr
            if avail == n:
                return head
            if self._pending:
                rest = np.asarray(
                    self.take_addresses(n - avail), dtype=np.int64
                )
            else:
                rest = self.pattern.next_addresses_array(n - avail)
            return np.concatenate((head, rest))
        if not self._pending:
            return self.pattern.next_addresses_array(n)
        return np.asarray(self.take_addresses(n), dtype=np.int64)

    def push_back(self, addrs: list[int], start: int) -> None:
        """Return ``addrs[start:]`` (unconsumed) to the stream front.

        ``addrs`` must be the most recent :meth:`take_addresses` result;
        its consumed prefix ``addrs[:start]`` stays consumed.
        """
        if start >= len(addrs):
            return
        if self._pending:
            # The batch was a window into the pending list; rewinding the
            # cursor by the unconsumed count restores exactly that suffix.
            self._pending_pos -= len(addrs) - start
        else:
            self._pending = addrs
            self._pending_pos = start

    def push_back_array(self, addrs: np.ndarray, start: int) -> None:
        """Array twin of :meth:`push_back`, storing views not copies.

        ``addrs`` must be the most recent :meth:`take_addresses_array`
        result.  When that batch was a window into the array pending,
        rewinding the cursor restores the suffix; otherwise the suffix
        view becomes the new array pending (served before any list
        pending, whose cursor already advanced past these addresses).
        """
        if start >= addrs.shape[0]:
            return
        if self._pending_arr is not None:
            self._pending_arr_pos -= addrs.shape[0] - start
        else:
            self._pending_arr = addrs
            self._pending_arr_pos = start


@dataclass(frozen=True)
class WorkloadSpec:
    """Immutable description of a complete workload."""

    name: str
    phases: tuple[PhaseSpec, ...]
    total_instructions: float

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"workload {self.name!r} has no phases")
        if self.total_instructions <= 0:
            raise WorkloadError(
                f"workload {self.name!r} needs a positive instruction "
                f"budget, got {self.total_instructions}"
            )

    def footprint_lines(self) -> int:
        """Peak distinct-line footprint across phases."""
        return max(p.pattern.footprint_lines() for p in self.phases)

    def span_lines(self) -> int:
        """Widest line range any phase addresses (they share a base)."""
        return max(p.pattern.span_lines() for p in self.phases)

    def instantiate(
        self, seed: int = 0, base: int = 0
    ) -> "WorkloadInstance":
        """Create a runnable instance with its own RNG stream."""
        return WorkloadInstance(self, seed=seed, base=base)


class WorkloadInstance:
    """Mutable execution state of one workload run.

    The simulated core drives this through three methods:
    :meth:`current_phase`, :meth:`accesses_left_in_phase`, and
    :meth:`account` — see :meth:`repro.arch.core.Core.run`.  The
    statistical engine calls only :meth:`account`.

    The address generators are built on first use of
    :meth:`current_phase`: every phase's pattern, in phase order, from
    one ``np.random.default_rng(seed)``.  An instance that is only
    accounted — a statistical run and each of its batch relaunches —
    never builds them.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0, base: int = 0):
        self.spec = spec
        self.seed = seed
        self.base = base
        self._phases: list[RuntimePhase] | None = None
        #: per phase, the instructions one access stands for
        self._instructions_per_access = tuple(
            p.instructions_per_access for p in spec.phases
        )
        self._phase_index = 0
        self._phase_remaining = spec.phases[0].duration_instructions
        self._total_remaining = spec.total_instructions
        self.instructions_retired = 0.0
        self.finished = False

    def _build_phases(self) -> list[RuntimePhase]:
        rng = np.random.default_rng(self.seed)
        # Patterns persist across phase revisits, modelling a program
        # returning to a data structure it already walked (warm state).
        self._phases = [
            RuntimePhase(p, p.pattern.instantiate(rng, self.base))
            for p in self.spec.phases
        ]
        return self._phases

    def current_phase(self) -> RuntimePhase:
        """The phase the next access belongs to."""
        phases = self._phases
        if phases is None:
            phases = self._build_phases()
        return phases[self._phase_index]

    def accesses_left_in_phase(self) -> int:
        """Upper bound on accesses before a phase/finish boundary.

        Always at least 1 for an unfinished workload so the core's
        chunk loop makes progress.
        """
        if self.finished:
            return 0
        per_access = self._instructions_per_access[self._phase_index]
        remaining = min(self._phase_remaining, self._total_remaining)
        return max(1, math.ceil(remaining / per_access))

    def account(self, accesses: int) -> None:
        """Record that ``accesses`` accesses of the current phase ran.

        Advances instruction counters, rotates to the next phase at a
        phase boundary, and marks the workload finished when the total
        instruction budget is exhausted.
        """
        if accesses < 0:
            raise WorkloadError(f"negative access count: {accesses}")
        if accesses == 0 or self.finished:
            return
        instructions = (
            accesses * self._instructions_per_access[self._phase_index]
        )
        self.instructions_retired += instructions
        self._phase_remaining -= instructions
        self._total_remaining -= instructions
        if self._total_remaining <= 1e-9:
            self.finished = True
            return
        if self._phase_remaining <= 1e-9:
            phases = self.spec.phases
            self._phase_index = (self._phase_index + 1) % len(phases)
            self._phase_remaining = (
                phases[self._phase_index].duration_instructions
            )

    @property
    def instructions_remaining(self) -> float:
        """Instructions left before the budget is exhausted."""
        return max(0.0, self._total_remaining)

    @property
    def progress(self) -> float:
        """Fraction of the instruction budget retired, in [0, 1]."""
        return min(1.0, self.instructions_retired / self.spec.total_instructions)

    def __repr__(self) -> str:
        return (
            f"WorkloadInstance({self.spec.name!r}, "
            f"progress={self.progress:.2%}, finished={self.finished})"
        )

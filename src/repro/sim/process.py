"""Simulated processes.

A :class:`SimProcess` binds a workload to a core and carries the
scheduling state CAER manipulates: the paper's runtime never touches the
latency-sensitive application, but pauses and resumes *batch* processes
("red-light/green-light", "soft locking").  Pausing is modelled exactly
as the prototype does it — the process simply does not execute during
paused periods; its cache state stays in place and decays only through
the neighbours' evictions.
"""

from __future__ import annotations

from enum import Enum

from ..errors import SchedulingError, WorkloadError
from ..workloads.base import RuntimePhase, WorkloadInstance, WorkloadSpec

#: Lines in each process's slice of the line-address space: 2^26
#: 64-byte lines (4 GiB), over 1,600 times the widest SPEC model's
#: span.  Core c's slice starts at ``(c + 1) * LINE_WINDOW``, a
#: multiple of every cache's set count, so a process's set indices do
#: not depend on its core.  For cores 0-14 every line address stays
#: below 2^30, the one-digit ints CPython's fast paths (``==``, ``&``,
#: hashing, dict-key compares) serve; cores from 15 up still run
#: correctly, on two-digit addresses.
LINE_WINDOW = 1 << 26


def line_base(core_id: int) -> int:
    """The first line address of the process on core ``core_id``."""
    return (core_id + 1) * LINE_WINDOW


class AppClass(str, Enum):
    """The paper's two application categories (§1)."""

    LATENCY_SENSITIVE = "latency-sensitive"
    BATCH = "batch"


class ProcessState(str, Enum):
    """Lifecycle of a simulated process."""

    WAITING = "waiting"  # not yet launched
    RUNNING = "running"
    PAUSED = "paused"  # throttled by a CAER directive
    FINISHED = "finished"


class SimProcess:
    """One application instance scheduled on one core."""

    def __init__(
        self,
        spec: WorkloadSpec,
        core_id: int,
        app_class: AppClass = AppClass.LATENCY_SENSITIVE,
        name: str | None = None,
        seed: int = 0,
        launch_period: int = 0,
        relaunch: bool = False,
    ):
        if core_id < 0:
            raise SchedulingError(f"invalid core id: {core_id}")
        if launch_period < 0:
            raise SchedulingError(
                f"launch_period must be >= 0: {launch_period}"
            )
        self.spec = spec
        self.core_id = core_id
        self.app_class = app_class
        self.name = name or spec.name
        self.seed = seed
        self.launch_period = launch_period
        self.relaunch = relaunch
        # Give each process a disjoint slice of the line-address space so
        # co-located processes never share data (the paper's workloads
        # do not share; contention is purely capacity/bandwidth).  A
        # workload wider than its slice would alias its neighbour's.
        span = spec.span_lines()
        if span > LINE_WINDOW:
            raise WorkloadError(
                f"workload {spec.name!r} spans {span} lines, more than "
                f"a process's {LINE_WINDOW}-line address window"
            )
        self._base = line_base(core_id)
        self.workload = spec.instantiate(seed=seed, base=self._base)
        self.state = ProcessState.WAITING
        #: execution-speed multiplier in (0, 1]: the DVFS-style throttle
        #: (§7's related-work response) — 1.0 is full frequency
        self.speed_factor = 1.0
        #: completed runs (the batch app is relaunched on completion)
        self.completions = 0
        self.first_completion_period: int | None = None
        self.periods_running = 0
        self.periods_paused = 0

    # -- execution interface consumed by Core.run -----------------------

    @property
    def finished(self) -> bool:
        """Whether the current workload instance ran to completion."""
        return self.workload.finished

    def current_phase(self) -> RuntimePhase:
        """Delegate to the live workload instance."""
        return self.workload.current_phase()

    def accesses_left_in_phase(self) -> int:
        """Delegate to the live workload instance."""
        return self.workload.accesses_left_in_phase()

    def account(self, accesses: int) -> None:
        """Delegate to the live workload instance."""
        self.workload.account(accesses)

    # -- lifecycle -------------------------------------------------------

    def launch(self) -> None:
        """Move from WAITING to RUNNING (engine calls at launch_period)."""
        if self.state is not ProcessState.WAITING:
            raise SchedulingError(
                f"cannot launch {self.name!r} from state {self.state}"
            )
        self.state = ProcessState.RUNNING

    def note_completion(self, period: int) -> None:
        """Record a completed run; restart the workload if relaunching."""
        self.completions += 1
        if self.first_completion_period is None:
            self.first_completion_period = period
        if self.relaunch:
            self.workload = self.spec.instantiate(
                seed=self.seed + self.completions, base=self._base
            )
        else:
            self.state = ProcessState.FINISHED

    def set_paused(self, paused: bool) -> None:
        """Apply a CAER throttle directive (no-op once finished)."""
        if self.state is ProcessState.FINISHED:
            return
        if paused and self.state is ProcessState.RUNNING:
            self.state = ProcessState.PAUSED
        elif not paused and self.state is ProcessState.PAUSED:
            self.state = ProcessState.RUNNING

    def set_speed(self, factor: float) -> None:
        """Apply a frequency-scaling directive (DVFS-style throttle).

        ``factor`` is the fraction of the core's cycle budget the
        process may use each period; 1.0 restores full speed.
        """
        if not 0.0 < factor <= 1.0:
            raise SchedulingError(
                f"speed factor must be in (0, 1]: {factor}"
            )
        self.speed_factor = factor

    @property
    def runnable(self) -> bool:
        """Whether the engine should execute this process right now."""
        return self.state is ProcessState.RUNNING

    def __repr__(self) -> str:
        return (
            f"SimProcess({self.name!r}, core={self.core_id}, "
            f"class={self.app_class.value}, state={self.state.value})"
        )

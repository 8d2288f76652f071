"""Per-core performance monitoring unit (PMU).

The real CAER reads hardware counters through Perfmon2; here the
counters are fed by the simulated core and cache hierarchy.  The
interface mirrors how CAER uses the hardware (§3.2): counters accumulate
for free while the application runs, and a periodic probe *reads and
restarts* them, yielding per-period deltas.

:class:`CorePMU` is the hardware-side counter bank;
:mod:`repro.perfmon` layers the Perfmon2-like session API on top.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class PMUEvent(str, Enum):
    """Countable events, named after their Nehalem counterparts."""

    CYCLES = "UNHALTED_CORE_CYCLES"
    INSTRUCTIONS_RETIRED = "INSTRUCTIONS_RETIRED"
    LLC_MISSES = "LLC_MISSES"
    LLC_REFERENCES = "LLC_REFERENCES"
    L2_MISSES = "L2_MISSES"
    L1_MISSES = "L1_MISSES"
    BACK_INVALIDATIONS = "L3_BACK_INVALIDATIONS"
    LINES_STOLEN = "L3_LINES_EVICTED_BY_OTHER_CORE"


class PMUSample(NamedTuple):
    """One period's worth of counter deltas for one core.

    This is the unit of information CAER's communication table stores:
    everything the runtime knows about an application, it knows through
    a stream of these samples.  An immutable named tuple: every run
    builds one per process per period.
    """

    cycles: float
    instructions: float
    llc_misses: int
    llc_references: int
    l2_misses: int
    l1_misses: int
    back_invalidations: int
    lines_stolen: int

    @property
    def ipc(self) -> float:
        """Instructions retired per cycle during the period."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def llc_miss_rate(self) -> float:
        """LLC misses per LLC reference during the period."""
        if not self.llc_references:
            return 0.0
        return self.llc_misses / self.llc_references

    def get(self, event: PMUEvent) -> float:
        """Read one event's delta by descriptor."""
        mapping = {
            PMUEvent.CYCLES: self.cycles,
            PMUEvent.INSTRUCTIONS_RETIRED: self.instructions,
            PMUEvent.LLC_MISSES: self.llc_misses,
            PMUEvent.LLC_REFERENCES: self.llc_references,
            PMUEvent.L2_MISSES: self.l2_misses,
            PMUEvent.L1_MISSES: self.l1_misses,
            PMUEvent.BACK_INVALIDATIONS: self.back_invalidations,
            PMUEvent.LINES_STOLEN: self.lines_stolen,
        }
        return mapping[event]

    @classmethod
    def zero(cls) -> "PMUSample":
        """An all-zero sample (an idle period)."""
        return cls(0.0, 0.0, 0, 0, 0, 0, 0, 0)


class CorePMU:
    """Counter bank of one core, with read-and-restart semantics."""

    def __init__(self, core: "object", hierarchy_counters: "object"):
        """Bind to a core's cumulative counters.

        ``core`` must expose ``cycles_executed`` and
        ``instructions_retired``; ``hierarchy_counters`` is the core's
        :class:`repro.arch.hierarchy.HierarchyCounters`.
        """
        self._core = core
        self._hier = hierarchy_counters
        self._last = self._snapshot()
        self.reads = 0

    def _snapshot(self) -> tuple[float, float, int, int, int, int, int, int]:
        hier = self._hier
        return (
            self._core.cycles_executed,
            self._core.instructions_retired,
            hier.l3_misses,
            hier.l3_hits + hier.l3_misses,
            hier.l2_misses,
            hier.l1_misses,
            hier.back_invalidations,
            hier.lines_stolen,
        )

    def read(self) -> PMUSample:
        """Return deltas since the previous read and restart counting."""
        now = self._snapshot()
        last = self._last
        self._last = now
        self.reads += 1
        return PMUSample(*(a - b for a, b in zip(now, last)))

    def peek(self) -> PMUSample:
        """Return deltas since the previous read *without* restarting."""
        now = self._snapshot()
        return PMUSample(*(a - b for a, b in zip(now, self._last)))

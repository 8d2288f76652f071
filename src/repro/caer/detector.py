"""Contention-detector interface.

A detector is driven once per probe period with an :class:`Observation`
built from the communication table, and returns a :class:`DetectorStep`:
whether the batch side should pause *during the detection process
itself* (the Burst-Shutter heuristic halts the batch to measure a steady
baseline), and — on the periods where the heuristic reaches a verdict —
a contention assertion that the runtime feeds to the response policy
(Figure 5's detect → respond transition).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple


class Observation(NamedTuple):
    """What one period's table state looks like to the batch-side engine.

    ``own_*`` aggregates the batch applications' LLC misses,
    ``neighbor_*`` the latency-sensitive applications'.  ``last`` values
    are this period's counts, ``mean`` values are windowed averages.
    An immutable named tuple, built once per period.
    """

    own_misses: float
    neighbor_misses: float
    own_mean: float
    neighbor_mean: float
    period: int


class DetectorStep(NamedTuple):
    """Detector output for one period.

    ``pause_self`` is the Algorithm 1 signal of the same name: "whether
    to pause execution for the next period" as part of the measurement
    itself.  ``assertion`` is ``True``/``False`` when the heuristic
    reached a contention verdict this period, ``None`` while it is still
    gathering evidence.
    """

    pause_self: bool
    assertion: bool | None = None


class ContentionDetector(ABC):
    """Base class of the paper's detection heuristics."""

    #: short identifier used in logs and reports
    name: str = "abstract"

    #: the heuristic's decision threshold, surfaced in trace events
    #: (``None`` when the heuristic has no single scalar threshold)
    trace_threshold: float | None = None

    @abstractmethod
    def step(self, obs: Observation) -> DetectorStep:
        """Advance one period; possibly produce a verdict."""

    @abstractmethod
    def reset(self) -> None:
        """Restart the detection cycle (called when a response ends)."""

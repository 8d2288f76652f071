"""Typed period-level trace events.

Every decision the runtime stack makes is reconstructible from four
event kinds, all keyed by the probe-period index:

* :class:`PMUSampleEvent` — what the hardware counters said about one
  process during one period (the raw input to everything else);
* :class:`DetectionEvent` — what the detection side saw and concluded:
  the heuristic's inputs (own/neighbour misses, windowed means), its
  threshold, the Figure 5 state it was in, and the verdict (``None``
  while evidence is still being gathered);
* :class:`ResponseEvent` — the throttle directive a response policy
  issued: pause, DVFS speed, L3 quota, and whether the response ended;
* :class:`PhaseEvent` — lifecycle edges: process launch/completion and
  the runtime's detect ↔ respond transitions.

Determinism contract: event payloads carry **no wall-clock values** —
time is expressed only as period indices — so a traced run serialises
bit-identically across hosts and re-runs, and tracing can be diffed
like any other run artefact.  (Wall-clock profiling lives in
:mod:`repro.obs.metrics`, which makes no such promise.)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Union


@dataclass(frozen=True)
class PMUSampleEvent:
    """One process's counter deltas for one period."""

    kind: ClassVar[str] = "pmu_sample"

    period: int
    process: str
    state: str  # scheduling state held during the period
    cycles: float
    instructions: float
    llc_misses: int
    llc_references: int

    def to_dict(self) -> dict:
        """JSON-serialisable payload, ``kind`` included."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class DetectionEvent:
    """The detection side of one period: inputs, threshold, verdict.

    Emitted every period the CAER hook runs — including periods spent
    inside a response, where ``state`` says so and ``verdict`` is
    ``None`` — so the event count of a trace equals the run's period
    count and gaps are impossible.
    """

    kind: ClassVar[str] = "detection"

    period: int
    detector: str
    state: str  # "detect", "respond", "c-positive", "c-negative"
    own_misses: float
    neighbor_misses: float
    own_mean: float
    neighbor_mean: float
    threshold: float | None
    pause_self: bool
    verdict: bool | None

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class ResponseEvent:
    """One period's throttle directive from the active response."""

    kind: ClassVar[str] = "response"

    period: int
    response: str
    verdict: bool  # the assertion the response is acting on
    pause_batch: bool
    speed: float
    l3_quota: float | None
    done: bool

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class RunSpecEvent:
    """The identity of the run a trace belongs to, emitted at period 0.

    Carries the executing :class:`~repro.runspec.RunSpec`'s
    content-addressed digest plus the coordinates a human needs to
    rebuild the spec, so any trace file (or ring buffer) is
    self-describing: events can be joined back to the exact run
    description — and its cache entry — that produced them.
    """

    kind: ClassVar[str] = "run_spec"

    period: int
    digest: str
    backend: str
    victim: str
    contenders: int

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class FaultEvent:
    """One injected PMU-signal fault (:mod:`repro.faults`).

    Emitted by the fault injector at the moment a perturbation is
    applied to a process's counter stream: ``fault`` names the
    perturbation kind (``drop``, ``stuck``, ``jitter``, ``noise``,
    ``saturate``, ``delay``) and ``magnitude`` its size in the kind's
    natural unit (the jitter scale factor, the saturation cap, 1.0 for
    the pure on/off kinds).  Like every trace event it carries no
    wall-clock values, so faulty runs stay bit-reproducible.
    """

    kind: ClassVar[str] = "fault"

    period: int
    process: str
    fault: str
    magnitude: float

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class PhaseEvent:
    """A lifecycle edge: ``scope`` names the state machine, ``subject``
    the instance, ``phase`` the state entered at ``period``.  A process
    that does not relaunch ends with ``completed``; a relaunching one
    emits ``relaunched`` once per run it completes."""

    kind: ClassVar[str] = "phase"

    period: int
    scope: str  # "process" or "caer"
    subject: str  # process name, or the runtime's detector name
    phase: str  # "launched", "completed", "relaunched", "detect", "respond"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


#: Union of every event type a sink may receive.
TraceEvent = Union[
    PMUSampleEvent, DetectionEvent, ResponseEvent, PhaseEvent,
    RunSpecEvent, FaultEvent,
]

#: All event kinds, in emission-priority order (for reports).
EVENT_KINDS = (
    RunSpecEvent.kind,
    PMUSampleEvent.kind,
    FaultEvent.kind,
    DetectionEvent.kind,
    ResponseEvent.kind,
    PhaseEvent.kind,
)

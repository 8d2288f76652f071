"""Contention responses (§5).

After a verdict the runtime enters a response state — *c-positive* when
contention was asserted, *c-negative* otherwise — and throttles (or
releases) the batch applications:

* :class:`RedLightGreenLight` holds the verdict for a fixed number of
  periods (red = batch paused, green = batch running).  The adaptive
  variant the paper sketches lengthens the hold while consecutive
  verdicts agree, and snaps back to the base length on a flip.
* :class:`SoftLock` parks the batch for as long as the
  latency-sensitive side keeps missing heavily, releasing it the moment
  the pressure subsides; a c-negative verdict ends immediately so
  detection resumes at the next period.
* :class:`FrequencyScaling` implements the direction §7 highlights as
  promising (Herdrich et al.): instead of stopping the batch outright,
  run its core at a reduced frequency while contention holds — gentler
  on throughput, still relieving cache/bandwidth pressure.

A response reports ``done`` when control should return to the detection
phase (Figure 5's respond → detect transition).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from ..errors import ConfigError, DetectorError
from .detector import Observation


class ResponseStep(NamedTuple):
    """Response output for one period.

    ``speed`` is the DVFS-style frequency fraction applied to the batch
    cores; the pause-based responses leave it at full speed.
    """

    pause_batch: bool
    done: bool
    speed: float = 1.0
    #: L3 occupancy cap for the batch cores (None = uncapped)
    l3_quota: float | None = None


class ResponsePolicy(ABC):
    """Base class of the paper's throttling responses."""

    name: str = "abstract"

    @abstractmethod
    def begin(self, contending: bool) -> None:
        """Enter the c-positive (True) or c-negative (False) state."""

    @abstractmethod
    def step(self, obs: Observation) -> ResponseStep:
        """Advance one period inside the response state."""


class RedLightGreenLight(ResponsePolicy):
    """Hold the verdict for ``length`` periods (§5's first response)."""

    name = "red-light-green-light"

    def __init__(
        self,
        length: int = 10,
        adaptive: bool = False,
        max_length: int = 80,
    ):
        if length < 1:
            raise ConfigError(f"length must be >= 1: {length}")
        if max_length < length:
            raise ConfigError(
                f"max_length ({max_length}) must be >= length ({length})"
            )
        self.base_length = length
        self.adaptive = adaptive
        self.max_length = max_length
        self._current_length = length
        self._remaining = 0
        self._verdict: bool | None = None
        self._previous_verdict: bool | None = None

    def begin(self, contending: bool) -> None:
        """Arm the hold; adaptively lengthen on repeated verdicts."""
        if self.adaptive and self._previous_verdict is contending:
            self._current_length = min(
                self._current_length * 2, self.max_length
            )
        else:
            self._current_length = self.base_length
        self._previous_verdict = contending
        self._verdict = contending
        self._remaining = self._current_length

    def step(self, obs: Observation) -> ResponseStep:
        """Red while contending, green otherwise, for the armed length."""
        if self._verdict is None or self._remaining <= 0:
            raise DetectorError("step() on a response that was not begun")
        self._remaining -= 1
        return ResponseStep(
            pause_batch=self._verdict, done=self._remaining == 0
        )

    @property
    def current_length(self) -> int:
        """The hold length currently armed (grows in adaptive mode)."""
        return self._current_length

    def __repr__(self) -> str:
        return (
            f"RedLightGreenLight(length={self.base_length}, "
            f"adaptive={self.adaptive})"
        )


class SoftLock(ResponsePolicy):
    """Park the batch until the neighbour's cache pressure subsides.

    ``release_thresh`` is the same "heavy usage" threshold the
    rule-based detector uses: the lock is held while the
    latency-sensitive side's windowed LLC-miss average stays above it
    (§5: "the batch application is allowed to fully resume execution
    when the pressure on the cache subsides").  ``max_hold`` bounds the
    lock so a permanently-hot neighbour cannot starve the batch forever:
    after ``max_hold`` paused periods the response ends and detection
    re-evaluates.  The paper does not specify a bound; the default was
    chosen so that rule-based utilization for always-hot neighbours
    lands in the band the paper reports for its most sensitive
    benchmarks.
    """

    name = "soft-lock"

    def __init__(self, release_thresh: float, max_hold: int = 25):
        if release_thresh < 0:
            raise ConfigError(
                f"release_thresh must be >= 0: {release_thresh}"
            )
        if max_hold < 1:
            raise ConfigError(f"max_hold must be >= 1: {max_hold}")
        self.release_thresh = release_thresh
        self.max_hold = max_hold
        self._locked = False
        self._held = 0
        self._begun = False

    def begin(self, contending: bool) -> None:
        """Lock on c-positive; pass through on c-negative."""
        self._locked = contending
        self._held = 0
        self._begun = True

    def step(self, obs: Observation) -> ResponseStep:
        """Hold the lock while the neighbour stays above the threshold."""
        if not self._begun:
            raise DetectorError("step() on a response that was not begun")
        if not self._locked:
            # c-negative: let the batch run and hand control straight
            # back to detection.
            self._begun = False
            return ResponseStep(pause_batch=False, done=True)
        self._held += 1
        release = (
            obs.neighbor_mean < self.release_thresh
            or self._held >= self.max_hold
        )
        if release:
            self._locked = False
            self._begun = False
            return ResponseStep(pause_batch=False, done=True)
        return ResponseStep(pause_batch=True, done=False)

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._locked

    def __repr__(self) -> str:
        return (
            f"SoftLock(release_thresh={self.release_thresh}, "
            f"max_hold={self.max_hold})"
        )


class FrequencyScaling(ResponsePolicy):
    """DVFS-style response: slow the batch core instead of pausing it.

    On a c-positive verdict the batch cores run at ``scale`` of their
    frequency for ``length`` periods; on c-negative they run at full
    speed for ``length`` periods.  The paper's §7 cites per-core DVFS
    (Herdrich et al., ICS'09) as a promising alternative to execution
    throttling — this policy lets the ablation benches quantify the
    trade-off on this substrate.
    """

    name = "frequency-scaling"

    def __init__(self, scale: float = 0.25, length: int = 10):
        if not 0.0 < scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1]: {scale}")
        if length < 1:
            raise ConfigError(f"length must be >= 1: {length}")
        self.scale = scale
        self.length = length
        self._remaining = 0
        self._verdict: bool | None = None

    def begin(self, contending: bool) -> None:
        """Arm the scaled (or full-speed) hold."""
        self._verdict = contending
        self._remaining = self.length

    def step(self, obs: Observation) -> ResponseStep:
        """Run the batch at reduced or full frequency."""
        if self._verdict is None or self._remaining <= 0:
            raise DetectorError("step() on a response that was not begun")
        self._remaining -= 1
        speed = self.scale if self._verdict else 1.0
        return ResponseStep(
            pause_batch=False,
            done=self._remaining == 0,
            speed=speed,
        )

    def __repr__(self) -> str:
        return (
            f"FrequencyScaling(scale={self.scale}, length={self.length})"
        )


class CachePartition(ResponsePolicy):
    """Hardware-style response: cap the batch side's L3 occupancy.

    The paper's related work (§7) surveys cache-partitioning/QoS
    proposals and notes commodity chips cannot support them; the
    simulated L3 can (:meth:`repro.arch.hierarchy.CacheHierarchy.set_l3_quota`),
    so this policy quantifies what CAER's software-only throttling gives
    up against that hypothetical hardware: on a c-positive verdict the
    batch keeps *running* but may only hold ``quota`` of the L3 for
    ``length`` periods; on c-negative the cap is lifted.

    Note the limits of the mechanism: it protects the victim's cache
    occupancy but not the shared memory channel, so bandwidth-bound
    interference passes straight through it.
    """

    name = "cache-partition"

    def __init__(self, quota: float = 0.25, length: int = 10):
        if not 0.0 < quota <= 1.0:
            raise ConfigError(f"quota must be in (0, 1]: {quota}")
        if length < 1:
            raise ConfigError(f"length must be >= 1: {length}")
        self.quota = quota
        self.length = length
        self._remaining = 0
        self._verdict: bool | None = None

    def begin(self, contending: bool) -> None:
        """Arm the capped (or uncapped) hold."""
        self._verdict = contending
        self._remaining = self.length

    def step(self, obs: Observation) -> ResponseStep:
        """Run the batch under (or free of) the occupancy cap."""
        if self._verdict is None or self._remaining <= 0:
            raise DetectorError("step() on a response that was not begun")
        self._remaining -= 1
        return ResponseStep(
            pause_batch=False,
            done=self._remaining == 0,
            l3_quota=self.quota if self._verdict else None,
        )

    def __repr__(self) -> str:
        return f"CachePartition(quota={self.quota}, length={self.length})"

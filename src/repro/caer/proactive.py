"""A proactive detection heuristic driven by the analytic model.

Every heuristic in the paper is *reactive*: it waits for the misses to
spike and then throttles.  The :mod:`repro.analytic` layer already
knows how to predict where the spike will land — the victim's
stack-distance profile gives a miss-rate curve, and the shared-cache
fixed point predicts its per-period miss rate both alone and co-located
with a contender.  This detector wires that model into the runtime:

* :func:`predicted_miss_fence` places a fence **halfway between the
  predicted solo and predicted co-located miss rates** of the victim —
  an offline-model analogue of the profile oracle's baseline, obtained
  without a profiling *run*;
* online, the detector keeps a short window of the neighbour's
  windowed miss averages, fits a least-squares trend, and extrapolates
  ``horizon`` periods ahead;
* contention is asserted when the **projected** value crosses the
  fence — i.e. while the miss curve is still climbing toward the
  predicted contended level, before it arrives — so the response
  triggers ahead of the spike the reactive heuristics wait for.

The model evaluation runs once at construction.  Its expensive part,
pattern profiling, is cached per process by
:func:`repro.analytic.mrc.profile_patterns`, so sweeps re-using the
same coordinates pay only the cheap occupancy/queue fixed point again.
"""

from __future__ import annotations

from collections import deque

from ..config import MachineConfig
from ..errors import ConfigError
from .detector import ContentionDetector, DetectorStep, Observation


def predicted_miss_fence(
    victim: str,
    machine: MachineConfig,
    contender: str = "470.lbm",
) -> float:
    """Model-predicted misses/period fence for ``victim`` vs. ``contender``.

    Evaluates the analytic co-location model (MRC + shared-occupancy +
    memory-queue fixed point) for the victim's dominant phase alone and
    next to the contender, converts both cost/miss-rate pairs to
    misses per probe period, and returns their midpoint: above it the
    victim is observably closer to its predicted *contended* behaviour
    than to its predicted solo behaviour.
    """
    from ..analytic.predictor import (
        predict_colocation,
        profile_phase,
        _dominant_phase,
    )
    from ..workloads import benchmark

    lines = machine.l3.capacity_lines
    victim_spec = benchmark(victim, lines)
    contender_spec = benchmark(contender, lines)
    profile = profile_phase(_dominant_phase(victim_spec))
    prediction = predict_colocation(victim_spec, contender_spec, machine)
    # misses/period = (accesses/period) * miss rate; accesses/period is
    # the period's cycle budget over the per-access cost.
    solo_rate = profile.mrc.miss_rate(lines)
    colo_rate = profile.mrc.miss_rate(
        prediction.victim_occupancy_fraction * lines
    )
    solo_misses = (
        machine.period_cycles * solo_rate / prediction.victim_solo_cost
    )
    colo_misses = (
        machine.period_cycles * colo_rate / prediction.victim_colo_cost
    )
    return (solo_misses + colo_misses) / 2.0


class AnalyticProactiveDetector(ContentionDetector):
    """Extrapolate the miss trend; assert before it crosses the fence."""

    name = "proactive-analytic"

    def __init__(
        self,
        fence: float,
        horizon: int = 4,
        window: int = 8,
        noise_floor: float = 0.0,
    ):
        if fence < 0:
            raise ConfigError(f"fence must be >= 0: {fence}")
        if horizon < 0:
            raise ConfigError(f"horizon must be >= 0: {horizon}")
        if window < 2:
            raise ConfigError(f"window must be >= 2: {window}")
        if noise_floor < 0:
            raise ConfigError(f"noise_floor must be >= 0: {noise_floor}")
        self.fence = fence
        self.horizon = horizon
        self.window = window
        self.noise_floor = noise_floor
        self.trace_threshold = fence
        self._recent: deque[float] = deque(maxlen=window)
        self.verdicts: list[bool] = []

    def project(self) -> float:
        """Least-squares trend of the window, ``horizon`` periods ahead."""
        points = list(self._recent)
        n = len(points)
        if n < 2:
            return points[-1] if points else 0.0
        # Closed-form simple linear regression over x = 0..n-1.
        x_mean = (n - 1) / 2.0
        y_mean = sum(points) / n
        denom = sum((i - x_mean) ** 2 for i in range(n))
        slope = (
            sum(
                (i - x_mean) * (y - y_mean)
                for i, y in enumerate(points)
            )
            / denom
        )
        return points[-1] + slope * self.horizon

    def step(self, obs: Observation) -> DetectorStep:
        """Verdict from the projected (not the observed) miss level."""
        self._recent.append(obs.neighbor_mean)
        if len(self._recent) < 2:
            return DetectorStep(pause_self=False)
        projected = self.project()
        contending = (
            projected > self.fence and projected > self.noise_floor
        )
        self.verdicts.append(contending)
        return DetectorStep(pause_self=False, assertion=contending)

    def reset(self) -> None:
        """Keep the trend window; the fence is static."""

    def __repr__(self) -> str:
        return (
            f"AnalyticProactiveDetector(fence={self.fence:.1f}, "
            f"horizon={self.horizon}, window={self.window})"
        )

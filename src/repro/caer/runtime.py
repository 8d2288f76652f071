"""The CAER runtime: monitors, the main engine, and its period loop.

This module ties the pieces of Figure 4 together.  In the paper, a thin
CAER-M layer under each latency-sensitive application publishes PMU
samples into the shared communication table, while the main CAER engine
under the batch applications reads the table, runs the detection
heuristic, and writes reaction directives that *all* batch layers obey.

Here the whole runtime is one period hook attached to the engine's
period loop (:class:`~repro.sim.engine.PeriodEngine`, whose period
boundary is the paper's 1 ms timer interrupt), on either backend.  Each period it:

1. publishes every application's PMU sample into the table (the CAER-M
   role);
2. builds an :class:`~repro.caer.detector.Observation` aggregating the
   batch side and the latency-sensitive side;
3. advances the detect/respond state machine of Figure 5;
4. applies the resulting pause/run directive to every batch process and
   appends a record to the run's decision log.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..arch.pmu import PMUSample
from ..config import MachineConfig
from ..errors import ConfigError
from ..obs import (
    DetectionEvent,
    MetricsRegistry,
    PhaseEvent,
    ResponseEvent,
    Tracer,
)
from ..sim.engine import PeriodEngine
from ..sim.process import AppClass
from . import registry
from .detector import ContentionDetector, Observation
from .response import ResponsePolicy
from .table import DEFAULT_WINDOW_SIZE, CommunicationTable

#: JSON-scalar types allowed as plugin-parameter values: anything else
#: would break the config's hashability or its canonical JSON form.
_PARAM_SCALARS = (str, int, float, bool, type(None))


def _freeze_params(field_name: str, value: object) -> tuple:
    """Normalise a plugin-parameter mapping to a sorted tuple of pairs.

    Accepts a dict (the natural way to write one) or any iterable of
    ``(key, value)`` pairs (the frozen form), validating that keys are
    strings and values JSON scalars so the config stays hashable and
    its canonical form digestible.
    """
    if isinstance(value, dict):
        items = list(value.items())
    else:
        try:
            items = [(k, v) for k, v in value]  # type: ignore[misc]
        except (TypeError, ValueError):
            raise ConfigError(
                f"{field_name} must be a mapping or iterable of "
                f"(key, value) pairs, got {value!r}"
            ) from None
    for key, val in items:
        if not isinstance(key, str) or not key:
            raise ConfigError(
                f"{field_name} keys must be non-empty strings, "
                f"got {key!r}"
            )
        if not isinstance(val, _PARAM_SCALARS):
            raise ConfigError(
                f"{field_name}[{key!r}] must be a JSON scalar "
                f"(str/int/float/bool/None), got {type(val).__name__}"
            )
    return tuple(sorted(items))


@dataclass(frozen=True)
class CaerConfig:
    """Declarative CAER configuration.

    Use the classmethods for the paper's three evaluated setups; the
    individual knobs are exposed for the tuning-space ablations.  A
    ``usage_thresh`` of ``None`` resolves to the paper's 1500
    misses/ms converted to the target machine's period length.

    ``detector``/``response`` name entries in the
    :mod:`repro.caer.registry` plugin registries; the paper's knobs
    stay first-class fields, while registered plugins read their
    free-form knobs from the open ``detector_params`` /
    ``response_params`` mappings (stored canonically as sorted
    key/value pairs so the config stays hashable; both participate in
    the run-spec digest like every other field).
    """

    detector: str = "rule-based"
    response: str = "soft-lock"
    window_size: int = DEFAULT_WINDOW_SIZE
    # burst-shutter knobs (Algorithm 1)
    switch_point: int = 5
    end_point: int = 10
    impact_factor: float = 0.05
    noise_thresh: float | None = None
    shutter_mode: str = "two-sided"
    # rule-based / soft-lock knobs (Algorithm 2, §5)
    usage_thresh: float | None = None
    soft_lock_max_hold: int = 25
    # red-light/green-light knobs (§5)
    response_length: int = 10
    adaptive: bool = False
    max_response_length: int = 80
    # frequency-scaling knobs (§7's DVFS alternative)
    dvfs_scale: float = 0.25
    # cache-partition knobs (§7's hardware-QoS alternative)
    partition_quota: float = 0.25
    # random baseline knobs (§6.4)
    probability: float = 0.5
    seed: int = 0
    # offline-profile oracle knobs (related-work comparator)
    baseline_misses: float | None = None
    profile_tolerance: float = 0.25
    # open plugin-parameter mappings (registry detectors/responses)
    detector_params: tuple = ()
    response_params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "detector_params",
            _freeze_params("detector_params", self.detector_params),
        )
        object.__setattr__(
            self,
            "response_params",
            _freeze_params("response_params", self.response_params),
        )

    @classmethod
    def shutter(cls, **overrides: object) -> "CaerConfig":
        """The paper's Burst-Shutter setup: RLGL response, length 10."""
        defaults = dict(
            detector="shutter", response="rlgl", response_length=10
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    @classmethod
    def rule_based(cls, **overrides: object) -> "CaerConfig":
        """The paper's Rule-Based setup: soft-lock response."""
        defaults = dict(detector="rule-based", response="soft-lock")
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    @classmethod
    def dvfs(cls, **overrides: object) -> "CaerConfig":
        """§7's alternative response: shutter detection + core DVFS."""
        defaults = dict(
            detector="shutter", response="dvfs", response_length=10
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    @classmethod
    def profile_oracle(
        cls, baseline_misses: float, **overrides: object
    ) -> "CaerConfig":
        """The offline-profile comparator: oracle detection + soft lock."""
        defaults = dict(
            detector="profile",
            response="soft-lock",
            baseline_misses=baseline_misses,
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    @classmethod
    def partition(cls, **overrides: object) -> "CaerConfig":
        """§7's hardware alternative: shutter detection + L3 quota."""
        defaults = dict(
            detector="shutter", response="partition",
            response_length=10,
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    @classmethod
    def random_baseline(cls, **overrides: object) -> "CaerConfig":
        """The §6.4 accuracy baseline: P=0.5, RLGL length 1."""
        defaults = dict(
            detector="random", response="rlgl", response_length=1
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-serialisable form (all knobs, even defaults).

        Every field rides along so a run spec's content digest covers
        the whole policy by construction — adding a knob to this config
        automatically widens every cache key that embeds it.  The
        plugin-parameter mappings serialise as JSON objects (their
        in-memory form is the hashable sorted-pair tuple).
        """
        data = dataclasses.asdict(self)
        data["detector_params"] = dict(self.detector_params)
        data["response_params"] = dict(self.response_params)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CaerConfig":
        """Rebuild a config from :meth:`to_dict` output (validating).

        Accepts spec-version-2 payloads, which predate the plugin
        registries: their ``caer`` objects simply lack the
        ``detector_params``/``response_params`` keys and deserialise
        with empty mappings.
        """
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(
                f"bad CAER config payload: {exc}"
            ) from None

    # -- component construction ------------------------------------------

    def build_detector(self, machine: MachineConfig) -> ContentionDetector:
        """Instantiate the configured detection heuristic.

        Resolution goes through :func:`repro.caer.registry.build_detector`,
        so any registered plugin is constructible here; unknown names
        raise :class:`ConfigError` listing the registered choices.
        """
        return registry.build_detector(self, machine)

    def build_response(self, machine: MachineConfig) -> ResponsePolicy:
        """Instantiate the configured response policy (via the registry)."""
        return registry.build_response(self, machine)

    def detector_param(self, key: str, default: object = None) -> object:
        """Fetch one free-form detector knob (factories' accessor)."""
        return dict(self.detector_params).get(key, default)

    def response_param(self, key: str, default: object = None) -> object:
        """Fetch one free-form response knob (factories' accessor)."""
        return dict(self.response_params).get(key, default)

    @property
    def label(self) -> str:
        """Short human-readable identifier for reports."""
        return f"caer({self.detector}+{self.response})"


class CaerRuntime:
    """The period hook implementing the CAER control loop.

    ``tracer``/``metrics`` default to the engine's, so wiring a tracer
    into the simulation engine is enough to capture the full decision
    trace; pass explicit instances to route CAER telemetry separately.
    """

    def __init__(
        self,
        engine: PeriodEngine,
        config: CaerConfig,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        machine = engine.machine
        self.config = config
        #: registry name the detector was resolved under — emitted in
        #: trace events so timeline/stats tooling keys on the config's
        #: vocabulary even for plugins whose class name differs.
        self.detector_name = config.detector
        self.tracer = tracer if tracer is not None else engine.tracer
        self.metrics = metrics if metrics is not None else engine.metrics
        self.detector = config.build_detector(machine)
        self.response = config.build_response(machine)
        self.table = CommunicationTable(window_size=config.window_size)
        self.ls_names: list[str] = []
        self.batch_names: list[str] = []
        for name, proc in engine.processes.items():
            self.table.register(name, proc.app_class)
            if proc.app_class is AppClass.LATENCY_SENSITIVE:
                self.ls_names.append(name)
            else:
                self.batch_names.append(name)
        if not self.batch_names:
            raise ConfigError("CAER needs at least one batch application")
        if not self.ls_names:
            raise ConfigError(
                "CAER needs at least one latency-sensitive application"
            )
        self._state = "detect"
        #: the assertion the active response is acting on (trace only)
        self._response_verdict: bool | None = None
        # Counters resolved at their first increment, so a run's
        # telemetry holds only the ones that fired.
        self._period_counter = None
        self._paused_counter = None

    def __call__(
        self,
        engine: PeriodEngine,
        period: int,
        samples: dict[str, PMUSample],
    ) -> None:
        """One timer tick: publish, observe, decide, direct."""
        table = self.table
        for name, sample in samples.items():
            table.publish(name, sample)
        obs = Observation(
            table.batch_misses(),
            table.latency_sensitive_misses(),
            table.batch_mean(),
            table.latency_sensitive_mean(),
            period,
        )
        assertion: bool | None = None
        speed = 1.0
        quota: float | None = None
        state_before = self._state
        rstep = None
        response_verdict: bool | None = None
        pause_self = False
        if self._state == "respond":
            rstep = self.response.step(obs)
            response_verdict = self._response_verdict
            pause = rstep.pause_batch
            speed = rstep.speed
            quota = rstep.l3_quota
            reason = "respond"
            if rstep.done:
                self._state = "detect"
                self.detector.reset()
        else:
            dstep = self.detector.step(obs)
            pause = dstep.pause_self
            pause_self = dstep.pause_self
            reason = "detect"
            assertion = dstep.assertion
            if assertion is not None:
                # Enter the response state immediately so its first
                # directive governs the very next period.
                self.response.begin(assertion)
                rstep = self.response.step(obs)
                response_verdict = assertion
                self._response_verdict = assertion
                pause = rstep.pause_batch
                speed = rstep.speed
                quota = rstep.l3_quota
                reason = "c-positive" if assertion else "c-negative"
                self._state = "detect" if rstep.done else "respond"
        metrics = self.metrics
        if metrics is not None:
            if self._period_counter is None:
                self._period_counter = metrics.counter("caer.periods")
            self._period_counter.inc()
            if assertion is True:
                metrics.counter("caer.verdicts_positive").inc()
            elif assertion is False:
                metrics.counter("caer.verdicts_negative").inc()
            if pause:
                if self._paused_counter is None:
                    self._paused_counter = metrics.counter(
                        "caer.batch_paused_periods"
                    )
                self._paused_counter.inc()
        if self.tracer.enabled:
            self.tracer.emit(DetectionEvent(
                period=period,
                detector=self.detector_name,
                state=reason,
                own_misses=obs.own_misses,
                neighbor_misses=obs.neighbor_misses,
                own_mean=obs.own_mean,
                neighbor_mean=obs.neighbor_mean,
                threshold=self.detector.trace_threshold,
                pause_self=pause_self,
                verdict=assertion,
            ))
            if rstep is not None:
                self.tracer.emit(ResponseEvent(
                    period=period,
                    response=self.response.name,
                    verdict=bool(response_verdict),
                    pause_batch=rstep.pause_batch,
                    speed=rstep.speed,
                    l3_quota=rstep.l3_quota,
                    done=rstep.done,
                ))
            if self._state != state_before:
                self.tracer.emit(PhaseEvent(
                    period=period, scope="caer",
                    subject=self.detector_name, phase=self._state,
                ))
        directives = table.directives
        directives.pause_batch = pause
        directives.batch_speed = speed
        directives.reason = reason
        for name in self.batch_names:
            engine.set_paused(name, pause)
            engine.set_speed(name, speed)
            engine.set_l3_quota(name, quota)
        engine.log_decision(
            {
                "period": period,
                "state": reason,
                "pause": pause,
                "speed": speed,
                "l3_quota": quota,
                "assertion": assertion,
                "own_misses": obs.own_misses,
                "neighbor_misses": obs.neighbor_misses,
                "own_mean": obs.own_mean,
                "neighbor_mean": obs.neighbor_mean,
            }
        )


def caer_factory(
    config: CaerConfig,
) -> Callable[[PeriodEngine], CaerRuntime]:
    """Adapter for :func:`repro.sim.scenario.build_engine`'s
    ``caer_factory`` (and the ``run_*`` helpers that pass it through).

    Returns a factory that, given the engine of either backend, builds
    a fully-wired :class:`CaerRuntime` for it to attach as its period
    hook.
    """
    return lambda engine: CaerRuntime(engine, config)

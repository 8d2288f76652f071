"""Exception hierarchy for the CAER reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid machine, workload, or runtime configuration."""


class CacheConfigError(ConfigError):
    """A cache was configured with impossible geometry.

    For example a non-power-of-two set count, a zero associativity, or a
    line size that does not divide the capacity.
    """


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class SchedulingError(SimulationError):
    """A process could not be placed on (or removed from) a core."""


class WorkloadError(ReproError):
    """A workload model was mis-specified or exhausted unexpectedly."""


class UnknownBenchmarkError(WorkloadError):
    """Lookup of a benchmark name that is not in the SPEC 2006 registry."""

    def __init__(self, name: str, known: tuple[str, ...] = ()):
        self.name = name
        self.known = known
        hint = f" (known: {', '.join(known)})" if known else ""
        super().__init__(f"unknown benchmark {name!r}{hint}")

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not the formatted
        # message, so the error crosses a worker pipe unchanged.
        return type(self), (self.name, self.known)


class PerfmonError(ReproError):
    """Misuse of the perfmon session API (e.g. reading a closed session)."""


class DetectorError(ReproError):
    """A contention detector was driven outside its legal state machine."""


class ExperimentError(ReproError):
    """An experiment campaign failed or was asked for unknown artefacts."""


class ObservabilityError(ReproError):
    """A tracer sink or metrics instrument was mis-configured or misused."""


class FaultPlanError(ConfigError):
    """A fault-injection plan was mis-specified (rates, caps, seeds)."""


class ChaosError(ReproError):
    """A failure injected on purpose by the ``REPRO_CHAOS`` test mode.

    Raised only when chaos mode is armed; seeing one outside a test run
    means the environment variable leaked.
    """


def is_deterministic(error: BaseException | None) -> bool:
    """Whether a failed run would fail the same way if retried.

    Configuration and validation errors (:class:`ConfigError` and
    :class:`WorkloadError`, with their subclasses) follow from the run's
    spec alone.  Everything else keeps the retry ladder: crashes,
    timeouts and dead workers (which carry no error), and
    :class:`ChaosError`.
    """
    return isinstance(error, (ConfigError, WorkloadError))

"""Open registries for contention detectors and response policies.

The paper ships exactly two detection heuristics and two responses;
growing the system used to mean editing ``CaerConfig``'s if/elif
chains in :mod:`repro.caer.runtime`.  This module replaces those
chains with two registries mirroring the execution-backend registry of
:mod:`repro.sim.scenario`:

* a **detector factory** takes ``(CaerConfig, MachineConfig)`` and
  returns a ready :class:`~repro.caer.detector.ContentionDetector`;
* a **response factory** takes the same pair and returns a
  :class:`~repro.caer.response.ResponsePolicy`.

``CaerConfig.detector``/``CaerConfig.response`` name entries here, so
a registered plugin is immediately reachable from run specs, the
campaign, the shootout driver, and the CLI — no runtime-core edits.
Free-form knobs travel on the config's open ``detector_params`` /
``response_params`` mappings (digest-visible like every other field);
factories read them through :meth:`CaerConfig.detector_param` /
:meth:`CaerConfig.response_param`.

Registration refuses silent overwrites (pass ``replace=True`` to
shadow a built-in) and lookups of unknown names raise
:class:`~repro.errors.ConfigError` listing the registered choices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..config import MachineConfig, default_usage_threshold
from ..errors import ConfigError
from .cdf_detector import CdfQuantileDetector
from .detector import ContentionDetector
from .gmm_detector import GmmFenceDetector
from .proactive import AnalyticProactiveDetector, predicted_miss_fence
from .profile_detector import ProfileDetector
from .random_detector import RandomDetector
from .response import (
    CachePartition,
    FrequencyScaling,
    RedLightGreenLight,
    ResponsePolicy,
    SoftLock,
)
from .rulebased import RuleBasedDetector
from .shutter import BurstShutterDetector

if TYPE_CHECKING:
    from .runtime import CaerConfig

#: A detector factory: ``(config, machine) -> detector``.
DetectorFactory = Callable[["CaerConfig", MachineConfig], ContentionDetector]

#: A response factory: ``(config, machine) -> response policy``.
ResponseFactory = Callable[["CaerConfig", MachineConfig], ResponsePolicy]

_DETECTORS: dict[str, DetectorFactory] = {}
_RESPONSES: dict[str, ResponseFactory] = {}


def _register(
    table: dict, kind: str, name: str, factory: Callable, replace: bool
) -> None:
    if not name:
        raise ConfigError(f"{kind} name must be non-empty")
    if name in table and not replace:
        raise ConfigError(
            f"{kind} {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    table[name] = factory


def register_detector(
    name: str, factory: DetectorFactory, replace: bool = False
) -> None:
    """Register a detector factory under ``name``.

    ``factory(config, machine)`` must return a fresh
    :class:`ContentionDetector` every call (runtimes are per-run).
    """
    _register(_DETECTORS, "detector", name, factory, replace)


def register_response(
    name: str, factory: ResponseFactory, replace: bool = False
) -> None:
    """Register a response-policy factory under ``name``."""
    _register(_RESPONSES, "response", name, factory, replace)


def detector_names() -> tuple[str, ...]:
    """The registered detector names, sorted."""
    return tuple(sorted(_DETECTORS))


def response_names() -> tuple[str, ...]:
    """The registered response names, sorted."""
    return tuple(sorted(_RESPONSES))


def build_detector(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    """Instantiate the detector ``config.detector`` names."""
    try:
        factory = _DETECTORS[config.detector]
    except KeyError:
        known = ", ".join(detector_names())
        raise ConfigError(
            f"unknown detector {config.detector!r} "
            f"(registered detectors: {known})"
        ) from None
    return factory(config, machine)


def build_response(
    config: "CaerConfig", machine: MachineConfig
) -> ResponsePolicy:
    """Instantiate the response policy ``config.response`` names."""
    try:
        factory = _RESPONSES[config.response]
    except KeyError:
        known = ", ".join(response_names())
        raise ConfigError(
            f"unknown response {config.response!r} "
            f"(registered responses: {known})"
        ) from None
    return factory(config, machine)


# -- built-in detectors ---------------------------------------------------


def _resolve_thresh(config: "CaerConfig", machine: MachineConfig) -> float:
    if config.usage_thresh is not None:
        return config.usage_thresh
    return default_usage_threshold(machine)


def _shutter_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    noise = config.noise_thresh
    if noise is None:
        # Moves smaller than the "heavy usage" threshold are
        # indistinguishable from noise at this machine's scale.
        noise = default_usage_threshold(machine)
    from .shutter import DEFAULT_DISPERSION, DEFAULT_SPIKE_CAP

    return BurstShutterDetector(
        switch_point=config.switch_point,
        end_point=config.end_point,
        impact_factor=config.impact_factor,
        noise_thresh=noise,
        mode=config.shutter_mode,
        # Fault-hardening knobs ride on the open parameter mapping so
        # the paper's exact §6 setup (all defaults) stays bit-identical.
        fault_filter=bool(config.detector_param("fault_filter", False)),
        debounce=int(config.detector_param("debounce", 1)),
        spike_cap=float(
            config.detector_param("spike_cap", DEFAULT_SPIKE_CAP)
        ),
        dispersion=float(
            config.detector_param("dispersion", DEFAULT_DISPERSION)
        ),
    )


def _rule_based_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    return RuleBasedDetector(_resolve_thresh(config, machine))


def _random_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    return RandomDetector(config.probability, seed=config.seed)


def _profile_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    if config.baseline_misses is None:
        raise ConfigError(
            "the profile detector needs baseline_misses from a "
            "solo profiling run"
        )
    return ProfileDetector(
        config.baseline_misses,
        tolerance=config.profile_tolerance,
        noise_floor=default_usage_threshold(machine),
    )


def _gmm_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    return GmmFenceDetector(
        train_periods=int(config.detector_param("train_periods", 32)),
        fence_sigma=float(config.detector_param("fence_sigma", 2.0)),
        refit_every=int(config.detector_param("refit_every", 0)),
        # The learned fence is floored at the usage threshold: a fence
        # below the response's release point turns every post-release
        # probe into a false positive.
        noise_floor=_resolve_thresh(config, machine),
    )


def _cdf_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    return CdfQuantileDetector(
        window=int(config.detector_param("window", 64)),
        quantile=float(config.detector_param("quantile", 0.85)),
        min_samples=int(config.detector_param("min_samples", 12)),
        noise_floor=default_usage_threshold(machine),
    )


def _proactive_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ContentionDetector:
    victim = config.detector_param("victim")
    if victim is not None:
        fence = predicted_miss_fence(
            str(victim),
            machine,
            contender=str(config.detector_param("contender", "470.lbm")),
        )
    else:
        fence = float(
            config.detector_param(
                "fence", default_usage_threshold(machine)
            )
        )
    return AnalyticProactiveDetector(
        fence,
        horizon=int(config.detector_param("horizon", 4)),
        window=int(config.detector_param("window", 8)),
        noise_floor=default_usage_threshold(machine),
    )


# -- built-in responses ---------------------------------------------------


def _rlgl_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ResponsePolicy:
    return RedLightGreenLight(
        length=config.response_length,
        adaptive=config.adaptive,
        max_length=config.max_response_length,
    )


def _soft_lock_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ResponsePolicy:
    return SoftLock(
        _resolve_thresh(config, machine),
        max_hold=config.soft_lock_max_hold,
    )


def _dvfs_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ResponsePolicy:
    return FrequencyScaling(
        scale=config.dvfs_scale, length=config.response_length
    )


def _partition_factory(
    config: "CaerConfig", machine: MachineConfig
) -> ResponsePolicy:
    return CachePartition(
        quota=config.partition_quota,
        length=config.response_length,
    )


register_detector("shutter", _shutter_factory)
register_detector("rule-based", _rule_based_factory)
register_detector("random", _random_factory)
register_detector("profile", _profile_factory)
register_detector("gmm-fence", _gmm_factory)
register_detector("cdf-quantile", _cdf_factory)
register_detector("proactive-analytic", _proactive_factory)

register_response("rlgl", _rlgl_factory)
register_response("soft-lock", _soft_lock_factory)
register_response("dvfs", _dvfs_factory)
register_response("partition", _partition_factory)

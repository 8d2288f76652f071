"""CAER: the Contention Aware Execution Runtime (the paper's contribution).

The runtime watches per-period PMU samples of every hosted application
through a shared communication table (§3.2), detects shared-cache
contention online with one of two heuristics — Burst-Shutter
(Algorithm 1) or Rule-Based (Algorithm 2) — and responds by throttling
the batch applications (red-light/green-light or soft-locking, §5).
A random detector (§6.4) serves as the accuracy baseline.

Detectors and responses are *plugins*: :mod:`repro.caer.registry`
holds open registries keyed by the names ``CaerConfig`` uses, and
ships a zoo beyond the paper's pair — a learned GMM fence, a
non-parametric CDF/quantile tail detector, and a proactive detector
driven by the :mod:`repro.analytic` co-location model.  Register your
own with :func:`register_detector` / :func:`register_response`.

Typical use::

    from repro.caer import CaerConfig, caer_factory
    from repro.sim import run_colocated

    config = CaerConfig.rule_based()
    result = run_colocated(ls_spec, batch_spec,
                           caer_factory=caer_factory(config))
"""

from .analysis import (
    AccuracyReport,
    DecisionSummary,
    DetectionAccuracy,
    PeriodConfusion,
    score_detection_events,
    score_verdict_series,
    score_verdicts,
    summarise_decisions,
)
from .cdf_detector import CdfQuantileDetector
from .detector import ContentionDetector, DetectorStep, Observation
from .gmm_detector import GmmFenceDetector, fit_two_gaussians
from .metrics import (
    accuracy_vs_random,
    effective_utilization_gained,
    interference_eliminated,
    slowdown,
    utilization,
    utilization_gained,
)
from .proactive import AnalyticProactiveDetector, predicted_miss_fence
from .profile_detector import ProfileDetector
from .random_detector import RandomDetector
from .registry import (
    build_detector,
    build_response,
    detector_names,
    register_detector,
    register_response,
    response_names,
)
from .response import (
    CachePartition,
    FrequencyScaling,
    RedLightGreenLight,
    ResponsePolicy,
    SoftLock,
)
from .rulebased import RuleBasedDetector
from .runtime import CaerConfig, CaerRuntime, caer_factory
from .shutter import BurstShutterDetector
from .table import CommunicationTable
from .window import SampleWindow

__all__ = [
    "ContentionDetector",
    "DetectorStep",
    "Observation",
    "BurstShutterDetector",
    "RuleBasedDetector",
    "RandomDetector",
    "ProfileDetector",
    "GmmFenceDetector",
    "CdfQuantileDetector",
    "AnalyticProactiveDetector",
    "fit_two_gaussians",
    "predicted_miss_fence",
    "register_detector",
    "register_response",
    "detector_names",
    "response_names",
    "build_detector",
    "build_response",
    "ResponsePolicy",
    "RedLightGreenLight",
    "SoftLock",
    "FrequencyScaling",
    "CachePartition",
    "CaerConfig",
    "CaerRuntime",
    "caer_factory",
    "CommunicationTable",
    "SampleWindow",
    "utilization",
    "utilization_gained",
    "effective_utilization_gained",
    "slowdown",
    "interference_eliminated",
    "accuracy_vs_random",
    "AccuracyReport",
    "DecisionSummary",
    "DetectionAccuracy",
    "PeriodConfusion",
    "score_detection_events",
    "score_verdict_series",
    "score_verdicts",
    "summarise_decisions",
]

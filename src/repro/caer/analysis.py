"""Decision-log analysis.

The prototype "logs the decisions it makes" (§6.1); this module turns a
run's decision log into the quantities an operator (or the paper's §6.4
accuracy discussion) wants: how much time the runtime spent in each
Figure 5 state, how often each verdict was asserted, how the batch side
was throttled, and — given a ground-truth interval of known contention —
false-positive/negative rates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ExperimentError
from ..obs import DetectionEvent
from ..sim.results import RunResult
from .detector import Observation
from .profile_detector import DEFAULT_TOLERANCE, ProfileDetector


@dataclass(frozen=True)
class DecisionSummary:
    """Aggregate view of one run's CAER decision log."""

    periods: int
    #: periods spent per Figure 5 state label
    state_counts: dict[str, int]
    #: c-positive / c-negative verdict counts
    positives: int
    negatives: int
    #: fraction of periods the batch side was paused
    pause_fraction: float
    #: mean DVFS speed over non-paused periods (1.0 without DVFS)
    mean_running_speed: float

    @property
    def verdicts(self) -> int:
        """Total verdicts issued."""
        return self.positives + self.negatives

    @property
    def positive_rate(self) -> float:
        """Fraction of verdicts asserting contention."""
        return self.positives / self.verdicts if self.verdicts else 0.0

    def render(self) -> str:
        """Short human-readable report."""
        lines = [
            f"decision log: {self.periods} periods, "
            f"{self.verdicts} verdicts "
            f"({self.positive_rate:.0%} c-positive)",
            f"batch paused {self.pause_fraction:.0%} of periods, "
            f"mean running speed {self.mean_running_speed:.2f}",
        ]
        states = ", ".join(
            f"{state}={count}"
            for state, count in sorted(self.state_counts.items())
        )
        lines.append(f"states: {states}")
        return "\n".join(lines)


def summarise_decisions(result: RunResult) -> DecisionSummary:
    """Aggregate a run's CAER decision log."""
    log = result.caer_log
    if not log:
        raise ExperimentError("run has no CAER decision log")
    states = Counter(record["state"] for record in log)
    positives = sum(1 for r in log if r.get("assertion") is True)
    negatives = sum(1 for r in log if r.get("assertion") is False)
    paused = sum(1 for r in log if r["pause"])
    running = [r for r in log if not r["pause"]]
    mean_speed = (
        sum(r.get("speed", 1.0) for r in running) / len(running)
        if running
        else 1.0
    )
    return DecisionSummary(
        periods=len(log),
        state_counts=dict(states),
        positives=positives,
        negatives=negatives,
        pause_fraction=paused / len(log),
        mean_running_speed=mean_speed,
    )


@dataclass(frozen=True)
class AccuracyReport:
    """Verdicts scored against a ground-truth contention interval."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when no positives were asserted."""
        asserted = self.true_positives + self.false_positives
        return self.true_positives / asserted if asserted else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 1.0 when there was nothing to detect."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def accuracy(self) -> float:
        """Correct verdicts over all verdicts."""
        total = (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )
        correct = self.true_positives + self.true_negatives
        return correct / total if total else 1.0


def score_verdicts(
    result: RunResult,
    contended_periods: set[int] | range,
) -> AccuracyReport:
    """Score every verdict against a known contention interval.

    ``contended_periods`` are the periods during which contention truly
    existed (e.g. the lifetime of a heavy contender in a controlled
    experiment).  Verdict-free periods are ignored — only actual
    assertions are scored, matching §6.4's definition of false
    positives/negatives.
    """
    log = result.caer_log
    if not log:
        raise ExperimentError("run has no CAER decision log")
    contended = set(contended_periods)
    tp = fp = tn = fn = 0
    for record in log:
        assertion = record.get("assertion")
        if assertion is None:
            continue
        truly = record["period"] in contended
        if assertion and truly:
            tp += 1
        elif assertion and not truly:
            fp += 1
        elif not assertion and not truly:
            tn += 1
        else:
            fn += 1
    return AccuracyReport(
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
    )


@dataclass(frozen=True)
class PeriodConfusion:
    """One scored period: the online verdict vs. the oracle's."""

    period: int
    verdict: bool
    oracle: bool

    @property
    def label(self) -> str:
        """The confusion-matrix cell: 'tp', 'fp', 'tn', or 'fn'."""
        if self.verdict and self.oracle:
            return "tp"
        if self.verdict and not self.oracle:
            return "fp"
        if not self.verdict and not self.oracle:
            return "tn"
        return "fn"


@dataclass(frozen=True)
class DetectionAccuracy:
    """Per-period confusion of a decision trace against the oracle."""

    report: AccuracyReport
    periods: list[PeriodConfusion]

    def counts(self) -> dict[str, int]:
        """Confusion cell counts keyed by 'tp'/'fp'/'tn'/'fn'."""
        return dict(Counter(p.label for p in self.periods))


def _score_against_oracle(
    scored: Iterable[tuple[bool, Observation]],
    baseline_misses: float,
    tolerance: float,
    noise_floor: float,
) -> DetectionAccuracy:
    """Replay each ``(verdict, observation)`` through the profile oracle.

    The one oracle loop behind :func:`score_detection_events` and
    :func:`score_verdict_series`: every scored period compares the
    heuristic's verdict with the oracle's about the same observation.
    """
    oracle = ProfileDetector(
        baseline_misses, tolerance=tolerance, noise_floor=noise_floor
    )
    periods = [
        PeriodConfusion(
            period=obs.period,
            verdict=verdict,
            oracle=bool(oracle.step(obs).assertion),
        )
        for verdict, obs in scored
    ]
    counts = Counter(p.label for p in periods)
    return DetectionAccuracy(
        report=AccuracyReport(
            true_positives=counts.get("tp", 0),
            false_positives=counts.get("fp", 0),
            true_negatives=counts.get("tn", 0),
            false_negatives=counts.get("fn", 0),
        ),
        periods=periods,
    )


def score_detection_events(
    events: Iterable[DetectionEvent | dict],
    baseline_misses: float,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor: float = 0.0,
) -> DetectionAccuracy:
    """Score a ``DetectionEvent`` trace against the profile oracle.

    This is the trace-side counterpart of :func:`score_verdicts` and of
    Figures 9/10's accuracy metric (Eq. 2): the ground truth is the
    offline-profile detector — the related work's upper bound, which
    knows the victim's solo LLC-miss ``baseline_misses`` — replayed
    over the *same observations* the online heuristic saw, so every
    scored period compares two verdicts about identical evidence.

    ``events`` may be :class:`~repro.obs.DetectionEvent` instances (a
    ring-buffer sink's ``by_kind("detection")``) or the payload dicts
    of a JSONL trace (:func:`repro.obs.read_jsonl`); other event kinds
    are skipped, as are periods where the heuristic issued no verdict
    (matching §6.4: only actual assertions are scored).
    """
    detections: list[dict] = []
    for event in events:
        if isinstance(event, dict):
            if event.get("kind") == DetectionEvent.kind:
                detections.append(event)
        elif event.kind == DetectionEvent.kind:
            detections.append(event.to_dict())
    if not detections:
        raise ExperimentError(
            "trace contains no detection events — was the run traced "
            "with a CAER runtime attached?"
        )
    return _score_against_oracle(
        (
            (data["verdict"], Observation(
                own_misses=data["own_misses"],
                neighbor_misses=data["neighbor_misses"],
                own_mean=data["own_mean"],
                neighbor_mean=data["neighbor_mean"],
                period=data["period"],
            ))
            for data in detections
            if data["verdict"] is not None
        ),
        baseline_misses, tolerance, noise_floor,
    )


def score_verdict_series(
    verdicts: Sequence[bool | None],
    miss_series: Sequence[int],
    baseline_misses: float,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor: float = 0.0,
) -> DetectionAccuracy:
    """Score a stored run's per-period verdicts against physical truth.

    ``verdicts`` is a run's per-period CAER assertion
    (:attr:`repro.runspec.RunOutcome.verdicts`) and ``miss_series`` the
    victim's true per-period LLC misses from the same run.  Unlike
    :func:`score_detection_events`, the oracle is fed each scored
    period's *true* misses, not the (possibly fault-perturbed) windowed
    signal the heuristic saw, so the score measures the detector
    against physical reality.  The verdict speaks about its own
    period, so the oracle reads that period alone: a windowed mean
    would dilute it with the throttled periods around it, where the
    response already removed the contention in question.  The oracle
    reads only the victim's side, so the batch side's fields are 0.
    """
    if not verdicts:
        raise ExperimentError(
            "run has no CAER verdicts — was a CAER runtime attached?"
        )
    return _score_against_oracle(
        (
            (verdict, Observation(
                0.0, float(misses), 0.0, float(misses), period
            ))
            for period, (verdict, misses) in enumerate(
                zip(verdicts, miss_series, strict=True)
            )
            if verdict is not None
        ),
        baseline_misses, tolerance, noise_floor,
    )

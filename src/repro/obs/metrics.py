"""A zero-dependency counter/gauge/histogram registry.

The registry is the *aggregate* side of the observability layer: where
the tracer records every decision, the registry keeps cheap running
totals — detector trigger counts, batch run-fractions, per-period
LLC-miss distributions, executor job wall-times — that snapshot into a
plain JSON-serialisable dict carried on :class:`RunOutcome` records and
rendered in the campaign report.

Unlike trace events, metric values may legitimately contain wall-clock
measurements (executor spans); the determinism contract covers only
simulation-derived metrics, which depend solely on the run's inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from ..errors import ObservabilityError

#: Default histogram boundaries: powers of two, good for count-like
#: distributions such as misses-per-period.
POW2_BUCKETS = tuple(2.0 ** i for i in range(0, 15))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; got inc({amount})"
            )
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A value that can move both ways (last write wins)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max.

    ``buckets`` are upper bounds (inclusive), strictly increasing; an
    implicit overflow bucket catches everything above the last bound.
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "total", "count", "min", "max")

    def __init__(self, buckets: Sequence[float] = POW2_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError("histogram needs >= 1 bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"bucket bounds must strictly increase: {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q`` quantile.

        A bucket-resolution estimate (the overflow bucket reports the
        observed maximum); 0 <= q <= 1.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1]: {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """Named metrics with get-or-create accessors.

    Re-requesting a name returns the existing instrument; requesting it
    as a different type is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, "gauge")

    def histogram(
        self, name: str, buckets: Sequence[float] = POW2_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(buckets), "histogram")

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Plain-data view of every metric, JSON-serialisable.

        Sorts a point-in-time copy of the table, so a concurrent
        reader (the live exporter's serving thread) never trips over
        an instrument being registered mid-iteration.
        """
        return {
            name: metric.snapshot()
            for name, metric in sorted(list(self._metrics.items()))
        }

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def merge_snapshots(snapshots: Iterable[dict[str, dict]]) -> dict[str, dict]:
    """Aggregate snapshots from several runs into one.

    Counters and histograms add; gauges keep the last value seen.
    Unknown metric types pass through last-wins.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, data in snapshot.items():
            have = merged.get(name)
            if have is None or have.get("type") != data.get("type"):
                merged[name] = json_copy(data)
            elif data["type"] == "counter":
                have["value"] += data["value"]
            elif data["type"] == "histogram":
                if have["buckets"] != data["buckets"]:
                    merged[name] = json_copy(data)
                    continue
                have["counts"] = [
                    a + b for a, b in zip(have["counts"], data["counts"])
                ]
                have["sum"] += data["sum"]
                have["count"] += data["count"]
                for key, pick in (("min", min), ("max", max)):
                    values = [
                        v for v in (have[key], data[key]) if v is not None
                    ]
                    have[key] = pick(values) if values else None
            else:  # gauge and anything unrecognised: last wins
                merged[name] = json_copy(data)
    return merged


def histogram_quantile(snapshot: dict, q: float) -> float:
    """Bucket-resolution quantile of a *snapshot* histogram entry.

    The same estimate :meth:`Histogram.quantile` computes, but over the
    plain-dict form that rides on run telemetry and report merges
    (the overflow bucket reports the observed maximum).
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1]: {q}")
    count = snapshot.get("count", 0)
    if not count:
        return 0.0
    buckets = snapshot["buckets"]
    maximum = snapshot.get("max") or 0.0
    rank = q * count
    seen = 0
    for index, bucket_count in enumerate(snapshot["counts"]):
        seen += bucket_count
        if seen >= rank and bucket_count:
            if index < len(buckets):
                return buckets[index]
            return maximum
    return maximum


def json_copy(data: dict) -> dict:
    """Deep-copy a snapshot entry without sharing mutable lists."""
    return {
        key: list(value) if isinstance(value, list) else value
        for key, value in data.items()
    }

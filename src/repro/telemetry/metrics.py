"""Counters, gauges and fixed-bucket histograms behind one registry.

The registry is the *numeric* half of the telemetry subsystem (spans are the
other, see :mod:`repro.telemetry.trace`): instrumented sites record how often
something happened (`store.hit`), a current level (`service.queue_depth`) or a
distribution (`utility.eval_seconds`), and the registry folds those into
constant-size state — a histogram is a fixed bucket vector plus running
count/sum/min/max, never a sample list, so a million observations cost the
same memory as ten.

Quantiles (p50/p90/p99) are estimated from the bucket counts by linear
interpolation inside the containing bucket, clamped to the observed min/max.
That is the standard fixed-bucket trade: cheap, mergeable across processes,
and accurate to bucket resolution — good enough for "is p99 snapshot latency
under a second", which is what the ROADMAP service PR needs to measure.

Determinism contract: nothing in this module may feed back into computed
values, store keys or seeds.  Metrics are *observations about* a run, written
to the run journal; the valuation pipeline never reads them back.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: default bucket upper bounds for duration metrics, in seconds (100 µs .. 60 s)
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: default bucket upper bounds for cardinalities (batch sizes, counts)
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)

#: default bucket upper bounds for byte quantities (64 B .. 256 MiB)
BYTES_BUCKETS: Tuple[float, ...] = tuple(float(64 * 4**k) for k in range(12))


class Counter:
    """Monotonically increasing count (thread-safe via the registry lock)."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge(self, payload: dict) -> None:
        self.value += float(payload.get("value", 0.0))


class Gauge:
    """Last-write-wins level (pool sizes, queue depths, RSS)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge(self, payload: dict) -> None:
        # Gauges have no cross-process ordering; keep the larger level, which
        # is the conservative answer for capacity-style gauges.
        self.value = max(self.value, float(payload.get("value", 0.0)))


class Histogram:
    """Fixed-bucket distribution with running count/sum/min/max.

    ``buckets`` are inclusive upper bounds in increasing order; observations
    above the last bound land in an implicit overflow bucket.  Bucket layout
    is part of a histogram's identity — merging or re-registering the same
    name with different buckets is a programming error and raises.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = SECONDS_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(float(b) for b in buckets):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets!r}")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket vectors are short (~18 entries) and the scan is
        # branch-predictable; bisect would allocate nothing either but wins
        # nothing at this size.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                return index
        return len(self.buckets)

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 < q < 1``) from the buckets.

        Linear interpolation within the containing bucket, clamped to the
        observed min/max so tiny samples never report a bound the data
        never reached.
        """
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        rank = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[index - 1] if index > 0 else self.min
                upper = (
                    self.buckets[index] if index < len(self.buckets) else self.max
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def summary(self) -> dict:
        """Compact human/JSON-facing digest: count, sum, min/max, p50/p90/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, payload: dict) -> None:
        if list(payload.get("buckets", [])) != list(self.buckets):
            raise ValueError(
                f"histogram {self.name!r} bucket layout mismatch on merge"
            )
        self.counts = [a + b for a, b in zip(self.counts, payload["counts"])]
        self.count += int(payload.get("count", 0))
        self.sum += float(payload.get("sum", 0.0))
        for attribute, pick in (("min", min), ("max", max)):
            theirs = payload.get(attribute)
            if theirs is None:
                continue
            ours = getattr(self, attribute)
            setattr(self, attribute, theirs if ours is None else pick(ours, theirs))


Metric = Union[Counter, Gauge, Histogram]

_METRIC_KINDS: Dict[str, type] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Thread-safe name → metric map with get-or-create accessors.

    One registry per :class:`~repro.telemetry.Telemetry` handle.  Accessors
    are idempotent — ``registry.counter("store.hit")`` returns the same
    object every call — but re-registering a name as a different kind (or a
    histogram with different buckets) raises: silent kind drift would
    corrupt every downstream summary.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float] = SECONDS_BUCKETS
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, buckets)
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a histogram"
                )
            elif metric.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} re-registered with different buckets"
                )
            return metric

    def _get_or_create(self, name: str, kind: type) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {kind.kind}"  # type: ignore[attr-defined]
                )
            return metric

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # ------------------------------------------------------------------ #
    # Snapshots, deltas, merging
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Full JSON-safe state (the journal ``metrics`` record payload)."""
        with self._lock:
            return {
                name: self._metrics[name].to_dict() for name in sorted(self._metrics)
            }

    def summaries(self) -> dict:
        """Human-facing digest: counters/gauges as numbers, histograms summarised."""
        with self._lock:
            digest = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if isinstance(metric, Histogram):
                    digest[name] = metric.summary()
                else:
                    digest[name] = metric.value
            return digest

    def merge(self, payload: dict) -> None:
        """Fold a :meth:`to_dict` payload (e.g. from a worker journal) in."""
        for name in sorted(payload):
            state = payload[name]
            kind = state.get("kind")
            cls = _METRIC_KINDS.get(kind)
            if cls is None:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            if cls is Histogram:
                metric = self.histogram(name, state["buckets"])
            elif cls is Gauge:
                metric = self.gauge(name)
            else:
                metric = self.counter(name)
            with self._lock:
                metric.merge(state)

    def delta_since(self, before: dict) -> dict:
        """Scalar changes since a :meth:`to_dict` snapshot, zero-deltas elided.

        Counters and histogram count/sum report their increase; gauges report
        their current level.  The result is flat (name → number or small
        dict), which is what per-cell manifest blocks and ``--json-stream``
        events embed.
        """
        delta: dict = {}
        for name, state in self.to_dict().items():
            previous = before.get(name, {})
            if state["kind"] == "histogram":
                count = state["count"] - previous.get("count", 0)
                if count:
                    delta[name] = {
                        "count": count,
                        "sum": state["sum"] - previous.get("sum", 0.0),
                    }
            elif state["kind"] == "gauge":
                if state["value"] != previous.get("value"):
                    delta[name] = state["value"]
            else:
                change = state["value"] - previous.get("value", 0.0)
                if change:
                    delta[name] = change
        return delta


def registry_from_dict(payload: dict) -> MetricsRegistry:
    """Rebuild a registry from a journal ``metrics`` record payload."""
    registry = MetricsRegistry()
    registry.merge(payload)
    return registry


def prometheus_text(registry_state: dict, prefix: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.to_dict` payload as Prometheus text.

    Metric names map ``store.hit`` → ``repro_store_hit``; histograms emit the
    standard ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le``
    labels.  This is an export format for scraping finished/live run
    journals — no client library involved.
    """
    lines: List[str] = []
    for name in sorted(registry_state):
        state = registry_state[name]
        flat = f"{prefix}_{name.replace('.', '_').replace('-', '_')}"
        kind = state["kind"]
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {flat} {kind}")
            lines.append(f"{flat} {_format_number(state['value'])}")
            continue
        lines.append(f"# TYPE {flat} histogram")
        cumulative = 0
        for bound, count in zip(state["buckets"], state["counts"]):
            cumulative += count
            lines.append(f'{flat}_bucket{{le="{_format_number(bound)}"}} {cumulative}')
        cumulative += state["counts"][-1]
        lines.append(f'{flat}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{flat}_sum {_format_number(state['sum'])}")
        lines.append(f"{flat}_count {state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value: Union[int, float]) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "SIZE_BUCKETS",
    "prometheus_text",
    "registry_from_dict",
]

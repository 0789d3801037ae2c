"""Reduce one workload run's raw measurements to the catalog's metrics.

Pure functions over plain data (no ``repro``, no NumPy), shared by the
orchestrator, the workload process and the tests.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

import catalog

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99, 90)


def nearest_rank(samples: Sequence[float], percent: int) -> float:
    """The ``percent``-th percentile by nearest rank (1 <= percent <= 100)."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), percent) - 1]


def _rank(n: int, percent: int) -> int:
    return max(1, -(-percent * n // 100))  # ceil without floats


def tail(samples: Sequence[float]) -> Tuple[str, float]:
    """``(label, value)`` of the highest percentile with >= 10 samples beyond it.

    With nearest rank, ``n - ceil(p * n / 100)`` samples lie beyond the p-th
    percentile.  When neither p99 nor p90 has ten beyond it, the median is
    returned: below 20 samples even the median has fewer than ten beyond it,
    and a tail read off a handful of samples would only measure noise.
    """
    n = len(samples)
    for percent in TAIL_PERCENTILES:
        if n - _rank(n, percent) >= MIN_BEYOND:
            return f"p{percent}", nearest_rank(samples, percent)
    return "p50", nearest_rank(samples, 50)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def valuation_seconds(walls: Sequence[float], cpu_s: float) -> Dict[str, float]:
    """Median, tail and CPU per operation of one run, in seconds."""
    return {
        "valuation_p50_s": nearest_rank(walls, 50),
        "valuation_tail_s": tail(walls)[1],
        "cpu_s_per_op": cpu_s / len(walls),
    }


def end_to_end(
    setup_samples: Sequence[float],
    ops: Sequence[dict],
    cpu_s: float,
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The catalog's end-to-end metrics of one untraced run.

    ``ops`` are the completed operations, each with its ``wall_s`` and the
    ``calib_s`` of the calibration slices timed nearest to it.  Wall times
    are divided operation by operation; CPU time, measured per run, by the
    median of those slices.
    """
    ratios = [op["wall_s"] / op["calib_s"] for op in ops]
    calib_s = statistics.median(op["calib_s"] for op in ops)
    return {
        "setup_s": statistics.median(setup_samples),
        "valuation_p50_calib": nearest_rank(ratios, 50),
        "valuation_tail_calib": tail(ratios)[1],
        "cpu_per_op_calib": cpu_s / len(ops) / calib_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    table: Dict[str, dict],
    counts: Dict[str, float],
    wall_s: float,
    unattributed_share: float,
    overhead_est: float,
    trainings: int,
    cache_hit_ratio: float,
    queue_wait_share: float,
) -> Dict[str, float]:
    """The catalog's per-layer metrics of one traced run.

    ``table`` is :func:`spans.layer_table` output, ``counts`` the tracer's
    counters, and ``wall_s`` the time the shares are taken of.
    """
    metrics: Dict[str, float] = {}
    for layer in catalog.LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.self_share"] = row["self_s"] / wall_s
        metrics[f"{layer}.calls"] = row["calls"]
    gets = table.get("store.get", {"calls": 0})["calls"]
    metrics.update(
        {
            "fl.trainings": trainings,
            "fl.train.coalitions": int(counts.get("fl.train.coalitions", 0)),
            "parallel.oracle.coalitions": int(counts.get("parallel.oracle.coalitions", 0)),
            "store.get.hit_ratio": counts.get("store.get.hits", 0) / gets if gets else 0.0,
            "utils.cache.hit_ratio": cache_hit_ratio,
            "experiments.json_write.mib": counts.get("experiments.json_write.bytes", 0)
            / 2**20,
            "service.queue_wait.share": queue_wait_share,
            "trace.unattributed_share": unattributed_share,
            "trace.overhead_est": overhead_est,
        }
    )
    return metrics


def failed(ops: Sequence[dict]) -> int:
    """Operations with at least one problem: an error or a failed value check."""
    return sum(1 for op in ops if op["problems"])


def result_line(
    metrics: Dict[str, float], attempted: int, failed: int, correct: bool
) -> dict:
    """The final JSON object of a run, every metric with its unit."""
    units = catalog.units()
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of at least two values."""
    return statistics.quantiles(values, n=4)

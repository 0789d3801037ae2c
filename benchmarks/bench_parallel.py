"""Benchmark E12: the vectorized backend on the standard IPSS grid.

Per-coalition FL training (the paper's τ) dominates every algorithm.  Real
FL training on the paper's standard IPSS grid (n = 10 clients, γ = 32 from
Table III; MLP model): the vectorized executor must evaluate the grid ≥3×
faster than the serial executor, with seed-for-seed identical utilities and
identical training counts.

Results land as text tables *and* machine-readable BENCH-format JSON under
``benchmarks/results/`` (see ``harness.py``) so the perf trajectory is
tracked across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import IPSS
from repro.experiments.config import ExperimentScale, sampling_rounds_for
from repro.experiments.reporting import format_table
from repro.experiments.tasks import build_synthetic_task
from repro.fl.vectorized import PARITY_ATOL

from conftest import run_once, save_report
from harness import BenchResult, load_bench_json, save_bench_json

GRID_CLIENTS = 10
GRID_SEEDS = (0, 1, 2)
GRID_MODEL = "mlp"
GRID_SCALE = "tiny"
REPEATS = 3


class _PlanRecorder:
    """Proxy oracle that records the coalition batches an algorithm plans."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []
        self.n_clients = inner.n_clients

    def evaluate_batch(self, coalitions):
        batch = [frozenset(c) for c in coalitions]
        self.batches.append(batch)
        return self.inner.evaluate_batch(batch)

    def __call__(self, coalition):
        return self.inner(coalition)

    @property
    def evaluations(self):
        return self.inner.evaluations


def _build_grid_task():
    return build_synthetic_task(
        "same-size-same-distribution",
        n_clients=GRID_CLIENTS,
        model=GRID_MODEL,
        scale=ExperimentScale.from_name(GRID_SCALE),
        seed=0,
    )


def _ipss_grid():
    """The coalition set IPSS requests at the paper's n=10, γ=32 budget.

    Pools the plans of several independent IPSS runs (the shape of a real
    campaign: the same grid is revisited under different sampling seeds),
    deduplicated in first-appearance order.
    """
    gamma = sampling_rounds_for(GRID_CLIENTS)
    utility = _build_grid_task()
    recorder = _PlanRecorder(utility)
    for seed in GRID_SEEDS:
        IPSS(total_rounds=gamma, seed=seed).run(recorder, GRID_CLIENTS)
        utility.reset_cache()
    grid, seen = [], set()
    for batch in recorder.batches:
        for coalition in batch:
            if coalition not in seen:
                seen.add(coalition)
                grid.append(coalition)
    return grid


def _evaluate_grid(grid, backend):
    utility = _build_grid_task()
    utility.set_executor(backend)
    start = time.perf_counter()
    results = utility.evaluate_batch(grid)
    elapsed = time.perf_counter() - start
    if backend == "vectorized":
        assert utility.executor.last_fallback_reason is None, (
            f"vectorized backend silently fell back: "
            f"{utility.executor.last_fallback_reason}"
        )
    return elapsed, results, utility.evaluations


def _run_vectorized_grid():
    grid = _ipss_grid()
    gamma = sampling_rounds_for(GRID_CLIENTS)
    rows = []
    serial_median = serial_results = serial_evaluations = None
    for backend in ("serial", "vectorized"):
        times, results, evaluations = [], None, None
        for _ in range(REPEATS):
            elapsed, results, evaluations = _evaluate_grid(grid, backend)
            times.append(elapsed)
        median = sorted(times)[len(times) // 2]
        if backend == "serial":
            serial_median, serial_results, serial_evaluations = (
                median,
                results,
                evaluations,
            )
        assert list(results) == list(serial_results)
        values = np.asarray([results[key] for key in results])
        serial_values = np.asarray([serial_results[key] for key in serial_results])
        # Gate on the documented cross-BLAS guarantee; the unit suite pins
        # bitwise equality for the build it runs on.
        assert np.allclose(
            values, serial_values, rtol=0, atol=PARITY_ATOL
        ), "backend changed utilities"
        assert evaluations == serial_evaluations
        rows.append(
            {
                "backend": backend,
                "grid": f"IPSS n={GRID_CLIENTS} gamma={gamma} x{len(GRID_SEEDS)} seeds",
                "coalitions": len(grid),
                "time_s": median,
                "evaluations": evaluations,
                "speedup": serial_median / median,
            }
        )
    return rows


@pytest.mark.benchmark(group="parallel")
def test_vectorized_backend_speedup(benchmark, results_dir):
    rows = run_once(benchmark, _run_vectorized_grid)
    save_report(
        results_dir,
        "parallel_vectorized",
        format_table(
            rows,
            columns=["backend", "grid", "coalitions", "time_s", "evaluations", "speedup"],
            title=(
                f"Vectorized backend — standard IPSS grid, {GRID_MODEL} model, "
                f"{GRID_SCALE} scale (median of {REPEATS})"
            ),
        ),
    )
    bench_path = save_bench_json(
        results_dir,
        "parallel_vectorized",
        [
            BenchResult(
                name=f"ipss-grid-{row['backend']}",
                config={
                    "task": "synthetic/same-size-same-distribution",
                    "model": GRID_MODEL,
                    "scale": GRID_SCALE,
                    "n_clients": GRID_CLIENTS,
                    "gamma": sampling_rounds_for(GRID_CLIENTS),
                    "grid_seeds": list(GRID_SEEDS),
                    "coalitions": row["coalitions"],
                    "backend": row["backend"],
                    "repeats": REPEATS,
                },
                wall_time_s=row["time_s"],
                speedup=row["speedup"],
                baseline="ipss-grid-serial",
                metrics={"evaluations": row["evaluations"]},
            )
            for row in rows
        ],
    )
    # Round-trip the BENCH file through the reader so writer/reader schema
    # drift is caught the moment a benchmark runs.
    reloaded = load_bench_json(bench_path)
    assert [result.name for result in reloaded] == [
        f"ipss-grid-{row['backend']}" for row in rows
    ]
    vectorized = next(row for row in rows if row["backend"] == "vectorized")
    benchmark.extra_info["vectorized_speedup"] = vectorized["speedup"]
    # Acceptance: ≥3× over the serial executor on the standard IPSS grid.
    assert vectorized["speedup"] >= 3.0

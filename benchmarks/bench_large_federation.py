"""Benchmark: large-federation mode — IPSS valuing up to 500 clients.

The large-federation execution path (lazy coalition plans, RAM-budgeted
vectorized batches, hashed store keys) exists so valuation cost scales with
the sampling budget γ, never with anything C(n, k)-shaped.  This benchmark
sweeps n ∈ {10, 50, 100, 250, 500} on the same-size synthetic task at tiny
scale, running IPSS with the paper's default budget γ(n) = ⌈n·ln n⌉ under
CI-width stopping, and records the two scaling curves the mode is judged by:

* time-vs-n — wall time per federation size, from an untraced pass;
* peak-RSS-vs-n — tracemalloc peak of a second, traced pass (plus
  ``ru_maxrss`` when the suite runs with ``--peak-rss``), which must grow
  sub-linearly in the phase-2 stratum size C(n, k*+1): at n=500 the stratum
  holds ~124k coalitions, the resident plan only ever holds the γ-bounded
  sample.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.core import IPSS, ConvergenceRule
from repro.experiments import sampling_rounds_for
from repro.experiments.reporting import format_table
from repro.experiments.specs import TaskSpec
from repro.utils.combinatorics import n_choose_k

from conftest import run_once, save_report
from harness import BenchResult, measure_peak_memory, save_bench_json

CLIENT_COUNTS = (10, 50, 100, 250, 500)
SEED = 1
#: residual threshold for ConvergenceRule(metric="ci") — IPSS's phase-2
#: remaining-uncertainty shrinks under this once the evaluated marginals
#: stabilise, so the rule prunes most of the (k*+1)-stratum sample
CI_THRESHOLD = 0.01


def _value_federation(n_clients: int):
    spec = TaskSpec(
        kind="synthetic",
        setup="same-size-same-distribution",
        model="mlp",
        n_clients=n_clients,
        scale="tiny",
        seed=SEED,
    )
    gamma = sampling_rounds_for(n_clients)
    algorithm = IPSS(total_rounds=gamma, seed=SEED)
    rule = ConvergenceRule(metric="ci", threshold=CI_THRESHOLD, patience=1)
    with spec.build(None) as utility:
        start = time.perf_counter()
        result = algorithm.run(utility, n_clients, stopping_rule=rule)
        elapsed = time.perf_counter() - start
    plan = algorithm.sampling_plan(n_clients)
    return {
        "n_clients": n_clients,
        "gamma": gamma,
        "k_star": plan["k_star"],
        "phase2_stratum": n_choose_k(n_clients, plan["k_star"] + 1),
        "time_s": elapsed,
        "evaluations": result.utility_evaluations,
        "stopped_by": result.metadata.get("stopped_by"),
        "values_finite": bool(result.values.shape == (n_clients,)),
    }


def _sweep(capture_rss: bool):
    rows = []
    for n_clients in CLIENT_COUNTS:
        # tracemalloc slows allocation-heavy code several-fold, so the time
        # comes from an untraced pass and memory from a second, traced one.
        row = _value_federation(n_clients)
        traced_row, peak = measure_peak_memory(_value_federation, n_clients)
        assert traced_row["evaluations"] == row["evaluations"]
        row["peak_traced_bytes"] = peak.traced_bytes
        row["peak_rss_bytes"] = peak.rss_bytes if capture_rss else None
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="large_federation")
def test_large_federation_scaling(benchmark, results_dir, peak_rss):
    rows = run_once(benchmark, _sweep, peak_rss)

    save_report(
        results_dir,
        "large_federation",
        format_table(
            [
                {
                    "n": row["n_clients"],
                    "gamma": row["gamma"],
                    "evaluations": row["evaluations"],
                    "time_s": round(row["time_s"], 3),
                    "peak_traced_mb": round(row["peak_traced_bytes"] / 2**20, 2),
                    "stopped_by": row["stopped_by"],
                }
                for row in rows
            ],
            columns=["n", "gamma", "evaluations", "time_s", "peak_traced_mb", "stopped_by"],
            title=(
                "Large-federation mode — IPSS, γ(n)=⌈n·ln n⌉, "
                f"ci:{CI_THRESHOLD} stopping, same-size synthetic (tiny), MLP"
            ),
        ),
    )
    save_bench_json(
        results_dir,
        "large_federation",
        [
            BenchResult(
                name=f"n={row['n_clients']}",
                config={
                    "n_clients": row["n_clients"],
                    "gamma": row["gamma"],
                    "k_star": row["k_star"],
                    "task": "synthetic/same-size-same-distribution",
                    "model": "mlp",
                    "scale": "tiny",
                    "seed": SEED,
                    "stop_rule": f"ci:{CI_THRESHOLD}",
                },
                wall_time_s=row["time_s"],
                metrics={
                    "evaluations": row["evaluations"],
                    "phase2_stratum_size": row["phase2_stratum"],
                    "peak_traced_bytes": row["peak_traced_bytes"],
                    "peak_rss_bytes": row["peak_rss_bytes"],
                    "stopped_by": row["stopped_by"],
                },
            )
            for row in rows
        ],
    )

    by_n = {row["n_clients"]: row for row in rows}
    benchmark.extra_info["time_s_at_500"] = by_n[500]["time_s"]
    benchmark.extra_info["peak_traced_mb_at_500"] = by_n[500]["peak_traced_bytes"] / 2**20

    # Acceptance: every size completes end-to-end within its budget...
    for row in rows:
        assert row["values_finite"]
        assert row["evaluations"] <= row["gamma"]
    # ...and peak memory grows sub-linearly in the phase-2 stratum size
    # C(n, k*+1): the stratum grows by orders of magnitude more than the
    # resident footprint does.
    memory_growth = by_n[500]["peak_traced_bytes"] / by_n[10]["peak_traced_bytes"]
    stratum_growth = by_n[500]["phase2_stratum"] / by_n[10]["phase2_stratum"]
    assert memory_growth < math.sqrt(stratum_growth)

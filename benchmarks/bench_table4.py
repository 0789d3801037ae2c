"""Benchmark E4: regenerate Table IV (FEMNIST-style, MLP & CNN, n ∈ {3, 6, 10}).

Paper claims checked:
* IPSS achieves the lowest relative error among the approximation algorithms
  in the n = 10 MLP setting (Table IV reports 0.02 vs ≥ 0.71 for others).
* IPSS uses no more FL trainings than the γ budget while MC-Shapley needs 2^n.
"""

from __future__ import annotations

import pytest

from repro.experiments import tables
from repro.experiments.tables import render_table

from conftest import run_once, save_report


def _best_error(rows, n, model):
    subset = [r for r in rows if r["n"] == n and r["model"] == model and r["error_l2"] is not None]
    return min(subset, key=lambda r: r["error_l2"])


@pytest.mark.benchmark(group="table4")
def test_table4_mlp(benchmark, bench_scale, results_dir):
    rows = run_once(
        benchmark,
        tables.table4,
        scale=bench_scale,
        client_counts=(3, 6, 10),
        models=("mlp",),
        seed=0,
    )
    save_report(results_dir, "table4_mlp", render_table(rows, "Table IV — femnist-like / MLP"))

    for n in (3, 6, 10):
        ipss = next(r for r in rows if r["n"] == n and r["algorithm"] == "IPSS")
        exact = next(r for r in rows if r["n"] == n and r["algorithm"] == "MC-Shapley")
        assert ipss["evaluations"] <= {3: 5, 6: 8, 10: 32}[n]
        assert exact["evaluations"] == 2**n
    best_n10 = _best_error(rows, 10, "mlp")
    benchmark.extra_info["best_error_algorithm_n10"] = best_n10["algorithm"]
    benchmark.extra_info["ipss_error_n10"] = next(
        r["error_l2"] for r in rows if r["n"] == 10 and r["algorithm"] == "IPSS"
    )
    # IPSS should be at or near the top in accuracy under the shared budget.
    ipss_error = next(r["error_l2"] for r in rows if r["n"] == 10 and r["algorithm"] == "IPSS")
    assert ipss_error <= 3.0 * max(best_n10["error_l2"], 1e-6)


@pytest.mark.benchmark(group="table4")
def test_table4_cnn(benchmark, bench_scale, results_dir):
    rows = run_once(
        benchmark,
        tables.table4,
        scale=bench_scale,
        client_counts=(3, 6),
        models=("cnn",),
        seed=0,
    )
    save_report(results_dir, "table4_cnn", render_table(rows, "Table IV — femnist-like / CNN"))
    assert any(r["algorithm"] == "IPSS" for r in rows)
    for n in (3, 6):
        ipss = next(r for r in rows if r["n"] == n and r["algorithm"] == "IPSS")
        assert ipss["error_l2"] is not None

"""Benchmark E11: numerical checks of the paper's theory (Thm. 2, Lemma 1, Thm. 3).

* Lemma 1: the expected data value under the Donahue–Kleinberg linear-regression
  model matches the exact MC-SV computed on the closed-form utility table.
* Theorem 3: the empirical truncation error of the k*-limited estimator stays
  below the analytical bound for a sweep of (n, k*).
* Theorem 2: the closed-form MC-SV variance (Eq. 9) is below the CC-SV
  variance (Eq. 10) for a sweep of dataset-size profiles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KGreedy, MCShapley, theory
from repro.core.variance import theoretical_variance_cc, theoretical_variance_mc
from repro.experiments.reporting import format_table
from repro.fl import TabularUtility

from conftest import run_once, save_report


def _lemma1_check():
    rows = []
    for n, t in ((4, 60), (6, 50), (8, 40)):
        table = theory.linear_utility_table(n, t, n_features=5, noise_mean=1.0, initial_mse=10.0)
        oracle = TabularUtility(n, table)
        exact = MCShapley().run(oracle, n).values
        predicted = theory.lemma1_expected_value(n, t, 5, 1.0, 10.0)
        rows.append(
            {
                "n": n,
                "t": t,
                "exact_mean_value": float(exact.mean()),
                "lemma1_prediction": predicted,
                "abs_gap": float(abs(exact.mean() - predicted)),
            }
        )
    return rows


def _theorem3_check():
    rows = []
    n, t, x = 8, 50, 5
    table = theory.linear_utility_table(n, t, x, noise_mean=1.0, initial_mse=10.0)
    oracle = TabularUtility(n, table)
    exact = MCShapley().run(oracle, n).values
    for k_star in (1, 2, 3, 4):
        estimate = KGreedy(max_size=k_star).run(oracle, n).values
        empirical = float(abs(estimate.mean() - exact.mean()) / abs(exact.mean()))
        bound = theory.theorem3_relative_error_bound(n, k_star, t, x)
        rows.append(
            {
                "k_star": k_star,
                "empirical_relative_error": empirical,
                "theorem3_bound": bound,
                "within_bound": empirical <= bound,
            }
        )
    return rows


def _theorem2_check():
    rows = []
    rounds = [2] * 6
    for profile_name, sizes in (
        ("equal", [50] * 6),
        ("skewed", [10, 20, 40, 80, 160, 320]),
        ("one-large", [500, 20, 20, 20, 20, 20]),
    ):
        mc = np.mean([theoretical_variance_mc(sizes, i, rounds) for i in range(6)])
        cc = np.mean([theoretical_variance_cc(sizes, i, rounds) for i in range(6)])
        rows.append(
            {
                "profile": profile_name,
                "mc_variance": float(mc),
                "cc_variance": float(cc),
                "mc_is_lower": bool(mc < cc),
            }
        )
    return rows


@pytest.mark.benchmark(group="theory")
def test_lemma1_expected_value(benchmark, results_dir):
    rows = run_once(benchmark, _lemma1_check)
    save_report(results_dir, "theory_lemma1", format_table(rows, title="Lemma 1 check"))
    for row in rows:
        assert row["abs_gap"] < 0.05 * abs(row["lemma1_prediction"]) + 1e-6


@pytest.mark.benchmark(group="theory")
def test_theorem3_error_bound(benchmark, results_dir):
    rows = run_once(benchmark, _theorem3_check)
    save_report(results_dir, "theory_theorem3", format_table(rows, title="Theorem 3 check"))
    assert all(row["within_bound"] for row in rows)
    # The bound (and the empirical error) shrink as k* grows.
    bounds = [row["theorem3_bound"] for row in rows]
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.benchmark(group="theory")
def test_theorem2_variance_comparison(benchmark, results_dir):
    rows = run_once(benchmark, _theorem2_check)
    save_report(results_dir, "theory_theorem2", format_table(rows, title="Theorem 2 check"))
    assert all(row["mc_is_lower"] for row in rows)

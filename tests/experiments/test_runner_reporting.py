"""Tests for the comparison runner and the text reporting helpers."""

import numpy as np
import pytest

from repro.core import IPSS, MCShapley
from repro.experiments import build_algorithm_suite, run_comparison
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import AlgorithmComparison, ComparisonRow

from tests.helpers import monotone_game


class TestBuildAlgorithmSuite:
    def test_full_suite_contains_ipss_and_exact(self):
        suite = build_algorithm_suite(5, total_rounds=10)
        names = [type(a).__name__ for a in suite]
        assert "IPSS" in names
        assert "MCShapley" in names
        assert "PermShapley" not in names  # disabled by default

    def test_gradient_free_suite(self):
        suite = build_algorithm_suite(5, include_gradient=False)
        names = [type(a).__name__ for a in suite]
        assert "ORBaseline" not in names
        assert "DIGFL" not in names

    def test_sampling_budget_defaults_to_paper_table3(self):
        suite = build_algorithm_suite(10)
        ipss = [a for a in suite if type(a).__name__ == "IPSS"][0]
        assert ipss.total_rounds == 32

    def test_include_perm(self):
        suite = build_algorithm_suite(3, include_perm=True)
        assert any(type(a).__name__ == "PermShapley" for a in suite)


class TestRunComparison:
    def test_errors_computed_against_exact(self):
        game = monotone_game(5, seed=0)
        suite = build_algorithm_suite(5, total_rounds=12, include_gradient=False)
        comparison = run_comparison(game, suite, n_clients=5)
        exact_rows = [r for r in comparison.rows if r.is_exact]
        approx_rows = [r for r in comparison.rows if not r.is_exact]
        assert exact_rows and approx_rows
        assert all(r.relative_error is None for r in exact_rows)
        assert all(r.relative_error is not None for r in approx_rows)

    def test_gradient_algorithms_skipped_on_tabular_oracle(self):
        game = monotone_game(4, seed=1)
        suite = build_algorithm_suite(4, total_rounds=8, include_gradient=True)
        comparison = run_comparison(game, suite, n_clients=4)
        names = [r.algorithm for r in comparison.rows]
        assert "OR" not in names  # inapplicable -> skipped, like '\\' in Table V
        assert "IPSS" in names

    def test_skipped_algorithms_are_recorded_with_reason(self):
        """Table V's "\\" cells must be attributable: every skip keeps the
        algorithm name, the exception type and a human-readable reason."""
        game = monotone_game(4, seed=1)
        suite = build_algorithm_suite(4, total_rounds=8, include_gradient=True)
        comparison = run_comparison(game, suite, n_clients=4)
        skipped_names = [s.algorithm for s in comparison.skipped]
        assert "OR" in skipped_names
        for skip in comparison.skipped:
            assert skip.error_type in ("TypeError", "ValueError")
            # All skips on a tabular oracle are gradient-based methods, and
            # the reason must actually explain the inapplicability.
            assert "gradient" in skip.reason
        assert {"algorithm", "reason", "error_type"} <= set(
            comparison.skipped[0].to_dict()
        )

    def test_no_skips_recorded_on_clean_run(self):
        game = monotone_game(4, seed=2)
        comparison = run_comparison(game, [IPSS(total_rounds=8, seed=0)], 4)
        assert comparison.skipped == []

    def test_skip_failures_false_still_raises(self):
        game = monotone_game(4, seed=1)
        suite = build_algorithm_suite(4, total_rounds=8, include_gradient=True)
        with pytest.raises(TypeError):
            run_comparison(game, suite, n_clients=4, skip_failures=False)

    def test_callers_oracle_keeps_its_executor(self):
        """run_comparison uses the oracle as configured and leaves it so."""
        from repro.parallel import BatchUtilityOracle

        oracle = BatchUtilityOracle(
            monotone_game(4, seed=8), n_clients=4, executor="vectorized"
        )
        executor = oracle.executor
        run_comparison(oracle, [IPSS(total_rounds=8, seed=0)], 4)
        assert oracle.executor is executor

    def test_batch_oracle_preserves_values(self):
        """A memoising batch oracle changes the cost, never the values."""
        from repro.parallel import BatchUtilityOracle

        suite = [IPSS(total_rounds=8, seed=0), MCShapley(seed=0)]
        plain = run_comparison(monotone_game(4, seed=6).utility, suite, n_clients=4)
        batched = run_comparison(
            BatchUtilityOracle(monotone_game(4, seed=6).utility, n_clients=4),
            suite,
            n_clients=4,
        )
        for row_p, row_b in zip(plain.rows, batched.rows):
            assert row_p.algorithm == row_b.algorithm
            assert np.array_equal(row_p.values, row_b.values)

    def test_explicit_exact_values_used(self):
        game = monotone_game(4, seed=2)
        exact = MCShapley().run(game, 4).values
        comparison = run_comparison(game, [IPSS(total_rounds=8, seed=0)], 4, exact_values=exact)
        assert comparison.rows[0].relative_error is not None

    def test_helpers_best_and_fastest(self):
        game = monotone_game(4, seed=3)
        suite = build_algorithm_suite(4, total_rounds=8, include_gradient=False)
        comparison = run_comparison(game, suite, n_clients=4)
        best = comparison.best_error()
        assert best.relative_error == min(
            r.relative_error for r in comparison.rows if r.relative_error is not None
        )
        fastest = comparison.fastest()
        assert not fastest.is_exact

    def test_row_lookup(self):
        game = monotone_game(4, seed=4)
        comparison = run_comparison(game, [IPSS(total_rounds=8, seed=0)], 4)
        assert comparison.row("IPSS").algorithm == "IPSS"
        with pytest.raises(KeyError):
            comparison.row("nonexistent")

    def test_to_records(self):
        game = monotone_game(4, seed=5)
        comparison = run_comparison(game, [IPSS(total_rounds=8, seed=0)], 4)
        records = comparison.to_records()
        assert records[0]["algorithm"] == "IPSS"
        assert "time_s" in records[0]


class TestComparisonDataclasses:
    def test_best_error_requires_approximate_rows(self):
        comparison = AlgorithmComparison(
            rows=[
                ComparisonRow(
                    algorithm="exact",
                    values=np.zeros(2),
                    elapsed_seconds=1.0,
                    utility_evaluations=4,
                    is_exact=True,
                )
            ]
        )
        with pytest.raises(ValueError):
            comparison.best_error()


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 200, "b": None}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in text  # separator present
        assert "200" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_custom_columns(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["a", "c"])
        assert "b" not in text.splitlines()[0]

    def test_format_cell_scientific_for_extremes(self):
        text = format_table([{"x": 1e-9}, {"x": 123456.0}])
        assert "e-09" in text
        assert "e+05" in text or "1.23e" in text

    def test_format_series(self):
        text = format_series([1, 2], {"ipss": [0.1, 0.2], "tmc": [0.3, 0.4]}, x_label="gamma")
        assert "gamma" in text
        assert "ipss" in text
        assert "0.4" in text

    def test_format_series_ragged_lengths(self):
        text = format_series([1, 2, 3], {"s": [0.1]}, x_label="x")
        assert "-" in text

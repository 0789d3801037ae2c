"""Tests for valuation metrics, the closed-form theory and variance analysis."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MCShapley,
    contribution_variance,
    efficiency_gap,
    empirical_scheme_variance,
    fairness_proxy_error,
    max_absolute_error,
    null_player_error,
    rank_correlation,
    relative_error_l2,
    symmetry_error,
    theoretical_variance_cc,
    theoretical_variance_mc,
    theory,
)
from repro.core.result import ValuationResult
from repro.fl import TabularUtility

from tests.helpers import monotone_game

#: small integers tie often; finite floats cover the untied case
_tie_prone = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestErrorMetrics:
    def test_relative_error_zero_for_identical(self):
        values = np.array([0.1, 0.2, 0.3])
        assert relative_error_l2(values, values) == 0.0

    def test_relative_error_known_value(self):
        exact = np.array([3.0, 4.0])  # norm 5
        estimated = np.array([3.0, 3.0])  # difference norm 1
        assert relative_error_l2(estimated, exact) == pytest.approx(0.2)

    def test_relative_error_zero_ground_truth(self):
        assert relative_error_l2(np.array([0.1, 0.0]), np.zeros(2)) == pytest.approx(0.1)

    def test_relative_error_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_error_l2(np.zeros(2), np.zeros(3))

    def test_max_absolute_error(self):
        assert max_absolute_error(np.array([1.0, 2.0]), np.array([1.5, 2.0])) == 0.5

    def test_rank_correlation_perfect_and_reversed(self):
        exact = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(exact, exact) == pytest.approx(1.0)
        assert rank_correlation(exact[::-1], exact) == pytest.approx(-1.0)

    def test_rank_correlation_single_element(self):
        assert rank_correlation(np.array([1.0]), np.array([2.0])) == 1.0

    def test_rank_correlation_constant_input(self):
        assert rank_correlation(np.ones(4), np.arange(4.0)) == 0.0

    def test_rank_correlation_averages_tied_ranks(self):
        # ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4): 4.5 / sqrt(4.5 * 5)
        estimated = np.array([1.0, 2.0, 2.0, 3.0])
        exact = np.array([1.0, 2.0, 3.0, 4.0])
        expected = pytest.approx(np.sqrt(0.9), abs=1e-15)
        assert rank_correlation(estimated, exact) == expected
        assert rank_correlation(exact, estimated) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 20).flatmap(
            lambda n: st.tuples(*[st.lists(_tie_prone, min_size=n, max_size=n)] * 2)
        )
    )
    def test_rank_correlation_matches_scipy_spearman(self, pair):
        stats = pytest.importorskip("scipy.stats")
        estimated, exact = np.array(pair[0]), np.array(pair[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant input: scipy warns, gives NaN
            expected = stats.spearmanr(estimated, exact).statistic
        expected = 0.0 if np.isnan(expected) else expected
        assert abs(rank_correlation(estimated, exact) - expected) <= 1e-12


class TestFairnessProxies:
    def test_null_player_error_zero_when_nulls_are_zero(self):
        values = np.array([0.5, 0.0, 0.3])
        assert null_player_error(values, [1]) == 0.0

    def test_null_player_error_positive_when_nulls_nonzero(self):
        values = np.array([0.5, 0.2, 0.3])
        assert null_player_error(values, [1]) > 0.0

    def test_null_player_error_no_nulls(self):
        assert null_player_error(np.array([0.5, 0.2]), []) == 0.0

    def test_symmetry_error_zero_for_equal_duplicates(self):
        values = np.array([0.4, 0.4, 0.2])
        assert symmetry_error(values, [[0, 1]]) == 0.0

    def test_symmetry_error_positive_for_unequal_duplicates(self):
        values = np.array([0.4, 0.1, 0.2])
        assert symmetry_error(values, [[0, 1]]) > 0.0

    def test_symmetry_error_ignores_singleton_groups(self):
        assert symmetry_error(np.array([0.4, 0.1]), [[0]]) == 0.0

    def test_fairness_proxy_combines_both(self):
        values = np.array([0.4, 0.1, 0.3, 0.0])
        combined = fairness_proxy_error(values, [3], [[0, 1]])
        assert combined == pytest.approx(
            null_player_error(values, [3]) + symmetry_error(values, [[0, 1]])
        )

    def test_efficiency_gap(self):
        values = np.array([0.2, 0.3])
        assert efficiency_gap(values, grand_utility=0.9, empty_utility=0.3) == pytest.approx(0.1)


class TestValuationResult:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ValuationResult(values=np.zeros(3), algorithm="x", n_clients=4)

    def test_ranking_and_value_of(self):
        result = ValuationResult(values=np.array([0.1, 0.5, 0.3]), algorithm="x", n_clients=3)
        assert result.ranking().tolist() == [1, 2, 0]
        assert result.value_of(1) == 0.5

    def test_normalized_sums_to_one(self):
        result = ValuationResult(values=np.array([1.0, 3.0]), algorithm="x", n_clients=2)
        assert result.normalized().sum() == pytest.approx(1.0)

    def test_normalized_zero_sum_returns_raw(self):
        result = ValuationResult(values=np.array([0.5, -0.5]), algorithm="x", n_clients=2)
        assert np.allclose(result.normalized(), [0.5, -0.5])

    def test_to_dict_roundtrip_fields(self):
        result = ValuationResult(values=np.zeros(2), algorithm="x", n_clients=2)
        data = result.to_dict()
        assert data["algorithm"] == "x"
        assert data["values"] == [0.0, 0.0]


class TestTheory:
    def test_expected_mse_decreases_with_samples(self):
        small = theory.expected_mse(20, n_features=5, noise_mean=1.0)
        large = theory.expected_mse(200, n_features=5, noise_mean=1.0)
        assert large < small

    def test_expected_mse_requires_enough_samples(self):
        with pytest.raises(ValueError):
            theory.expected_mse(5, n_features=5, noise_mean=1.0)

    def test_lemma1_value_positive_for_reasonable_setup(self):
        value = theory.lemma1_expected_value(
            n_clients=10, samples_per_client=100, n_features=5, noise_mean=1.0, initial_mse=10.0
        )
        assert value > 0.0

    def test_lemma1_value_decreases_with_more_clients(self):
        few = theory.lemma1_expected_value(3, 100, 5, 1.0, 10.0)
        many = theory.lemma1_expected_value(30, 100, 5, 1.0, 10.0)
        assert many < few

    def test_truncated_expectation_below_full(self):
        full = theory.lemma1_expected_value(10, 100, 5, 1.0, 10.0)
        truncated = theory.truncated_expected_value(2, 10, 100, 5, 1.0, 10.0)
        assert truncated <= full

    def test_theorem3_bound_decreases_with_k_star(self):
        loose = theory.theorem3_relative_error_bound(10, 1, 100, 5)
        tight = theory.theorem3_relative_error_bound(10, 5, 100, 5)
        assert tight < loose

    def test_theorem3_bound_zero_at_k_equals_n(self):
        assert theory.theorem3_relative_error_bound(10, 10, 100, 5) == 0.0

    def test_theorem3_asymptotic_matches_order(self):
        exact_bound = theory.theorem3_relative_error_bound(10, 2, 500, 5)
        asymptotic = theory.theorem3_asymptotic_bound(10, 2, 500)
        assert exact_bound == pytest.approx(asymptotic, rel=0.5)

    def test_theorem3_invalid_arguments(self):
        with pytest.raises(ValueError):
            theory.theorem3_relative_error_bound(10, 0, 100, 5)
        with pytest.raises(ValueError):
            theory.theorem3_relative_error_bound(10, 11, 100, 5)
        with pytest.raises(ValueError):
            theory.theorem3_relative_error_bound(10, 1, 3, 5)

    def test_predicted_relative_error_for_budget(self):
        error = theory.predicted_relative_error(10, 32, samples_per_client=100, n_features=5)
        assert 0.0 < error < 1.0

    def test_predicted_relative_error_infinite_without_budget(self):
        assert theory.predicted_relative_error(10, 0, 100, 5) == float("inf")

    def test_linear_utility_table_monotone_in_size(self):
        table = theory.linear_utility_table(5, 50, 5, 1.0, 10.0)
        empty = table[frozenset()]
        grand = table[frozenset(range(5))]
        assert grand > empty

    def test_truncation_error_matches_empirical_mc_on_table(self):
        """The k*-truncated estimate on the theory table obeys the Thm. 3 bound."""
        n, t, x = 6, 50, 5
        table = theory.linear_utility_table(n, t, x, noise_mean=1.0, initial_mse=10.0)
        oracle = TabularUtility(n, table)
        exact = MCShapley().run(oracle, n).values
        from repro.core import KGreedy

        k_star = 2
        estimate = KGreedy(max_size=k_star).run(oracle, n).values
        empirical_ratio = abs(estimate.mean() - exact.mean()) / abs(exact.mean())
        bound = theory.theorem3_relative_error_bound(n, k_star, t, x)
        assert empirical_ratio <= bound + 0.05


class TestVariance:
    def test_theoretical_mc_below_cc(self):
        sizes = [50] * 6
        rounds = [2] * 6
        for client in range(6):
            mc = theoretical_variance_mc(sizes, client, rounds)
            cc = theoretical_variance_cc(sizes, client, rounds)
            assert mc < cc

    def test_theoretical_variance_scales_with_dataset_size(self):
        rounds = [2] * 4
        small = theoretical_variance_mc([10, 10, 10, 10], 0, rounds)
        large = theoretical_variance_mc([100, 10, 10, 10], 0, rounds)
        assert large > small

    def test_empirical_variance_comparison_runs(self, monotone_game_5):
        comparison = empirical_scheme_variance(
            monotone_game_5, n_clients=5, total_rounds=10, repetitions=6, seed=0
        )
        assert comparison.mc_variance.shape == (5,)
        assert comparison.cc_variance.shape == (5,)
        assert comparison.repetitions == 6

    def test_empirical_variance_requires_repetitions(self, monotone_game_5):
        with pytest.raises(ValueError):
            empirical_scheme_variance(monotone_game_5, 5, 10, repetitions=1)

    def test_contribution_variance_mc_lower_on_concave_game(self):
        """Thm. 2's conclusion on an accuracy-like concave game."""
        game = monotone_game(6, seed=3)
        comparison = contribution_variance(game, 6, n_samples=300, seed=0)
        assert comparison["mc_variance"] <= comparison["cc_variance"]
        assert comparison["mc_is_lower"]

    def test_contribution_variance_validates_sample_count(self, monotone_game_5):
        with pytest.raises(ValueError):
            contribution_variance(monotone_game_5, 5, n_samples=1)

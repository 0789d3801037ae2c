"""Tests for the exact Shapley computation schemes (MC-SV, CC-SV, Perm-SV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CCShapley, MCShapley, PermShapley, exact_shapley
from repro.core.exact import mc_accumulate_stratum
from repro.fl import TabularUtility
from repro.utils.combinatorics import (
    all_coalitions,
    coalitions_of_size,
    marginal_coefficient,
)

from tests.helpers import monotone_game


class TestPaperExample:
    """The worked three-client example of the paper (Table I / Example 1)."""

    def test_mc_shapley_matches_paper(self, table1_utility, table1_exact_values):
        result = MCShapley().run(table1_utility, 3)
        assert np.allclose(result.values, table1_exact_values, atol=0.005)

    def test_cc_shapley_matches_paper(self, table1_utility, table1_exact_values):
        result = CCShapley().run(table1_utility, 3)
        assert np.allclose(result.values, table1_exact_values, atol=0.005)

    def test_perm_shapley_matches_paper(self, table1_utility, table1_exact_values):
        result = PermShapley().run(table1_utility, 3)
        assert np.allclose(result.values, table1_exact_values, atol=0.005)

    def test_all_three_schemes_agree(self, table1_utility):
        mc = MCShapley().run(table1_utility, 3).values
        cc = CCShapley().run(table1_utility, 3).values
        perm = PermShapley().run(table1_utility, 3).values
        assert np.allclose(mc, cc, atol=1e-10)
        assert np.allclose(mc, perm, atol=1e-10)

    def test_exact_shapley_convenience(self, table1_utility, table1_exact_values):
        assert np.allclose(exact_shapley(table1_utility, 3), table1_exact_values, atol=0.005)


class TestShapleyAxioms:
    def test_efficiency(self, monotone_game_5):
        values = MCShapley().run(monotone_game_5, 5).values
        grand = monotone_game_5(frozenset(range(5)))
        empty = monotone_game_5(frozenset())
        assert values.sum() == pytest.approx(grand - empty, abs=1e-9)

    def test_null_player_gets_zero(self):
        # Client 2 never changes the utility.
        def function(coalition):
            return float(len(coalition - {2}))

        oracle = TabularUtility.from_function(4, function)
        values = MCShapley().run(oracle, 4).values
        assert values[2] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_players_get_equal_value(self):
        # Clients 0 and 1 are interchangeable.
        def function(coalition):
            count = len(coalition & {0, 1})
            return count * 0.3 + (1.0 if 2 in coalition else 0.0)

        oracle = TabularUtility.from_function(3, function)
        values = MCShapley().run(oracle, 3).values
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_additive_game_recovers_weights(self):
        weights = np.array([0.1, 0.4, 0.2, 0.3])

        def function(coalition):
            return float(sum(weights[i] for i in coalition))

        oracle = TabularUtility.from_function(4, function)
        values = MCShapley().run(oracle, 4).values
        assert np.allclose(values, weights, atol=1e-12)

    def test_linearity_of_games(self):
        game_a = monotone_game(4, seed=10)
        game_b = monotone_game(4, seed=11)
        values_a = MCShapley().run(game_a, 4).values
        values_b = MCShapley().run(game_b, 4).values

        def summed(coalition):
            return game_a(coalition) + game_b(coalition)

        combined = TabularUtility.from_function(4, summed)
        values_sum = MCShapley().run(combined, 4).values
        assert np.allclose(values_sum, values_a + values_b, atol=1e-9)


class TestSchemeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mc_and_cc_agree_on_random_games(self, seed):
        game = monotone_game(5, seed=seed)
        mc = MCShapley().run(game, 5).values
        cc = CCShapley().run(game, 5).values
        assert np.allclose(mc, cc, atol=1e-10)

    def test_perm_agrees_on_small_game(self):
        game = monotone_game(4, seed=7)
        mc = MCShapley().run(game, 4).values
        perm = PermShapley().run(game, 4).values
        assert np.allclose(mc, perm, atol=1e-10)


class TestCostAccounting:
    def test_mc_shapley_evaluates_all_coalitions(self, monotone_game_5):
        result = MCShapley().run(monotone_game_5, 5)
        assert result.utility_evaluations == 2**5

    def test_perm_shapley_batches_distinct_coalitions(self, table1_utility):
        result = PermShapley().run(table1_utility, 3)
        # Every permutation prefix is a subset of N, so the batched plan
        # evaluates each of the 2^3 coalitions exactly once instead of the
        # 3! × 4 = 24 per-prefix oracle calls of the sequential formulation.
        assert result.utility_evaluations == 2**3

    def test_result_metadata_fields(self, table1_utility):
        result = MCShapley().run(table1_utility, 3)
        assert result.algorithm == "MC-Shapley"
        assert result.n_clients == 3
        assert result.elapsed_seconds >= 0.0


class TestTractabilityLimits:
    def test_perm_shapley_rejects_large_n(self):
        oracle = TabularUtility(12, {})
        with pytest.raises(ValueError):
            PermShapley().run(oracle, 12)

    def test_mc_shapley_rejects_very_large_n(self):
        oracle = TabularUtility(25, {})
        with pytest.raises(ValueError):
            MCShapley().run(oracle, 25)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=2, max_value=6),
)
def test_efficiency_property(seed, n):
    """Σ φ_i = U(N) − U(∅) for arbitrary monotone games (efficiency axiom)."""
    game = monotone_game(n, seed=seed)
    values = MCShapley().run(game, n).values
    total = game(frozenset(range(n))) - game(frozenset())
    assert values.sum() == pytest.approx(total, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500), n=st.integers(min_value=2, max_value=5))
def test_monotone_game_values_nonnegative(seed, n):
    """In a monotone game every marginal contribution — hence value — is ≥ 0."""
    game = monotone_game(n, seed=seed)
    values = MCShapley().run(game, n).values
    assert np.all(values >= -1e-12)


def _mc_accumulate_stratum_loop(utilities, n_clients, base_size, values, counts):
    """The per-pair scalar loop the vectorised fold must reproduce bitwise."""
    weight = marginal_coefficient(n_clients, base_size)
    for coalition in coalitions_of_size(n_clients, base_size):
        base_utility = utilities[coalition]
        for client in range(n_clients):
            if client in coalition:
                continue
            values[client] += weight * (utilities[coalition | {client}] - base_utility)
            counts[client] += 1


_utility_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1.0, max_value=1.0),
)


# Near-maximal floats overflow to inf in the subtraction, as they do in
# the loop; NumPy reports it as a RuntimeWarning, Python floats do not.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=7))
def test_vectorised_mc_fold_is_bitwise_the_scalar_loop(data, n):
    utilities = {
        coalition: data.draw(_utility_floats) for coalition in all_coalitions(n)
    }
    start = data.draw(st.lists(_utility_floats, min_size=n, max_size=n))
    folded, folded_counts = np.array(start), np.zeros(n)
    looped, looped_counts = np.array(start), np.zeros(n)
    # Stratum by stratum onto one accumulator, as the estimators fold.
    for base_size in range(n):
        mc_accumulate_stratum(utilities, n, base_size, folded, folded_counts)
        _mc_accumulate_stratum_loop(utilities, n, base_size, looped, looped_counts)
        assert folded.tobytes() == looped.tobytes()
        assert folded_counts.tobytes() == looped_counts.tobytes()

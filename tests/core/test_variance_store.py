"""empirical_scheme_variance with a shared store / worker pool (Fig. 10 sweeps)."""

import numpy as np

from helpers import monotone_game
from repro.core import empirical_scheme_variance
from repro.store import MemoryUtilityStore

N = 5
ROUNDS = 10
REPS = 4


class TestVarianceStoreThreading:
    def test_estimates_unchanged_by_store(self):
        plain = empirical_scheme_variance(
            monotone_game(N, seed=1), N, total_rounds=ROUNDS, repetitions=REPS, seed=0
        )
        with MemoryUtilityStore() as store:
            shared = empirical_scheme_variance(
                monotone_game(N, seed=1),
                N,
                total_rounds=ROUNDS,
                repetitions=REPS,
                seed=0,
                store=store,
                store_namespace="variance-test",
            )
        assert shared.mc_mean.tolist() == plain.mc_mean.tolist()
        assert shared.cc_mean.tolist() == plain.cc_mean.tolist()
        assert shared.mc_variance.tolist() == plain.mc_variance.tolist()
        assert shared.cc_variance.tolist() == plain.cc_variance.tolist()

    def test_shared_oracle_deduplicates_across_repetitions(self):
        # Without sharing, every repetition re-evaluates its coalitions.
        raw = monotone_game(N, seed=1)
        empirical_scheme_variance(raw, N, total_rounds=ROUNDS, repetitions=REPS, seed=0)
        raw_evaluations = raw.evaluations

        shared_game = monotone_game(N, seed=1)
        with MemoryUtilityStore() as store:
            comparison = empirical_scheme_variance(
                shared_game,
                N,
                total_rounds=ROUNDS,
                repetitions=REPS,
                seed=0,
                store=store,
                store_namespace="variance-test",
            )
        assert comparison.evaluations == shared_game.evaluations
        assert comparison.evaluations < raw_evaluations
        # n=5 has only 2^5 coalitions; the sweep must not train more.
        assert comparison.evaluations <= 2**N

    def test_warm_store_serves_second_sweep(self):
        with MemoryUtilityStore() as store:
            first = empirical_scheme_variance(
                monotone_game(N, seed=1),
                N,
                total_rounds=ROUNDS,
                repetitions=REPS,
                seed=0,
                store=store,
                store_namespace="variance-test",
            )
            assert first.evaluations > 0
            second_game = monotone_game(N, seed=1)
            second = empirical_scheme_variance(
                second_game,
                N,
                total_rounds=ROUNDS,
                repetitions=REPS,
                seed=0,
                store=store,
                store_namespace="variance-test",
            )
        assert second.evaluations == 0
        assert second_game.evaluations == 0
        assert second.store_hits > 0
        assert second.mc_mean.tolist() == first.mc_mean.tolist()

    def test_store_requires_a_namespace(self):
        # Store keys are bare coalition sets; without a task-addressing
        # namespace two different utilities would share cached values.
        import pytest

        with MemoryUtilityStore() as store:
            with pytest.raises(ValueError, match="store_namespace"):
                empirical_scheme_variance(
                    monotone_game(N, seed=1),
                    N,
                    total_rounds=ROUNDS,
                    repetitions=REPS,
                    seed=0,
                    store=store,
                )

    def test_cost_counters_without_sharing(self):
        game = monotone_game(N, seed=1)
        comparison = empirical_scheme_variance(
            game, N, total_rounds=ROUNDS, repetitions=REPS, seed=0
        )
        # No store tier -> no store hits; evaluations mirror the raw oracle.
        assert comparison.store_hits == 0
        assert comparison.evaluations == game.evaluations > 0

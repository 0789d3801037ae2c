"""Batched execution must be value-preserving.

The acceptance bar for the batched engine: running any sampling algorithm
through a :class:`BatchUtilityOracle` on any in-process backend produces
**bitwise-identical** ``ValuationResult.values`` to the plain sequential code
path on the same seed.  This holds because (a) all randomness lives in the
algorithm's own generator, which is untouched by how utilities are
evaluated, and (b) per-coalition training seeds are content-derived, so a
coalition's utility is the same whichever backend computes it.  The
FL-trained half of the matrix lives in ``test_backend_parity.py``.
"""

import numpy as np
import pytest

from repro.core import IPSS, KGreedy, MCShapley, PermShapley, StratifiedSampling
from repro.parallel import BatchUtilityOracle

from tests.helpers import monotone_game

N_CLIENTS = 6
SEED = 11


def algorithms():
    return [
        StratifiedSampling(total_rounds=20, scheme="mc", seed=SEED),
        StratifiedSampling(total_rounds=20, scheme="cc", pair_on_demand=True, seed=SEED),
        MCShapley(seed=SEED),
        PermShapley(seed=SEED),
        KGreedy(max_size=2, seed=SEED),
        IPSS(total_rounds=24, seed=SEED),
    ]


def run_with(executor):
    game = monotone_game(N_CLIENTS, seed=SEED)
    oracle = BatchUtilityOracle(game, n_clients=N_CLIENTS, executor=executor)
    return {
        algorithm.name: algorithm.run(oracle, N_CLIENTS).values
        for algorithm in algorithms()
    }


class TestExecutorDeterminism:
    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_identical_to_plain_callable(self, executor):
        """Batched == the plain sequential code path.

        ``game.utility`` is a bare bound method with no ``evaluate_batch``,
        so it exercises the sequential fallback of the planning hook.
        """
        game = monotone_game(N_CLIENTS, seed=SEED)
        plain = {
            algorithm.name: algorithm.run(game.utility, N_CLIENTS).values
            for algorithm in algorithms()
        }
        batched = run_with(executor)
        for name, values in plain.items():
            assert np.array_equal(values, batched[name]), name

    def test_repeated_runs_are_stable(self):
        first = run_with("serial")
        second = run_with("serial")
        for name in first:
            assert np.array_equal(first[name], second[name]), name


class TestCoalitionUtilityBackends:
    """End to end on the real FL substrate: serial vs lockstep training."""

    @staticmethod
    def build_utility(executor):
        from repro.datasets import (
            make_classification_blobs,
            partition_iid,
            train_test_split,
        )
        from repro.fl import CoalitionUtility, FLConfig
        from repro.models import LogisticRegressionModel

        pooled = make_classification_blobs(160, n_features=4, n_classes=2, seed=SEED)
        train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
        clients = partition_iid(train, 4, seed=SEED)
        return CoalitionUtility(
            client_datasets=clients,
            test_dataset=test,
            model_factory=lambda: LogisticRegressionModel(
                n_features=4, n_classes=2, epochs=2
            ),
            config=FLConfig(rounds=2),
            seed=SEED,
            executor=executor,
        )

    def test_fl_training_values_identical_across_backends(self):
        serial = MCShapley(seed=SEED).run(self.build_utility("serial")).values
        lockstep = MCShapley(seed=SEED).run(self.build_utility("vectorized")).values
        assert np.array_equal(serial, lockstep)

    def test_ipss_on_fl_identical_across_backends(self):
        def run(executor):
            return IPSS(total_rounds=10, seed=SEED).run(self.build_utility(executor))

        assert np.array_equal(run("serial").values, run("vectorized").values)

    def test_evaluation_accounting_matches_serial(self):
        serial = self.build_utility("serial")
        lockstep = self.build_utility("vectorized")
        MCShapley(seed=SEED).run(serial)
        MCShapley(seed=SEED).run(lockstep)
        assert lockstep.executor.last_fallback_reason is None
        assert serial.evaluations == lockstep.evaluations == 2**4

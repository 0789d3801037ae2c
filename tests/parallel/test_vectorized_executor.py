"""VectorizedExecutor integration: resolution, fallback and configuration."""

import numpy as np
import pytest

from repro.core import IPSS
from repro.datasets import make_classification_blobs, partition_iid, train_test_split
from repro.fl import CoalitionUtility, FLConfig
from repro.models import LogisticRegressionModel
from repro.parallel import (
    BatchUtilityOracle,
    SerialExecutor,
    VectorizedExecutor,
    make_executor,
)

from tests.helpers import monotone_game

SEED = 17


def build_utility(executor="vectorized", **kwargs):
    pooled = make_classification_blobs(160, n_features=4, n_classes=2, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    clients = partition_iid(train, 4, seed=SEED)
    return CoalitionUtility(
        client_datasets=clients,
        test_dataset=test,
        model_factory=lambda: LogisticRegressionModel(n_features=4, n_classes=2, epochs=2),
        config=FLConfig(rounds=2),
        seed=SEED,
        executor=executor,
        **kwargs,
    )


class TestMakeExecutor:
    def test_vectorized_backend_name(self):
        executor = make_executor("vectorized")
        assert isinstance(executor, VectorizedExecutor)
        assert executor.name == "vectorized"

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            VectorizedExecutor(chunk_size=0)


class TestFallback:
    def test_plain_game_falls_back_to_serial(self):
        game = monotone_game(5, seed=2)
        oracle = BatchUtilityOracle(game, n_clients=5, executor="vectorized")
        batch = [{0}, {1, 2}, frozenset()]
        results = oracle.evaluate_batch(batch)
        for coalition in batch:
            assert results[frozenset(coalition)] == game._table[frozenset(coalition)]
        assert isinstance(oracle.executor, VectorizedExecutor)
        assert "not backed by a FederatedTrainer" in oracle.executor.last_fallback_reason

    def test_strict_mode_raises_instead(self):
        game = monotone_game(3, seed=2)
        oracle = BatchUtilityOracle(
            game, n_clients=3, executor=VectorizedExecutor(strict=True)
        )
        with pytest.raises(ValueError, match="cannot engage"):
            oracle.evaluate_batch([{0}, {1}])

    def test_fallback_values_match_serial_loop(self):
        """A blocked FL trainer (client_fraction < 1) still evaluates
        correctly — through the serial loop, values identical to serial."""
        pooled = make_classification_blobs(120, n_features=4, n_classes=2, seed=SEED)
        train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
        clients = partition_iid(train, 3, seed=SEED)

        def factory():
            return LogisticRegressionModel(n_features=4, n_classes=2, epochs=1)

        config = FLConfig(rounds=2, client_fraction=0.5)
        serial = CoalitionUtility(clients, test, factory, config=config, seed=SEED)
        vectorized = CoalitionUtility(
            clients, test, factory, config=config, seed=SEED, executor="vectorized"
        )
        plan = [{0}, {1}, {0, 1}, {0, 1, 2}]
        assert serial.evaluate_batch(plan) == vectorized.evaluate_batch(plan)
        assert "client_fraction" in vectorized.executor.last_fallback_reason


class TestAlgorithmsThroughVectorizedBackend:
    def test_ipss_values_identical_to_serial(self):
        serial = build_utility("serial")
        vectorized = build_utility("vectorized")
        values_serial = IPSS(total_rounds=10, seed=SEED).run(serial, 4).values
        values_vectorized = IPSS(total_rounds=10, seed=SEED).run(vectorized, 4).values
        np.testing.assert_array_equal(values_serial, values_vectorized)
        assert serial.evaluations == vectorized.evaluations

    def test_single_coalition_calls_agree_with_batches(self):
        """``oracle(S)`` (serial path) and a later batch must cohere."""
        utility = build_utility("vectorized")
        single = utility({0, 1})
        batched = utility.evaluate_batch([{0, 1}, {2}])
        assert batched[frozenset({0, 1})] == single  # cache hit, no retrain
        assert utility.evaluations == 2

    def test_executor_upgrade_after_construction(self):
        utility = build_utility("serial")
        assert isinstance(utility.executor, SerialExecutor)
        utility.set_executor("vectorized")
        assert isinstance(utility.executor, VectorizedExecutor)
        values = IPSS(total_rounds=8, seed=SEED).run(utility, 4).values
        assert values.shape == (4,)

"""VectorizedCoalitionTrainer vs the serial FederatedTrainer, seed-for-seed.

The equivalence contract (docs/performance.md): for every supported model and
FL algorithm the vectorized engine replays the serial path's RNG streams and
update schedule, and on this stack its utilities come out bitwise-identical.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.datasets import (
    make_classification_blobs,
    make_linear_regression,
    partition_different_sizes,
    partition_iid,
    train_test_split,
)
from repro.fl import (
    FederatedTrainer,
    FLConfig,
    VectorizedCoalitionTrainer,
    vectorization_blocker,
)
from repro.models import (
    GradientBoostedTrees,
    LogisticRegressionModel,
    MLPClassifier,
    SimpleCNN,
)
from repro.models.linear import LinearRegressionModel

N = 5
SEED = 3


def all_coalitions(n):
    out = [frozenset()]
    for size in range(1, n + 1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


@pytest.fixture(scope="module")
def clients_and_test():
    pooled = make_classification_blobs(220, n_features=4, n_classes=3, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    return partition_iid(train, N, seed=SEED), test


@pytest.fixture(scope="module")
def uneven_clients_and_test():
    """Client sizes 1 : 2 : … : 5 — five size groups, ragged mini-batches."""
    pooled = make_classification_blobs(220, n_features=4, n_classes=3, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    return partition_different_sizes(train, N, seed=SEED), test


@pytest.fixture(scope="module")
def regression_clients_and_test():
    pooled = make_linear_regression(200, n_features=4, noise_std=0.3, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    return partition_iid(train, N, seed=SEED), test


def logistic_factory():
    return LogisticRegressionModel(n_features=4, n_classes=3, epochs=2)


def mlp_factory():
    return MLPClassifier(n_features=4, n_classes=3, hidden_sizes=(6,), batch_size=8)


def deep_mlp_factory():
    return MLPClassifier(
        n_features=4,
        n_classes=3,
        hidden_sizes=(6, 5),
        activation="tanh",
        l2=0.01,
        batch_size=8,
    )


def linear_factory():
    return LinearRegressionModel(n_features=4, batch_size=8, epochs=2)


def build(clients_and_test, factory=logistic_factory, config=None, dropout=None):
    clients, test = clients_and_test
    return FederatedTrainer(
        clients, test, factory, config=config, seed=SEED, client_dropout=dropout
    )


def assert_parity(trainer, chunk_size=64, coalitions=None):
    coalitions = coalitions if coalitions is not None else all_coalitions(N)
    engine = VectorizedCoalitionTrainer(trainer, chunk_size=chunk_size)
    serial = np.asarray([trainer.utility(c) for c in coalitions])
    vectorized = np.asarray(engine.utilities(coalitions))
    np.testing.assert_array_equal(serial, vectorized)


class TestSeedForSeedParity:
    @pytest.mark.parametrize(
        "factory", [logistic_factory, mlp_factory, deep_mlp_factory]
    )
    def test_fedavg(self, clients_and_test, factory):
        assert_parity(build(clients_and_test, factory, FLConfig(rounds=3, local_epochs=2)))

    def test_linear_fedavg(self, regression_clients_and_test):
        config = FLConfig(rounds=3, local_epochs=2)
        assert_parity(build(regression_clients_and_test, linear_factory, config))

    @pytest.mark.parametrize("factory", [logistic_factory, mlp_factory])
    def test_fedprox(self, clients_and_test, factory):
        config = FLConfig(rounds=2, local_epochs=2, algorithm="fedprox", proximal_mu=0.3)
        assert_parity(build(clients_and_test, factory, config))

    @pytest.mark.parametrize("factory", [logistic_factory, mlp_factory])
    def test_fedsgd(self, clients_and_test, factory):
        config = FLConfig(rounds=3, algorithm="fedsgd")
        assert_parity(build(clients_and_test, factory, config))

    @pytest.mark.parametrize("factory", [mlp_factory, deep_mlp_factory])
    def test_different_client_sizes(self, uneven_clients_and_test, factory):
        config = FLConfig(
            rounds=2, local_epochs=2, algorithm="fedprox", proximal_mu=0.3
        )
        assert_parity(build(uneven_clients_and_test, factory, config))

    def test_repeated_batches_do_not_alias_buffers(self, uneven_clients_and_test):
        # One engine trains the same plan twice: any row of a stacked or
        # reused buffer that outlived its round would change the second run.
        config = FLConfig(
            rounds=3, local_epochs=2, algorithm="fedprox", proximal_mu=0.3
        )
        trainer = build(uneven_clients_and_test, deep_mlp_factory, config)
        plan = all_coalitions(N)
        fresh = np.asarray(VectorizedCoalitionTrainer(trainer).utilities(plan))
        engine = VectorizedCoalitionTrainer(trainer, chunk_size=7)
        first = np.asarray(engine.utilities(plan))
        second = np.asarray(engine.utilities(plan))
        np.testing.assert_array_equal(first, fresh)
        np.testing.assert_array_equal(second, fresh)

    def test_straggler_dropout(self, clients_and_test):
        trainer = build(
            clients_and_test,
            mlp_factory,
            FLConfig(rounds=3, local_epochs=1),
            dropout=[0.0, 0.6, 0.3, 0.0, 0.9],
        )
        assert_parity(trainer)

    def test_config_batch_size_override(self, clients_and_test):
        config = FLConfig(rounds=2, local_epochs=1, batch_size=7)
        assert_parity(build(clients_and_test, logistic_factory, config))

    def test_empty_and_duplicate_coalitions(self, clients_and_test):
        trainer = build(clients_and_test)
        plan = [frozenset(), frozenset({1, 2}), frozenset(), frozenset({1, 2})]
        assert_parity(trainer, coalitions=plan)

    def test_null_clients_match_serial(self, clients_and_test):
        from repro.datasets import Dataset

        clients, test = clients_and_test
        clients = list(clients[:3]) + [Dataset.empty_like(test, name="null")]
        trainer = FederatedTrainer(clients, test, logistic_factory, seed=SEED)
        engine = VectorizedCoalitionTrainer(trainer)
        plan = all_coalitions(4)
        serial = np.asarray([trainer.utility(c) for c in plan])
        np.testing.assert_array_equal(serial, np.asarray(engine.utilities(plan)))

    def test_chunking_is_value_neutral(self, clients_and_test):
        trainer = build(clients_and_test)
        plan = all_coalitions(N)
        small = VectorizedCoalitionTrainer(trainer, chunk_size=3).utilities(plan)
        large = VectorizedCoalitionTrainer(trainer, chunk_size=256).utilities(plan)
        np.testing.assert_array_equal(np.asarray(small), np.asarray(large))


class TestGating:
    def test_unknown_client_ids_raise(self, clients_and_test):
        engine = VectorizedCoalitionTrainer(build(clients_and_test))
        with pytest.raises(ValueError, match="unknown client ids"):
            engine.utilities([{0, 99}])

    def test_invalid_chunk_size(self, clients_and_test):
        with pytest.raises(ValueError, match="chunk_size"):
            VectorizedCoalitionTrainer(build(clients_and_test), chunk_size=0)

    def test_non_parametric_model_blocked(self, clients_and_test):
        clients, test = clients_and_test
        trainer = FederatedTrainer(
            clients, test, lambda: GradientBoostedTrees(n_classes=3, n_rounds=2), seed=SEED
        )
        assert "non-parametric" in vectorization_blocker(trainer)
        with pytest.raises(ValueError, match="non-parametric"):
            VectorizedCoalitionTrainer(trainer)

    def test_model_without_kernels_blocked(self):
        from repro.datasets import make_mnist_like

        pooled = make_mnist_like(n_samples=60, image_size=6, seed=1)
        train, test = train_test_split(pooled, test_fraction=0.3, seed=1)
        clients = partition_iid(train, 2, seed=1)
        trainer = FederatedTrainer(
            clients, test, lambda: SimpleCNN(image_size=6, n_classes=2), seed=SEED
        )
        assert "no vectorized batched kernels" in vectorization_blocker(trainer)

    def test_partial_participation_blocked(self, clients_and_test):
        trainer = build(
            clients_and_test, logistic_factory, FLConfig(rounds=2, client_fraction=0.5)
        )
        assert "client_fraction" in vectorization_blocker(trainer)

    def test_preinitialized_factory_blocked(self, clients_and_test):
        clients, test = clients_and_test

        def factory():
            return LogisticRegressionModel(n_features=4, n_classes=3).initialize(0)

        trainer = FederatedTrainer(clients, test, factory, seed=SEED)
        assert "pre-initializes" in vectorization_blocker(trainer)

    def test_supported_trainer_has_no_blocker(self, clients_and_test):
        assert vectorization_blocker(build(clients_and_test)) is None

"""Tests for the FL server, the coalition trainer and the utility oracles."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    make_adult_like,
    make_classification_blobs,
    partition_by_group,
    partition_iid,
    train_test_split,
)
from repro.fl import (
    CoalitionUtility,
    FLClient,
    FLConfig,
    FLServer,
    FederatedTrainer,
    TabularUtility,
    train_federated,
)
from repro.models import GradientBoostedTrees, LogisticRegressionModel


@pytest.fixture(scope="module")
def federation():
    pooled = make_classification_blobs(
        200, n_features=5, n_classes=3, class_separation=3.0, cluster_std=1.0, seed=0
    )
    train, test = train_test_split(pooled, test_fraction=0.25, seed=0)
    clients = partition_iid(train, 4, seed=0)
    return clients, test


def logistic_factory():
    return LogisticRegressionModel(n_features=5, n_classes=3, epochs=3)


class TestFLServer:
    def test_training_improves_utility(self, federation):
        clients, test = federation
        model = logistic_factory()
        model.initialize(0)
        untrained_accuracy = model.evaluate(test)
        server = FLServer(model, [FLClient(i, d) for i, d in enumerate(clients)], FLConfig(rounds=4))
        server.train(seed=0)
        assert model.evaluate(test) > untrained_accuracy

    def test_history_recorded_when_requested(self, federation):
        clients, test = federation
        model = logistic_factory()
        server = FLServer(
            model,
            [FLClient(i, d) for i, d in enumerate(clients)],
            FLConfig(rounds=3, record_history=True),
        )
        server.train(seed=0)
        assert server.history is not None
        assert server.history.n_rounds == 3
        assert server.history.clients() == [0, 1, 2, 3]

    def test_history_absent_by_default(self, federation):
        clients, _ = federation
        server = FLServer(logistic_factory(), [FLClient(i, d) for i, d in enumerate(clients)])
        server.train(seed=0)
        assert server.history is None

    def test_client_fraction_selects_subset(self, federation):
        clients, _ = federation
        server = FLServer(
            logistic_factory(),
            [FLClient(i, d) for i, d in enumerate(clients)],
            FLConfig(rounds=2, client_fraction=0.5, record_history=True),
        )
        server.train(seed=0)
        for record in server.history.rounds:
            assert len(record.updates) == 2

    def test_no_clients_raises(self):
        with pytest.raises(ValueError):
            FLServer(logistic_factory(), [])

    def test_non_parametric_model_raises(self, federation):
        clients, _ = federation
        with pytest.raises(TypeError):
            FLServer(GradientBoostedTrees(n_classes=3), [FLClient(0, clients[0])])

    def test_training_is_deterministic_given_seed(self, federation):
        clients, _ = federation

        def run():
            model = logistic_factory()
            server = FLServer(model, [FLClient(i, d) for i, d in enumerate(clients)], FLConfig(rounds=2))
            server.train(seed=7)
            return model.get_parameters()

        assert np.allclose(run(), run())

    def test_train_federated_wrapper(self, federation):
        clients, _ = federation
        model, history = train_federated(
            logistic_factory(), clients, FLConfig(rounds=2, record_history=True), seed=0
        )
        assert model.is_initialized
        assert history.n_rounds == 2


class TestFederatedTrainer:
    def test_utility_grows_with_coalition_size_on_average(self, federation):
        clients, test = federation
        trainer = FederatedTrainer(clients, test, logistic_factory, FLConfig(rounds=3), seed=0)
        empty = trainer.utility(frozenset())
        singleton = trainer.utility(frozenset({0}))
        grand = trainer.utility(frozenset(range(4)))
        assert singleton >= empty
        assert grand >= empty

    def test_unknown_client_raises(self, federation):
        clients, test = federation
        trainer = FederatedTrainer(clients, test, logistic_factory, seed=0)
        with pytest.raises(ValueError):
            trainer.utility(frozenset({9}))

    def test_same_coalition_same_model(self, federation):
        clients, test = federation
        trainer = FederatedTrainer(clients, test, logistic_factory, FLConfig(rounds=2), seed=0)
        a, _ = trainer.train_coalition({0, 2})
        b, _ = trainer.train_coalition({2, 0})
        assert np.allclose(a.get_parameters(), b.get_parameters())

    def test_empty_coalition_model_is_untrained(self, federation):
        clients, test = federation
        trainer = FederatedTrainer(clients, test, logistic_factory, seed=0)
        model, history = trainer.train_coalition(frozenset())
        assert history is None
        assert model.is_initialized

    def test_grand_coalition_history(self, federation):
        clients, test = federation
        trainer = FederatedTrainer(clients, test, logistic_factory, FLConfig(rounds=2), seed=0)
        history = trainer.grand_coalition_history()
        assert history.n_rounds == 2
        assert history.clients() == [0, 1, 2, 3]

    def test_nonparametric_model_uses_pooled_training(self):
        pooled = make_adult_like(250, seed=1)
        train, test = train_test_split(pooled, test_fraction=0.2, seed=1)
        clients = partition_by_group(train, 3, seed=1)
        trainer = FederatedTrainer(
            clients, test, lambda: GradientBoostedTrees(n_classes=2, n_rounds=4), seed=1
        )
        utility = trainer.utility(frozenset({0, 1, 2}))
        assert 0.0 <= utility <= 1.0
        with pytest.raises(TypeError):
            trainer.grand_coalition_history()

    def test_requires_at_least_one_client(self, federation):
        _, test = federation
        with pytest.raises(ValueError):
            FederatedTrainer([], test, logistic_factory)


class TestCoalitionUtility:
    def test_caching_avoids_retraining(self, federation):
        clients, test = federation
        utility = CoalitionUtility(clients, test, logistic_factory, FLConfig(rounds=2), seed=0)
        first = utility(frozenset({0, 1}))
        second = utility(frozenset({1, 0}))
        assert first == second
        assert utility.evaluations == 1
        assert utility.cache_hits == 1

    def test_reset_cache(self, federation):
        clients, test = federation
        utility = CoalitionUtility(clients, test, logistic_factory, FLConfig(rounds=2), seed=0)
        utility(frozenset({0}))
        utility.reset_cache()
        assert utility.evaluations == 0

    def test_is_the_batch_oracle_with_a_trainer(self):
        """Everything but construction is inherited — in particular
        ``evaluate_batch``, which the end-to-end benchmark patches on
        BatchUtilityOracle as the oracle layer."""
        from repro.parallel import BatchUtilityOracle

        own = [n for n, member in vars(CoalitionUtility).items() if callable(member)]
        assert own == ["__init__"]
        assert CoalitionUtility.evaluate_batch is BatchUtilityOracle.evaluate_batch

    def test_evaluator_is_the_bare_trainer_method(self, federation):
        clients, test = federation
        utility = CoalitionUtility(clients, test, logistic_factory, seed=0)
        assert utility._evaluator == utility.trainer.utility

    def test_n_clients(self, federation):
        clients, test = federation
        utility = CoalitionUtility(clients, test, logistic_factory, seed=0)
        assert utility.n_clients == 4


class TestTabularUtility:
    def test_lookup_and_counter(self, table1_utility):
        assert table1_utility(frozenset({0})) == 0.50
        assert table1_utility.evaluations == 1

    def test_missing_coalition_raises(self, table1_utility):
        with pytest.raises(KeyError):
            table1_utility(frozenset({0, 1, 2, 3}))

    def test_from_function_materialises_all_coalitions(self):
        oracle = TabularUtility.from_function(3, lambda s: float(len(s)))
        assert oracle(frozenset({0, 1, 2})) == 3.0
        assert oracle(frozenset()) == 0.0


class TestCoalitionUtilityLifecycle:
    def test_context_manager_closes_owned_store(self, federation, tmp_path):
        clients, test = federation
        store_path = str(tmp_path / "utilities.sqlite")
        with CoalitionUtility(
            clients,
            test,
            logistic_factory,
            FLConfig(rounds=2),
            seed=0,
            store=store_path,
            store_namespace="lifecycle-test",
        ) as utility:
            fresh = utility(frozenset({0, 1}))
            handle = utility.store
            assert handle is not None
        assert handle.closed  # owned path store released deterministically

        # A second oracle over the same store serves the value bitwise without
        # training (the trainer would produce it identically, but the counter
        # proves no training ran).
        with CoalitionUtility(
            clients,
            test,
            logistic_factory,
            FLConfig(rounds=2),
            seed=0,
            store=store_path,
            store_namespace="lifecycle-test",
        ) as utility:
            assert utility(frozenset({0, 1})) == fresh
            assert utility.evaluations == 0
            assert utility.store_hits == 1

    def test_close_is_idempotent(self, federation):
        clients, test = federation
        utility = CoalitionUtility(clients, test, logistic_factory, seed=0)
        utility.close()
        utility.close()

    def test_attach_store_requires_unique_namespace_from_caller(self, federation):
        from repro.store import MemoryUtilityStore

        clients, test = federation
        store = MemoryUtilityStore()
        utility = CoalitionUtility(clients, test, logistic_factory, seed=0)
        utility.attach_store(store, "handpicked-namespace")
        utility(frozenset({0}))
        assert len(store) == 1
        utility.close()
        assert not store.closed  # instance stores belong to the caller

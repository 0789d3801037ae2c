"""Backend parity: serial / vectorized agree.

For at least two models × two datasets, every
executor backend produces the same utilities *and* the same ``evaluations``
/ ``store_hits`` accounting — so switching backends can change wall-clock
time and nothing else.

Everything here is module-level (no lambdas), so the evaluators pickle.
"""

from functools import partial

import numpy as np
import pytest

from repro.core import MCShapley
from repro.datasets import (
    make_adult_like,
    make_classification_blobs,
    partition_by_group,
    partition_iid,
    train_test_split,
)
from repro.fl import CoalitionUtility, FLConfig
from repro.models import LogisticRegressionModel, MLPClassifier
from repro.parallel import EXECUTOR_BACKENDS, VectorizedExecutor
from repro.store import MemoryUtilityStore

BACKENDS = list(EXECUTOR_BACKENDS)
SEED = 13
N = 4


def logistic_model(n_features):
    """Picklable zero-arg factory (functools.partial)."""
    return partial(LogisticRegressionModel, n_features=n_features, n_classes=2, epochs=2)


def mlp_model(n_features):
    return partial(
        MLPClassifier, n_features=n_features, n_classes=2, hidden_sizes=(5,), batch_size=8
    )


def blob_clients():
    pooled = make_classification_blobs(180, n_features=6, n_classes=2, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    return partition_iid(train, N, seed=SEED), test


def adult_clients():
    pooled = make_adult_like(n_samples=180, n_occupations=8, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    return partition_by_group(train, N, seed=SEED), test


DATASETS = {"blobs": blob_clients, "adult": adult_clients}
MODELS = {"logistic": logistic_model, "mlp": mlp_model}


def build_utility(dataset: str, model: str, backend: str, store=None):
    clients, test = DATASETS[dataset]()
    return CoalitionUtility(
        client_datasets=clients,
        test_dataset=test,
        model_factory=MODELS[model](test.n_features),
        config=FLConfig(rounds=2, local_epochs=1),
        seed=SEED,
        executor=backend,
        store=store,
        store_namespace=f"parity-{dataset}-{model}" if store is not None else None,
    )


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestBackendParity:
    def test_utilities_and_accounting_agree(self, dataset, model):
        results = {}
        for backend in BACKENDS:
            with build_utility(dataset, model, backend) as utility:
                values = MCShapley(seed=SEED).run(utility, N).values
                results[backend] = (values, utility.evaluations, utility.cache_hits)
        reference_values, reference_evals, reference_hits = results["serial"]
        assert reference_evals == 2**N
        for backend in BACKENDS:
            values, evaluations, cache_hits = results[backend]
            np.testing.assert_allclose(
                values, reference_values, rtol=0, atol=1e-9, err_msg=backend
            )
            assert evaluations == reference_evals, backend
            assert cache_hits == reference_hits, backend

    def test_store_hits_accounting_agrees(self, dataset, model):
        for backend in BACKENDS:
            store = MemoryUtilityStore()
            with build_utility(dataset, model, backend, store=store) as utility:
                first = utility.evaluate_batch([{0}, {1}, {0, 1}, {2, 3}])
                assert utility.evaluations == 4
                assert utility.store_hits == 0
                utility.reset_cache()
                second = utility.evaluate_batch([{0}, {1}, {0, 1}, {2, 3}])
                assert utility.evaluations == 0, backend
                assert utility.store_hits == 4, backend
                assert first == second, backend


class TestVectorizedBitwise:
    """On this stack the vectorized backend is exactly equal, not just close.

    The documented guarantee is ``atol=1e-9`` (kernel selection may round
    differently on other BLAS builds); classification utilities are
    additionally quantised to multiples of 1/len(test), which is what these
    stricter assertions pin down for the supported models.
    """

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_bitwise_equal_utilities(self, model):
        serial = build_utility("blobs", model, "serial")
        vectorized = build_utility("blobs", model, "vectorized")
        plan = [{0}, {1}, {2}, {3}, {0, 1}, {1, 2, 3}, {0, 1, 2, 3}, frozenset()]
        np.testing.assert_array_equal(
            np.asarray(list(serial.evaluate_batch(plan).values())),
            np.asarray(list(vectorized.evaluate_batch(plan).values())),
        )
        assert isinstance(vectorized.executor, VectorizedExecutor)
        assert vectorized.executor.last_fallback_reason is None
        assert vectorized.backend == "vectorized"

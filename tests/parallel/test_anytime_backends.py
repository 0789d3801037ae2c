"""Interrupt/resume parity across both executor backends.

The anytime contract must hold regardless of how coalition utilities are
evaluated: kill a run mid-chunk, restore from the JSON checkpoint, and the
final values are bitwise-identical to an uninterrupted run on the same
backend (and equal across backends up to the documented vectorized
tolerance).  Everything is module-level, so the evaluators pickle.
"""

import json
from functools import partial

import numpy as np
import pytest

from repro.core import IPSS, EstimatorState, StratifiedSampling
from repro.datasets import make_classification_blobs, partition_iid, train_test_split
from repro.fl import CoalitionUtility, FLConfig
from repro.models import LogisticRegressionModel
from repro.parallel import EXECUTOR_BACKENDS
from repro.store import MemoryUtilityStore

BACKENDS = list(EXECUTOR_BACKENDS)
SEED = 23
N = 4
GAMMA = 12


def model_factory(n_features):
    return partial(LogisticRegressionModel, n_features=n_features, n_classes=2, epochs=2)


def build_utility(backend: str, store=None):
    pooled = make_classification_blobs(160, n_features=5, n_classes=2, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    clients = partition_iid(train, N, seed=SEED)
    return CoalitionUtility(
        client_datasets=clients,
        test_dataset=test,
        model_factory=model_factory(test.n_features),
        config=FLConfig(rounds=2, local_epochs=1),
        seed=SEED,
        executor=backend,
        store=store,
        store_namespace="anytime-backends" if store is not None else None,
    )


ALGORITHMS = {
    "ipss": lambda: IPSS(total_rounds=GAMMA, partial_chunk_size=2, seed=SEED),
    "stratified": lambda: StratifiedSampling(total_rounds=GAMMA, scheme="mc", seed=SEED),
}


@pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
@pytest.mark.parametrize("backend", BACKENDS)
class TestInterruptResumeAcrossBackends:
    def test_killed_mid_run_then_restored_is_bitwise_identical(
        self, backend, algorithm_key
    ):
        factory = ALGORITHMS[algorithm_key]
        with build_utility(backend) as utility:
            reference = factory().run(utility, N)

        # Kill the run after two chunks; persist the checkpoint as JSON.
        with build_utility(backend) as utility:
            iterator = factory().iter_run(utility, N)
            snapshot = None
            for index, snapshot in enumerate(iterator, start=1):
                if index == 2:
                    break
            iterator.close()
            assert not snapshot.done
            blob = json.dumps(snapshot.state.to_dict())

        # Restore in a fresh oracle (fresh cache — as after a real crash).
        restored = EstimatorState.from_dict(json.loads(blob))
        with build_utility(backend) as utility:
            last = None
            for last in factory().iter_run(utility, N, state=restored):
                pass
        assert last.done
        assert last.values.tolist() == reference.values.tolist(), backend
        assert last.evaluations == reference.utility_evaluations

    def test_resume_with_warm_store_trains_nothing(
        self, backend, algorithm_key
    ):
        factory = ALGORITHMS[algorithm_key]
        store = MemoryUtilityStore()
        with build_utility(backend, store=store) as utility:
            reference = factory().run(utility, N)

        with build_utility(backend, store=store) as utility:
            iterator = factory().iter_run(utility, N)
            for index, snapshot in enumerate(iterator, start=1):
                if index == 2:
                    break
            iterator.close()
            blob = json.dumps(snapshot.state.to_dict())

        restored = EstimatorState.from_dict(json.loads(blob))
        with build_utility(backend, store=store) as utility:
            trainings_before = utility.evaluations
            last = None
            for last in factory().iter_run(utility, N, state=restored):
                pass
            assert utility.evaluations == trainings_before == 0, backend
            assert utility.store_hits > 0
        assert last.values.tolist() == reference.values.tolist()


def test_backends_agree_on_resumed_values():
    """Across backends the resumed values agree within the documented atol."""
    finals = {}
    for backend in BACKENDS:
        with build_utility(backend) as utility:
            iterator = ALGORITHMS["ipss"]().iter_run(utility, N)
            for index, snapshot in enumerate(iterator, start=1):
                if index == 2:
                    break
            iterator.close()
        restored = EstimatorState.from_dict(json.loads(json.dumps(snapshot.state.to_dict())))
        with build_utility(backend) as utility:
            last = None
            for last in ALGORITHMS["ipss"]().iter_run(utility, N, state=restored):
                pass
        finals[backend] = last.values
    reference = finals["serial"]
    for backend, values in finals.items():
        np.testing.assert_allclose(values, reference, rtol=0, atol=1e-9, err_msg=backend)

"""repro — reproduction of "Efficient Data Valuation Approximation in
Federated Learning: A Sampling-based Approach" (Wei et al., ICDE 2025).

The package is organised in five layers:

* :mod:`repro.datasets` — synthetic dataset generators, partitioners, noise.
* :mod:`repro.models` — NumPy MLP / CNN / logistic / linear / GBDT models.
* :mod:`repro.fl` — FedAvg-style federated simulator and coalition utilities.
* :mod:`repro.core` — the valuation algorithms: exact Shapley schemes, the
  unified stratified sampling framework, K-Greedy, IPSS and nine baselines.
* :mod:`repro.parallel` — batched coalition-evaluation engine: a batch-capable
  utility oracle with serial and vectorized (lockstep) executors.
* :mod:`repro.store` — persistent, content-addressed coalition-utility store
  (one SQLite file) shared across processes and runs.
* :mod:`repro.scenarios` — composable client-behavior scenarios (free riders,
  poisoners, sybils, stragglers, ...) and the valuation-robustness harness
  that scores every algorithm against them (see ``docs/scenarios.md``).
* :mod:`repro.experiments` — the harness that regenerates every table and
  figure of the paper's evaluation section, plus the declarative, resumable
  experiment pipeline behind the ``repro`` CLI (see :mod:`repro.cli`).

Quickstart
----------
>>> from repro import quick_valuation            # doctest: +SKIP
>>> result = quick_valuation(n_clients=4)        # doctest: +SKIP
>>> result.values                                # doctest: +SKIP
"""

from repro.core import (
    IPSS,
    BudgetRule,
    ConvergenceRule,
    EstimatorState,
    KGreedy,
    MCShapley,
    StratifiedSampling,
    ValuationResult,
    ValuationSnapshot,
    WallClockRule,
    parse_stopping_rule,
    relative_error_l2,
)
from repro.fl import CoalitionUtility, FLConfig
from repro.parallel import BatchUtilityOracle
from repro.store import UtilityStore, open_store
from repro.version import __version__

__all__ = [
    "IPSS",
    "KGreedy",
    "MCShapley",
    "StratifiedSampling",
    "ValuationResult",
    "ValuationSnapshot",
    "EstimatorState",
    "BudgetRule",
    "ConvergenceRule",
    "WallClockRule",
    "parse_stopping_rule",
    "relative_error_l2",
    "CoalitionUtility",
    "BatchUtilityOracle",
    "FLConfig",
    "UtilityStore",
    "open_store",
    "quick_valuation",
    "__version__",
]


def quick_valuation(
    n_clients: int = 4,
    samples_per_client: int = 60,
    total_rounds: int = 10,
    seed: int = 0,
) -> ValuationResult:
    """Run IPSS on a small synthetic federation — a one-call smoke test.

    Builds a blob-classification task, splits it IID across ``n_clients``
    logistic-regression FL clients and estimates their data values with IPSS
    under a budget of ``total_rounds`` coalition evaluations.
    """
    from functools import partial

    from repro.datasets import make_classification_blobs, partition_iid, train_test_split
    from repro.models import LogisticRegressionModel

    pooled = make_classification_blobs(
        n_samples=samples_per_client * n_clients + 100,
        n_features=8,
        n_classes=3,
        seed=seed,
    )
    train, test = train_test_split(pooled, test_fraction=0.25, seed=seed)
    clients = partition_iid(train, n_clients, seed=seed)
    utility = CoalitionUtility(
        client_datasets=clients,
        test_dataset=test,
        # partial, not a lambda: the oracle stays picklable (RPR004).
        model_factory=partial(
            LogisticRegressionModel, n_features=8, n_classes=3, epochs=5
        ),
        config=FLConfig(rounds=3, local_epochs=1),
        seed=seed,
    )
    return IPSS(total_rounds=total_rounds, seed=seed).run(utility)

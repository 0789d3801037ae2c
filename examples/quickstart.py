"""Quickstart: value four FL clients' datasets with IPSS in under a minute.

The script builds a small synthetic classification federation, computes the
exact Shapley values (feasible for four clients), runs the paper's IPSS
approximation under a tight sampling budget, and compares the two.

Speed: ``CoalitionUtility`` accepts an ``executor`` backend — ``"serial"``
(default) or ``"vectorized"``.  Algorithms hand their whole coalition plan to
the oracle in one batch, so the vectorized backend trains the batch's
coalitions in lockstep on stacked parameters while the estimated values stay
bitwise-identical to serial execution (per-coalition training seeds are
derived from the coalition itself, independent of evaluation order).  To
spread a campaign over several processes, run several ``repro run``
processes over disjoint plans against one ``--store`` file (see
``docs/store.md``).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import IPSS, MCShapley, relative_error_l2
from repro.datasets import (
    make_classification_blobs,
    partition_different_sizes,
    train_test_split,
)
from repro.fl import CoalitionUtility, FLConfig
from repro.models import LogisticRegressionModel

N_CLIENTS = 4
SEED = 7


def main() -> None:
    # 1. Build a pooled dataset and split it across the FL clients with
    #    increasingly large shares (1:2:3:4), so the clients genuinely differ.
    pooled = make_classification_blobs(
        n_samples=400,
        n_features=10,
        n_classes=3,
        cluster_std=2.5,
        class_separation=2.0,
        seed=SEED,
    )
    train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
    client_datasets = partition_different_sizes(train, N_CLIENTS, seed=SEED)

    # 2. Wrap everything in a coalition-utility oracle: U(S) is the test
    #    accuracy of a model trained federatedly on the clients in S.
    #    executor="vectorized" trains the coalitions of each batch in
    #    lockstep (values are identical to serial, just faster).
    utility = CoalitionUtility(
        client_datasets=client_datasets,
        test_dataset=test,
        model_factory=lambda: LogisticRegressionModel(
            n_features=10, n_classes=3, epochs=5
        ),
        config=FLConfig(rounds=3, local_epochs=1),
        seed=SEED,
        executor="vectorized",
    )

    # 3. Exact Shapley values (2^4 = 16 FL trainings).
    exact = MCShapley().run(utility)
    print("Exact MC-SV values:      ", np.round(exact.values, 4))
    print("  FL trainings used:     ", exact.utility_evaluations)

    # 4. IPSS under a budget of 10 coalition evaluations.
    utility.reset_cache()
    ipss = IPSS(total_rounds=10, seed=SEED).run(utility)
    print("IPSS estimated values:   ", np.round(ipss.values, 4))
    print("  FL trainings used:     ", ipss.utility_evaluations)
    print("  k* (fully enumerated): ", ipss.metadata["k_star"])

    # 5. Compare.
    error = relative_error_l2(ipss.values, exact.values)
    print(f"Relative l2 error:        {error:.4f}")
    print("Client ranking (exact):  ", exact.ranking().tolist())
    print("Client ranking (IPSS):   ", ipss.ranking().tolist())


if __name__ == "__main__":
    main()

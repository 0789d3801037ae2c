"""Coalition utility oracles.

Every sampling-based valuation algorithm in :mod:`repro.core` is written
against a single callable interface: ``utility(coalition) -> float``.
:class:`CoalitionUtility` implements it on top of the FL simulator: it is a
:class:`~repro.parallel.batch_oracle.BatchUtilityOracle` whose evaluator is
:meth:`FederatedTrainer.utility`, so it memoises coalitions (training the
same coalition twice would be wasted work), counts the FL trainings actually
performed — the hardware-independent cost model used in EXPERIMENTS.md
alongside wall-clock times — and speaks the *batch-oracle protocol*
(``evaluate_batch(coalitions) -> {coalition: utility}``), training misses on
the chosen executor (see :mod:`repro.parallel`).  Per-coalition training
seeds are content-derived and collision-resistant, so every backend returns
bitwise-identical utilities to serial execution.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.datasets.base import Dataset
from repro.fl.config import FLConfig
from repro.fl.federation import FederatedTrainer, ModelFactory
from repro.parallel.batch_oracle import BatchUtilityOracle, coalition_batch_keys
from repro.parallel.executors import ExecutorLike
from repro.store import StoreLike
from repro.utils.rng import SeedLike


class CoalitionUtility(BatchUtilityOracle):
    """Memoised utility oracle ``U(S)`` backed by federated training.

    Parameters
    ----------
    client_datasets:
        One training dataset per FL client.
    test_dataset:
        Held-out evaluation data defining the utility.
    model_factory:
        Zero-argument callable producing a fresh model.
    config:
        FL training configuration.
    seed:
        Base seed making coalition training deterministic.
    executor:
        Backend for batched evaluation (``evaluate_batch``): ``"serial"``,
        ``"vectorized"``, an existing executor instance, or ``None`` for
        serial.  The vectorized backend trains miss batches in lockstep on
        stacked parameter matrices when the model supports it (linear,
        logistic, MLP) and falls back to the serial loop otherwise — see
        ``docs/performance.md`` for the backend matrix.
    store:
        Optional persistent utility store (instance or path) beneath the
        memo: trained utilities are written through and survive the process,
        so a rerun — or a sibling ``repro run`` process — serves them with zero FL
        trainings.  See :mod:`repro.store`.
    store_namespace:
        Content-address namespace (a task fingerprint) for this oracle's
        coalitions.  The experiment task builders
        (:mod:`repro.experiments.tasks`) compute and pass it automatically;
        when attaching a store by hand the caller must guarantee it uniquely
        identifies the (datasets, model, config, seed) combination.
    client_dropout:
        Optional per-client straggler probabilities forwarded to
        :class:`~repro.fl.federation.FederatedTrainer`; with a store attached
        the caller's namespace must cover them (the scenario fingerprint
        does).
    """

    def __init__(
        self,
        client_datasets: Sequence[Dataset],
        test_dataset: Dataset,
        model_factory: ModelFactory,
        config: Optional[FLConfig] = None,
        seed: SeedLike = 0,
        executor: ExecutorLike = None,
        store: StoreLike = None,
        store_namespace: Optional[str] = None,
        client_dropout: Optional[Sequence[float]] = None,
    ) -> None:
        self.trainer = FederatedTrainer(
            client_datasets=client_datasets,
            test_dataset=test_dataset,
            model_factory=model_factory,
            config=config,
            seed=seed,
            client_dropout=client_dropout,
        )
        # The bare bound method: the vectorized backend finds its trainer
        # through it, so it must not be wrapped.
        super().__init__(
            self.trainer.utility,
            n_clients=self.trainer.n_clients,
            executor=executor,
            store=store,
            store_namespace=store_namespace,
        )


class TabularUtility:
    """Utility oracle backed by a precomputed coalition → utility table.

    Used in unit tests (to check algorithms against hand-computed Shapley
    values, e.g. the paper's Table I example) and in analytical experiments
    where utilities come from a closed-form model rather than FL training.
    """

    def __init__(self, n_clients: int, table: Mapping[frozenset, float]) -> None:
        self.n_clients = int(n_clients)
        self._table = {frozenset(k): float(v) for k, v in table.items()}
        self._counter = 0

    #: materialising a 2^n-entry table beyond this many clients fails fast
    MAX_EXACT_CLIENTS = 20

    @classmethod
    def from_function(
        cls,
        n_clients: int,
        function: Callable[[frozenset], float],
        max_exact_clients: int | None = None,
    ) -> "TabularUtility":
        """Materialise a full utility table from a coalition function.

        The table holds all ``2^n`` coalitions, so the shared enumeration
        guard applies (default :attr:`MAX_EXACT_CLIENTS`, override via
        ``max_exact_clients``): a misconfigured large-n call raises with the
        sampling alternatives instead of exhausting memory.
        """
        from repro.core.plans import check_enumeration_limit
        from repro.utils.combinatorics import all_coalitions

        limit = cls.MAX_EXACT_CLIENTS if max_exact_clients is None else int(
            max_exact_clients
        )
        check_enumeration_limit(n_clients, limit, "utility-table materialisation")
        table = {s: function(s) for s in all_coalitions(n_clients)}
        return cls(n_clients, table)

    def __call__(self, coalition: Iterable[int]) -> float:
        key = frozenset(int(c) for c in coalition)
        if key not in self._table:
            raise KeyError(f"utility of coalition {sorted(key)} is not defined")
        self._counter += 1
        return self._table[key]

    def utility(self, coalition: Iterable[int]) -> float:
        return self(coalition)

    def evaluate_batch(
        self, coalitions: Iterable[Iterable[int]]
    ) -> dict[frozenset, float]:
        """Batch-oracle protocol: deduplicated sequential table lookups."""
        return {key: self(key) for key in coalition_batch_keys(coalitions)}

    @property
    def evaluations(self) -> int:
        """Number of lookups performed (each lookup models one FL training)."""
        return self._counter
